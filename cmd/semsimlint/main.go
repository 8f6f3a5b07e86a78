// Command semsimlint is the project's static-analysis multichecker: it
// runs the internal/lint passes (detrand, unitsafety, floateq, hotalloc,
// physerr, obsdiscipline, doccomment, statecover, resumepurity) over the
// tree and exits non-zero on any finding. Passes exchange cross-package
// facts (serialization completeness, resume purity, global mutability)
// through a module-wide fact store threaded in dependency order. See
// DESIGN.md §7 and §12 for the analyzer catalogue and the facts engine.
//
// It runs in two modes:
//
//	semsimlint [-tags list] [-only a,b] [-json] [packages]   # standalone
//	go vet -vettool=$(which semsimlint) ./...                # vet tool
//
// Standalone mode loads and type-checks the module itself (offline, no
// tooling beyond the go command) and analyzes packages in dependency
// order over one shared fact store; -json switches the output to a
// machine-readable findings array for CI annotation. Vet-tool mode
// implements the protocol go vet speaks to analysis tools (-V=full /
// -flags / vet.cfg), reusing vet's build graph, export data and
// caching; facts travel between packages as gob-encoded .vetx files.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"semsim/internal/lint"
)

func main() {
	// Vet-tool protocol entry points, dispatched before flag parsing
	// because go vet controls the argument order.
	if len(os.Args) >= 2 {
		switch {
		case os.Args[1] == "-V=full":
			// The version line doubles as vet's cache key for this tool.
			// Bump the counter on driver-behavior changes the analyzer
			// doc-hash cannot see (fact protocol, package scoping).
			fmt.Printf("semsimlint version 2 buildID=%s\n", buildID())
			return
		case os.Args[1] == "-flags":
			fmt.Println("[]")
			return
		case strings.HasSuffix(os.Args[len(os.Args)-1], ".cfg"):
			os.Exit(vetToolMain(os.Args[len(os.Args)-1]))
		}
	}

	tags := flag.String("tags", "", "build tags for package loading (comma-separated)")
	only := flag.String("only", "", "comma-separated analyzer subset to run")
	list := flag.Bool("list", false, "list analyzers and exit")
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array (machine-readable; for CI annotation)")
	flag.Parse()

	if *list {
		for _, a := range lint.All() {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		return
	}
	analyzers, err := lint.ByName(*only)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	run := lint.Run
	if *jsonOut {
		run = lint.RunJSON
	}
	n, err := run(".", *tags, analyzers, patterns, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if n > 0 {
		fmt.Fprintf(os.Stderr, "semsimlint: %d finding(s)\n", n)
		os.Exit(1)
	}
}

// buildID distinguishes tool versions for vet's result cache. The
// analyzer set and their rule constants are compiled in, so a content
// hash of the running binary would be ideal; the analyzer names plus
// doc strings are a cheap stable proxy that changes whenever a pass is
// added or its contract reworded.
func buildID() string {
	var sum uint64 = 1469598103934665603 // FNV-1a
	for _, a := range lint.All() {
		for _, s := range []string{a.Name, a.Doc} {
			for i := 0; i < len(s); i++ {
				sum ^= uint64(s[i])
				sum *= 1099511628211
			}
		}
	}
	return fmt.Sprintf("%016x", sum)
}
