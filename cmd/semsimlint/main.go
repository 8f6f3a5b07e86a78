// Command semsimlint is the project's static-analysis multichecker: it
// runs the internal/lint passes (detrand, unitsafety, floateq, hotalloc,
// physerr, obsdiscipline, doccomment, statecover, resumepurity) over the
// tree and exits non-zero on any finding. Passes exchange cross-package
// facts (serialization completeness, resume purity, global mutability)
// through a module-wide fact store threaded in dependency order. See
// DESIGN.md §7 and §12 for the analyzer catalogue and the facts engine.
//
// Usage:
//
//	semsimlint [-tags list] [-json] [packages]
//
// It loads and type-checks the module itself (offline, no tooling
// beyond the go command) and analyzes the packages in dependency order
// over one shared fact store. Packages default to ./...; -tags selects
// the build configuration, and -json switches the output to a
// machine-readable findings array for CI annotation. The exit status is
// 0 when clean, 1 on findings and 2 when the module cannot be loaded.
package main

import (
	"flag"
	"fmt"
	"os"

	"semsim/internal/lint"
)

func main() {
	tags := flag.String("tags", "", "build tags for package loading (comma-separated)")
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array (machine-readable; for CI annotation)")
	flag.Parse()

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	run := lint.Run
	if *jsonOut {
		run = lint.RunJSON
	}
	n, err := run(".", *tags, patterns, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if n > 0 {
		fmt.Fprintf(os.Stderr, "semsimlint: %d finding(s)\n", n)
		os.Exit(1)
	}
}
