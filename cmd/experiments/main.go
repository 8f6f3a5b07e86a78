// Command experiments regenerates every figure of the paper's
// evaluation section (there are no numbered tables) and the Section
// IV-A validation numbers. Results print to stdout and are also written
// as whitespace-separated .dat files under -out (default ./results).
// The I-V families (fig1b, fig1c), the stability map (fig5) and the
// noise validation are decks: each subcommand writes the deck text and
// runs it on the jobs runner, the same path as `semsim deck.cir`.
//
// Usage:
//
//	experiments [flags] {fig1b|fig1c|fig5|fig6|fig7|validate|ablation|noise-spectroscopy|all}
//
// See EXPERIMENTS.md for the mapping to the paper and the measured
// outcomes.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"semsim"
	"semsim/internal/obs"
)

var (
	outDir    = flag.String("out", "results", "directory for .dat output files")
	quick     = flag.Bool("quick", false, "cut event budgets, grid sizes and seeds for a fast smoke run")
	only      = flag.String("only", "", "fig6/fig7: run only the named benchmark")
	maxJuncs  = flag.Int("max-junctions", 0, "fig6/fig7: skip benchmarks larger than this (0 = no limit)")
	seeds     = flag.Int("seeds", 9, "fig7: number of Monte Carlo seeds to average (paper: 9)")
	spiceCap  = flag.Duration("spice-budget", 2*time.Minute, "fig6/fig7: wall-clock budget per SPICE transient before it is reported as failed")
	obsAddr   = flag.String("obs-addr", "", "serve live metrics, trace and pprof on this address (e.g. :6060)")
	traceFile = flag.String("trace", "", "write a Chrome trace_event journal of the run to this file")
	progress  = flag.Bool("progress", false, "print periodic progress lines to stderr")
)

func main() {
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: experiments [flags] {fig1b|fig1c|fig5|fig6|fig7|validate|ablation|noise-spectroscopy|all}\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	experiments := map[string]func() error{
		"fig1b": fig1b, "fig1c": fig1c, "fig5": fig5, "fig6": fig6, "fig7": fig7,
		"validate": validate, "ablation": ablation, "noise-spectroscopy": noiseSpectroscopy,
	}
	todo := []string{flag.Arg(0)}
	if todo[0] == "all" {
		todo = []string{"validate", "fig1b", "fig1c", "fig5", "fig6", "fig7"}
	}
	// A usage error leaves nothing behind: no output directory, no
	// listener.
	if flag.NArg() != 1 || experiments[todo[0]] == nil {
		flag.Usage()
		os.Exit(2)
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatal(err)
	}
	stopObs, err := obs.StartCLI(obs.CLIConfig{Addr: *obsAddr, TraceFile: *traceFile, Progress: *progress})
	if err != nil {
		fatal(err)
	}
	run := func(name string, f func() error) {
		fmt.Fprintf(stdout, "== %s ==\n", name)
		start := time.Now()
		if err := f(); err != nil {
			fatal(fmt.Errorf("%s: %w", name, err))
		}
		fmt.Fprintf(stdout, "-- %s done in %v\n\n", name, time.Since(start).Round(time.Millisecond))
		if stdout.err != nil {
			fatal(stdout.err)
		}
	}
	for _, name := range todo {
		run(name, experiments[name])
	}
	if err := stopObs(); err != nil {
		fatal(err)
	}
}

// stdout is the command's one route to standard output. It is not
// buffered, because the "== name ==" lines report progress, and it
// keeps the first write error, which run reports once its experiment
// is done.
var stdout = &firstErrWriter{w: os.Stdout}

// firstErrWriter passes writes through to w until one fails, and fails
// every later write with that first error.
type firstErrWriter struct {
	w   io.Writer
	err error
}

func (f *firstErrWriter) Write(p []byte) (int, error) {
	if f.err != nil {
		return 0, f.err
	}
	n, err := f.w.Write(p)
	f.err = err
	return n, err
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}

// runDeckText parses deck text and runs it through the jobs runner
// with one task worker per CPU. Results are identical at any worker
// count.
func runDeckText(text string) ([]semsim.DeckPoint, error) {
	d, err := semsim.ParseNetlist(strings.NewReader(text))
	if err != nil {
		return nil, err
	}
	return semsim.RunDeckCtx(context.Background(), d, semsim.DeckRunConfig{Workers: runtime.GOMAXPROCS(0)})
}

// datFile creates an output file and returns a buffered writer to it
// with a cleanup func that flushes and closes it, exiting on an error.
func datFile(name string) (*bufio.Writer, func()) {
	path := filepath.Join(*outDir, name)
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	w := bufio.NewWriter(f)
	return w, func() {
		if err := errors.Join(w.Flush(), f.Close()); err != nil {
			fatal(err)
		}
		fmt.Fprintf(stdout, "wrote %s\n", path)
	}
}
