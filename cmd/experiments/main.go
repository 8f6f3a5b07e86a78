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
//	experiments [flags] {fig1b|fig1c|fig5|fig6|fig7|validate|ablation|rate-engine|obs-overhead|noise-bench|noise-spectroscopy|all}
//
// See EXPERIMENTS.md for the mapping to the paper and the measured
// outcomes.
package main

import (
	"context"
	"flag"
	"fmt"
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
		fmt.Fprintf(os.Stderr, "usage: experiments [flags] {fig1b|fig1c|fig5|fig6|fig7|validate|ablation|rate-engine|obs-overhead|noise-bench|noise-spectroscopy|all}\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
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
	defer stopObs()
	run := func(name string, f func() error) {
		fmt.Printf("== %s ==\n", name)
		start := time.Now()
		if err := f(); err != nil {
			fatal(fmt.Errorf("%s: %w", name, err))
		}
		fmt.Printf("-- %s done in %v\n\n", name, time.Since(start).Round(time.Millisecond))
	}
	switch flag.Arg(0) {
	case "fig1b":
		run("fig1b", fig1b)
	case "fig1c":
		run("fig1c", fig1c)
	case "fig5":
		run("fig5", fig5)
	case "fig6":
		run("fig6", fig6)
	case "fig7":
		run("fig7", fig7)
	case "validate":
		run("validate", validate)
	case "ablation":
		run("ablation", ablation)
	case "rate-engine":
		run("rate-engine", rateEngine)
	case "obs-overhead":
		run("obs-overhead", obsOverhead)
	case "noise-bench":
		run("noise-bench", noiseBench)
	case "noise-spectroscopy":
		run("noise-spectroscopy", noiseSpectroscopy)
	case "all":
		run("validate", validate)
		run("fig1b", fig1b)
		run("fig1c", fig1c)
		run("fig5", fig5)
		run("fig6", fig6)
		run("fig7", fig7)
	default:
		flag.Usage()
		os.Exit(2)
	}
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
	return semsim.RunDeckCtx(context.Background(), d, semsim.DeckOverrides{},
		semsim.DeckRunConfig{Workers: runtime.GOMAXPROCS(0)})
}

// datFile creates an output file and returns it with a cleanup func.
func datFile(name string) (*os.File, func()) {
	path := filepath.Join(*outDir, name)
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	return f, func() {
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", path)
	}
}
