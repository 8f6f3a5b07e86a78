package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"semsim/internal/bench"
	"semsim/internal/logicnet"
)

// rateEngine benchmarks the rate engine and writes the machine-readable
// results to BENCH_rate_engine.json: events/sec, rate calculations and
// wall time of serial runs with exact vs tabulated kernels. Two circuits
// are timed — c432 (2072 junctions) and c1908 (6988 junctions), both on
// the default truncated C^-1 rows; the file holds an array with one
// report per circuit.
func rateEngine() error {
	type row struct {
		name   string
		events uint64
	}
	rows := []row{
		{"c432", 20000},
		{"c1908", 10000},
	}
	if *quick {
		rows = []row{{"74LS153", 2000}}
	}
	var reps []*bench.RateEngineReport
	for _, w := range rows {
		b, ok := bench.ByName(w.name)
		if !ok {
			return fmt.Errorf("benchmark %s missing from suite", w.name)
		}
		rep, err := bench.RunRateEngine(b, logicnet.DefaultParams(), w.events, 11)
		if err != nil {
			return err
		}
		fmt.Printf("%s (%d junctions):\n", rep.Benchmark, rep.Junctions)
		for _, r := range rep.Runs {
			tables := "exact"
			if r.RateTables {
				tables = "tables"
			}
			fmt.Printf("  %-6s  %8.0f events/s  %12d rate calcs  %8.3fs wall\n",
				tables, r.EventsPerSec, r.RateCalcs, r.WallSeconds)
		}
		reps = append(reps, rep)
	}
	data, err := json.MarshalIndent(reps, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(*outDir, "BENCH_rate_engine.json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)

	// The tabulated kernels exist to be faster than exact evaluation;
	// regressing that inverts the benchmark's reason to exist, so the
	// generator fails loudly on a report it had to write regressed.
	var all []bench.RateEngineReport
	for _, r := range reps {
		all = append(all, *r)
	}
	if bad := bench.CheckTablesAtLeastExact(all); len(bad) > 0 {
		for _, m := range bad {
			fmt.Fprintln(os.Stderr, "REGRESSION:", m)
		}
		return fmt.Errorf("rate-engine: tabulated kernels slower than exact in %d configuration(s)", len(bad))
	}
	return nil
}
