package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"semsim/internal/bench"
	"semsim/internal/logicnet"
)

// potentialEngine benchmarks the two potential engines — exact dense
// rows and eps-truncated sparse rows — on the four largest suite
// circuits and writes BENCH_potential_engine.json: build cost,
// per-event shift and full-refresh micro timings, Monte Carlo
// events/sec, storage shape, and the truncated engine's measured error
// against its provable bound.
func potentialEngine() error {
	names, events := []string{"c432", "c1355", "c499", "c1908"}, uint64(4000)
	if *quick {
		names, events = []string{"74LS153"}, uint64(1000)
	}
	var reps []*bench.PotentialEngineReport
	for _, name := range names {
		b, ok := bench.ByName(name)
		if !ok {
			return fmt.Errorf("benchmark %s missing from suite", name)
		}
		rep, err := bench.RunPotentialEngines(b, logicnet.DefaultParams(), events, 11)
		if err != nil {
			return err
		}
		fmt.Printf("%s (%d junctions, %d islands):\n", rep.Benchmark, rep.Junctions, rep.Islands)
		for _, r := range rep.Runs {
			fmt.Printf("  %-12s build %8.2fs  nnz %9d  shift %9.0f ns  refresh %8.2f ms  %8.0f events/s",
				r.Engine, r.BuildSeconds, r.NNZ, r.ShiftNsPerOp, r.RefreshMsPerSolve, r.EventsPerSec)
			if r.Eps > 0 {
				fmt.Printf("  bound %.3g V (measured %.3g V)", r.ErrorBound, r.MaxAbsPotentialError)
			}
			fmt.Println()
		}
		fmt.Printf("  potential-update speedup dense/sparse-trunc: shift %.1fx, refresh %.1fx\n",
			rep.ShiftSpeedup, rep.RefreshSpeedup)
		reps = append(reps, rep)
	}
	data, err := json.MarshalIndent(reps, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(*outDir, "BENCH_potential_engine.json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}
