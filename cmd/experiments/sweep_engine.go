package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"semsim/internal/bench"
)

// Floors for the amortized sweep engine, shared with `benchcmp -sweep`:
// compile-once reuse must beat per-point rebuilding by at least 5x in
// points/second on a large-circuit map, and adaptive refinement must
// simulate at least 4x fewer points than the uniform fine lattice.
const (
	sweepMinSpeedup = 5.0
	sweepMinSavings = 4.0
)

// sweepEngine benchmarks the amortized million-point sweep engine and
// writes BENCH_sweep_engine.json: compile-once session throughput vs
// the per-point rebuild path on a 64x64 stability map of c1908 (6988
// junctions), and adaptive-mesh-refinement savings vs a uniform fine
// lattice on a SET Coulomb-diamond map.
func sweepEngine() error {
	o := bench.SweepEngineOptions{
		Benchmark: "c1908",
		GridX:     64,
		GridY:     64,
		Events:    200,
		Warm:      50,
		// One per-point rebuild of c1908 costs seconds (netlist
		// expansion, sparse factorization, dense C^-1 rows), and the
		// cost is bias-independent, so two samples price the whole grid.
		RebuildSample: 2,
		Seed:          11,
		CoarseX:       9,
		CoarseY:       9,
		Depth:         4,
		Threshold:     0.1,
		RefineEvents:  2000,
	}
	if *quick {
		o.Benchmark = "74LS153"
		o.GridX, o.GridY = 12, 12
		o.RebuildSample = 4
		o.CoarseX, o.CoarseY, o.Depth = 5, 5, 2
		o.RefineEvents = 800
	}
	rep, err := bench.RunSweepEngine(o)
	if err != nil {
		return err
	}
	fmt.Printf("%s (%d junctions), %dx%d map, %d events/point, %d workers:\n",
		rep.Benchmark, rep.Junctions, rep.GridX, rep.GridY, rep.EventsPerPoint, rep.Workers)
	fmt.Printf("  amortized  %6d points  %8.2fs  %8.1f points/s\n",
		rep.AmortizedPoints, rep.AmortizedSeconds, rep.AmortizedPointsPerSec)
	fmt.Printf("  rebuild    %6d points  %8.2fs  %8.1f points/s\n",
		rep.RebuildPoints, rep.RebuildSeconds, rep.RebuildPointsPerSec)
	fmt.Printf("  speedup    %.1fx\n", rep.SpeedupX)
	fmt.Printf("%s refinement, %dx%d coarse, depth %d:\n",
		rep.RefineCircuit, rep.CoarseX, rep.CoarseY, rep.RefineDepth)
	fmt.Printf("  simulated  %d of %d lattice points (%.1fx saving, max interp err %.2f%% of range)\n",
		rep.SimulatedPoints, rep.LatticePoints, rep.RefineSavingsX, rep.RefineMaxErrPct)
	fmt.Printf("  refined    %8.2fs   uniform %8.2fs\n", rep.RefineSeconds, rep.UniformSeconds)

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(*outDir, "BENCH_sweep_engine.json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)

	// The amortized engine exists to make large maps cheap; a report
	// that had to be written below its floors is a regression, so the
	// generator fails loudly on it. The floors are calibrated for the
	// full configuration — a quick run's tiny lattice cannot structurally
	// reach them, so it only smoke-tests the machinery.
	if *quick {
		return nil
	}
	if bad := bench.CheckSweepEngine(rep, sweepMinSpeedup, sweepMinSavings); len(bad) > 0 {
		for _, m := range bad {
			fmt.Fprintln(os.Stderr, "REGRESSION:", m)
		}
		return fmt.Errorf("sweep-engine: %d floor(s) violated", len(bad))
	}
	return nil
}
