// Command benchcmp diffs rate-engine benchmark snapshots and gates the
// kernel-table invariant.
//
// Usage:
//
//	benchcmp NEW.json           check one snapshot: tables >= exact
//	benchcmp OLD.json NEW.json  per-configuration speedup table, then
//	                            the same check on NEW.json
//	benchcmp -obs SNAP.json     gate an obs-overhead snapshot: the
//	                            always-on modes (metrics, jobmetrics)
//	                            must cost < 5% and every mode must have
//	                            run the identical trajectory
//	benchcmp -noise SNAP.json   gate a noise-overhead snapshot: the
//	                            counting-window and spectral recording
//	                            modes must cost < 5% over plain current
//	                            recording on the identical trajectory
//
// With two files it prints old vs new events/s and the speedup for
// every (benchmark, kernel) configuration, matching rows across the
// single-report and report-array file formats. In both forms the exit
// status is the regression gate used by `make bench-compare`: nonzero
// if any benchmark in the newest snapshot runs slower with tabulated
// kernels than with exact evaluation. The -obs form is the
// gate behind `make obs-overhead` and CI.
package main

import (
	"fmt"
	"os"

	"semsim/internal/bench"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchcmp:", err)
		os.Exit(1)
	}
}

// obsBudgetPct bounds what the always-on observability modes may cost
// relative to a bare solver run.
const obsBudgetPct = 5.0

// noiseBudgetPct bounds what streaming noise accumulation may cost
// relative to plain current recording.
const noiseBudgetPct = 5.0

func run(args []string) error {
	if len(args) >= 1 && args[0] == "-obs" {
		if len(args) != 2 {
			return fmt.Errorf("usage: benchcmp -obs SNAP.json")
		}
		return gateObs(args[1])
	}
	if len(args) >= 1 && args[0] == "-noise" {
		if len(args) != 2 {
			return fmt.Errorf("usage: benchcmp -noise SNAP.json")
		}
		return gateNoise(args[1])
	}
	if len(args) < 1 || len(args) > 2 {
		return fmt.Errorf("usage: benchcmp [-obs|-noise] [OLD.json] NEW.json")
	}
	newest, err := bench.LoadRateEngineReports(args[len(args)-1])
	if err != nil {
		return err
	}
	if len(args) == 2 {
		old, err := bench.LoadRateEngineReports(args[0])
		if err != nil {
			return err
		}
		fmt.Print(bench.CompareRateEngine(old, newest))
	}
	if bad := bench.CheckTablesAtLeastExact(newest); len(bad) > 0 {
		for _, m := range bad {
			fmt.Fprintln(os.Stderr, "REGRESSION:", m)
		}
		return fmt.Errorf("tabulated kernels slower than exact in %d configuration(s)", len(bad))
	}
	fmt.Println("tables >= exact in every configuration")
	return nil
}

// gateObs applies the always-on observability budget to an obs-overhead
// snapshot.
func gateObs(path string) error {
	rep, err := bench.LoadObsOverheadReport(path)
	if err != nil {
		return err
	}
	for _, r := range rep.Runs {
		fmt.Printf("%-10s  %10.0f events/s  %+5.1f%% overhead\n", r.Mode, r.EventsPerSec, r.OverheadPct)
	}
	if bad := bench.CheckObsOverheadBudget(rep, obsBudgetPct); len(bad) > 0 {
		for _, m := range bad {
			fmt.Fprintln(os.Stderr, "REGRESSION:", m)
		}
		return fmt.Errorf("observability overhead gate failed (%d violation(s))", len(bad))
	}
	fmt.Printf("always-on observability under the %.0f%% budget, trajectories identical\n", obsBudgetPct)
	return nil
}

// gateNoise applies the recording budget to a noise-overhead snapshot
// — the gate behind `make noise-bench` and CI.
func gateNoise(path string) error {
	rep, err := bench.LoadNoiseOverheadReport(path)
	if err != nil {
		return err
	}
	for _, r := range rep.Runs {
		fmt.Printf("%-10s  %10.0f events/s  %+5.1f%% overhead\n", r.Mode, r.EventsPerSec, r.OverheadPct)
	}
	if bad := bench.CheckNoiseOverheadBudget(rep, noiseBudgetPct); len(bad) > 0 {
		for _, m := range bad {
			fmt.Fprintln(os.Stderr, "REGRESSION:", m)
		}
		return fmt.Errorf("noise recording gate failed (%d violation(s))", len(bad))
	}
	fmt.Printf("noise recording under the %.0f%% budget, trajectories identical\n", noiseBudgetPct)
	return nil
}
