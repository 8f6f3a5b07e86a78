package main

import (
	"fmt"
	"math"

	"semsim"
	"semsim/internal/bench"
	"semsim/internal/logicnet"
)

// ablation quantifies the adaptive solver's two knobs on a mid-size
// benchmark: the testing-factor threshold alpha (accuracy vs rate
// calculations) and the periodic refresh interval. The paper fixes
// both implicitly; this table is the evidence for the defaults.
func ablation() error {
	const benchName = "74LS153"
	b, ok := bench.ByName(benchName)
	if !ok {
		return fmt.Errorf("missing benchmark %s", benchName)
	}
	p := logicnet.DefaultParams()
	ex, err := bench.BuildWorkload(b, p)
	if err != nil {
		return err
	}
	seeds := *seeds
	if *quick && seeds > 3 {
		seeds = 3
	}

	ref, _, err := bench.MeanDelayOn(ex, b, semsim.Options{Temp: bench.WorkloadTemp, Seed: 300}, seeds)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s, %d seeds; non-adaptive reference delay %.1f ns\n", benchName, seeds, ref*1e9)

	f, done := datFile("ablation.dat")
	defer done()
	fmt.Fprintf(f, "# adaptive-solver ablation on %s; reference delay %.4e s\n", benchName, ref)
	fmt.Fprintln(f, "# knob value delay(s) err(%) ratecalcs_per_event")

	measure := func(opt semsim.Options) (float64, float64) {
		d, _, err2 := bench.MeanDelayOn(ex, b, opt, seeds)
		if err2 != nil {
			err = err2
			return 0, 0
		}
		// One representative run for the cost metric.
		res, err2 := bench.MeasureDelayOn(ex, b, opt)
		if err2 != nil {
			err = err2
			return 0, 0
		}
		return d, float64(res.RateCalcs) / float64(res.Events)
	}

	fmt.Fprintln(stdout, "alpha sweep (refresh = default):")
	for _, alpha := range []float64{0.005, 0.02, 0.05, 0.2, 0.5} {
		d, cost := measure(semsim.Options{Temp: bench.WorkloadTemp, Seed: 300, Adaptive: true, Alpha: alpha})
		if err != nil {
			return err
		}
		errPct := 100 * math.Abs(d-ref) / ref
		fmt.Fprintf(stdout, "  alpha=%-6g delay %7.1f ns  err %5.2f%%  %5.1f rate calcs/event\n",
			alpha, d*1e9, errPct, cost)
		fmt.Fprintf(f, "alpha %g %.4e %.2f %.1f\n", alpha, d, errPct, cost)
	}

	fmt.Fprintln(stdout, "refresh-interval sweep (alpha = 0.05):")
	for _, every := range []int{64, 256, 1024, 8192, 65536} {
		d, cost := measure(semsim.Options{Temp: bench.WorkloadTemp, Seed: 300, Adaptive: true, RefreshEvery: every})
		if err != nil {
			return err
		}
		errPct := 100 * math.Abs(d-ref) / ref
		fmt.Fprintf(stdout, "  refresh=%-6d delay %7.1f ns  err %5.2f%%  %5.1f rate calcs/event\n",
			every, d*1e9, errPct, cost)
		fmt.Fprintf(f, "refresh %d %.4e %.2f %.1f\n", every, d, errPct, cost)
	}
	return nil
}
