package main

import (
	"errors"
	"fmt"
	"time"

	"semsim"
	"semsim/internal/bench"
	"semsim/internal/logicnet"
	"semsim/internal/spicemodel"
)

// fig6 regenerates the performance comparison: for each of the 15 logic
// benchmarks, the wall-clock time to simulate 10 us of circuit time
// with the non-adaptive Monte Carlo solver, the adaptive solver
// (SEMSIM), and the compact-model SPICE baseline. Like the paper, the
// large benchmarks are extrapolated from shortened runs normalized to
// the 10 us window; the machine-independent rate-calculations-per-event
// ratio is reported alongside.
func fig6() error {
	const simWindow = 10e-6 // the paper's normalization target

	var rows []fig6Row

	p := logicnet.DefaultParams()
	for _, b := range bench.Suite() {
		if *only != "" && b.Name != *only {
			continue
		}
		if *maxJuncs > 0 && b.PublishedJunctions > *maxJuncs {
			fmt.Fprintf(stdout, "%-18s skipped (> %d junctions)\n", b.Name, *maxJuncs)
			continue
		}
		// Event budget shrinks with size so the measurement window stays
		// tractable; timing is normalized per simulated second anyway.
		events := uint64(40_000_000 / b.PublishedJunctions)
		if events > 30000 {
			events = 30000
		}
		if events < 1500 {
			events = 1500
		}
		if *quick {
			events /= 10
			if events < 500 {
				events = 500
			}
		}

		ex, err := bench.BuildWorkload(b, p)
		if err != nil {
			return err
		}
		na, err := bench.TimeSolverOn(ex, semsim.Options{Temp: bench.WorkloadTemp, Seed: 11}, events, 0)
		if err != nil {
			return fmt.Errorf("%s non-adaptive: %w", b.Name, err)
		}
		ad, err := bench.TimeSolverOn(ex, semsim.Options{Temp: bench.WorkloadTemp, Seed: 11, Adaptive: true}, events, 0)
		if err != nil {
			return fmt.Errorf("%s adaptive: %w", b.Name, err)
		}
		r := fig6Row{
			name:   b.Name,
			juncs:  b.PublishedJunctions,
			naSec:  na.WallPerSimETime * simWindow,
			adSec:  ad.WallPerSimETime * simWindow,
			rateNA: na.RatePerEvent,
			rateAD: ad.RatePerEvent,
		}
		if r.adSec > 0 {
			r.speedup = r.naSec / r.adSec
		}

		// SPICE baseline: a shortened transient window, extrapolated the
		// same way. Failures (non-convergence, wrong logic value, or
		// exceeding the wall budget this dense-matrix baseline gets) are
		// reported like the paper's missing bars.
		spiceSec, spiceErr := spiceTiming(ex, b, simWindow)
		r.spiceSec, r.spiceErr = spiceSec, spiceErr
		rows = append(rows, r)
		fmt.Fprintf(stdout, "%-18s %5dj  non-adaptive %9.1fs  adaptive %8.1fs  speedup %5.1fx  spice %s\n",
			r.name, r.juncs, r.naSec, r.adSec, r.speedup, spiceCell(r))
	}

	f, done := datFile("fig6.dat")
	defer done()
	fmt.Fprintln(f, "# Fig. 6: projected wall seconds to simulate 10 us of circuit time")
	fmt.Fprintln(f, "# benchmark junctions t_nonadaptive(s) t_adaptive(s) speedup ratecalcs_per_event_na ratecalcs_per_event_ad t_spice(s_or_-1) spice_status")
	for _, r := range rows {
		status := r.spiceErr
		if status == "" {
			status = "ok"
		}
		sp := r.spiceSec
		if r.spiceErr != "" {
			sp = -1
		}
		fmt.Fprintf(f, "%s %d %.3f %.3f %.2f %.1f %.2f %.3f %s\n",
			r.name, r.juncs, r.naSec, r.adSec, r.speedup, r.rateNA, r.rateAD, sp, status)
	}
	return nil
}

// fig6Row is one benchmark's measurements.
type fig6Row struct {
	name     string
	juncs    int
	naSec    float64
	adSec    float64
	speedup  float64
	rateNA   float64
	rateAD   float64
	spiceSec float64
	spiceErr string
}

func spiceCell(r fig6Row) string {
	if r.spiceErr != "" {
		return "FAIL(" + r.spiceErr + ")"
	}
	return fmt.Sprintf("%.1fs", r.spiceSec)
}

// spiceTiming runs the compact-model transient over a short window and
// projects the wall time to the full simWindow. It also checks the
// settled logic outputs against the boolean netlist ("incorrect
// output" in the paper's terms).
func spiceTiming(ex *logicnet.Expanded, b bench.Benchmark, simWindow float64) (float64, string) {
	sp, err := semsim.NewSpice(ex.Circuit, bench.WorkloadTemp)
	if err != nil {
		return 0, "unsupported"
	}
	sp.WallBudget = *spiceCap
	window := 40e-9
	dt := 0.5e-9
	if *quick {
		window = 10e-9
	}
	start := time.Now()
	if err := sp.Run(window, dt); err != nil {
		switch {
		case errors.Is(err, spicemodel.ErrWallBudget):
			return 0, "budget"
		case errors.Is(err, spicemodel.ErrNoConvergence):
			return 0, "non-convergence"
		default:
			return 0, "error"
		}
	}
	wall := time.Since(start)

	// Logic-correctness check at the settled pre-step state.
	assign := map[string]bool{}
	for _, in := range b.Netlist.Inputs {
		assign[in] = false
	}
	for _, in := range b.HighInputs {
		assign[in] = true
	}
	want, err := b.Netlist.Eval(assign)
	if err != nil {
		return 0, "error"
	}
	thr := ex.LogicThreshold()
	for _, out := range b.Netlist.Outputs {
		got := sp.Voltage(ex.Wire[out]) > thr
		if got != want[out] {
			return 0, "incorrect-output"
		}
	}
	return wall.Seconds() / window * simWindow, ""
}
