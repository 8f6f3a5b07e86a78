package main

import (
	"errors"
	"fmt"
	"math"

	"semsim"
	"semsim/internal/bench"
	"semsim/internal/logicnet"
	"semsim/internal/trace"
)

// fig7 regenerates the accuracy comparison: the propagation-delay error
// of the adaptive solver (averaged over -seeds Monte Carlo runs, paper
// uses nine) and of the SPICE baseline, both measured against the
// non-adaptive Monte Carlo reference. The paper reports 3.30% average
// for SEMSIM and 9.18% for SPICE (excluding its failing benchmarks).
func fig7() error {
	nSeeds := *seeds
	if *quick && nSeeds > 3 {
		nSeeds = 3
	}

	type row struct {
		name              string
		juncs             int
		refDelay, adDelay float64
		adErrPct          float64
		spiceDelay        float64
		spiceErrPct       float64
		spiceStatus       string
	}
	var rows []row
	p := logicnet.DefaultParams()

	for _, b := range bench.Suite() {
		if *only != "" && b.Name != *only {
			continue
		}
		if *maxJuncs > 0 && b.PublishedJunctions > *maxJuncs {
			fmt.Fprintf(stdout, "%-18s skipped (> %d junctions)\n", b.Name, *maxJuncs)
			continue
		}
		ex, err := bench.BuildWorkload(b, p)
		if err != nil {
			return err
		}
		ref, nRef, err := bench.MeanDelayOn(ex, b, semsim.Options{Temp: bench.WorkloadTemp, Seed: 100}, nSeeds)
		if err != nil {
			return fmt.Errorf("%s reference: %w", b.Name, err)
		}
		ad, nAd, err := bench.MeanDelayOn(ex, b, semsim.Options{Temp: bench.WorkloadTemp, Seed: 100, Adaptive: true}, nSeeds)
		if err != nil {
			return fmt.Errorf("%s adaptive: %w", b.Name, err)
		}
		r := row{
			name:     b.Name,
			juncs:    b.PublishedJunctions,
			refDelay: ref,
			adDelay:  ad,
			adErrPct: 100 * math.Abs(ad-ref) / ref,
		}
		r.spiceDelay, r.spiceStatus = spiceDelay(ex, b)
		if r.spiceStatus == "" {
			r.spiceErrPct = 100 * math.Abs(r.spiceDelay-ref) / ref
		}
		rows = append(rows, r)
		fmt.Fprintf(stdout, "%-18s %5dj  ref %7.2fns (%d runs)  adaptive %7.2fns (%d runs, err %5.2f%%)  spice %s\n",
			r.name, r.juncs, ref*1e9, nRef, ad*1e9, nAd, r.adErrPct, spiceDelayCell(r.spiceDelay, r.spiceErrPct, r.spiceStatus))
	}

	f, done := datFile("fig7.dat")
	defer done()
	fmt.Fprintln(f, "# Fig. 7: propagation-delay error vs the non-adaptive MC reference")
	fmt.Fprintln(f, "# benchmark junctions ref_delay(s) adaptive_delay(s) adaptive_err(%) spice_delay(s_or_-1) spice_err(%_or_-1) spice_status")
	sumAd, nOK := 0.0, 0
	sumSp, nSp := 0.0, 0
	for _, r := range rows {
		spD, spE, status := r.spiceDelay, r.spiceErrPct, r.spiceStatus
		if status == "" {
			status = "ok"
			sumSp += spE
			nSp++
		} else {
			spD, spE = -1, -1
		}
		sumAd += r.adErrPct
		nOK++
		fmt.Fprintf(f, "%s %d %.4e %.4e %.2f %.4e %.2f %s\n",
			r.name, r.juncs, r.refDelay, r.adDelay, r.adErrPct, spD, spE, status)
	}
	if nOK > 0 {
		fmt.Fprintf(stdout, "average adaptive delay error: %.2f%% over %d benchmarks (paper: 3.30%%)\n", sumAd/float64(nOK), nOK)
		fmt.Fprintf(f, "# average_adaptive_error %.2f%%\n", sumAd/float64(nOK))
	}
	if nSp > 0 {
		fmt.Fprintf(stdout, "average SPICE delay error:    %.2f%% over %d benchmarks (paper: 9.18%%)\n", sumSp/float64(nSp), nSp)
		fmt.Fprintf(f, "# average_spice_error %.2f%% over %d\n", sumSp/float64(nSp), nSp)
	}
	return nil
}

// spiceDelay measures the propagation delay with the compact-model
// transient, or reports why it could not.
func spiceDelay(ex *logicnet.Expanded, b bench.Benchmark) (float64, string) {
	sp, err := semsim.NewSpice(ex.Circuit, bench.WorkloadTemp)
	if err != nil {
		return 0, "unsupported"
	}
	sp.WallBudget = *spiceCap
	out := ex.Wire[b.OutputWire]
	sp.Probe(out)
	if err := sp.Run(bench.SettleTime+bench.ObserveFor, 0.5e-9); err != nil {
		switch {
		case errors.Is(err, semsim.ErrNoConvergence):
			return 0, "non-convergence"
		default:
			return 0, "budget"
		}
	}
	d, err := trace.PropagationDelay(sp.Waveform(out), bench.SettleTime+bench.StepRamp,
		ex.LogicThreshold(), 0, b.OutputRises)
	if err != nil {
		return 0, "incorrect-output"
	}
	return d, ""
}

func spiceDelayCell(d, errPct float64, status string) string {
	if status != "" {
		return "FAIL(" + status + ")"
	}
	return fmt.Sprintf("%7.2fns (err %5.2f%%)", d*1e9, errPct)
}
