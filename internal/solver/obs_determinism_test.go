// Observability must be passive: an instrumented run — metrics alone
// or full tracing — produces a bit-identical trajectory to an
// uninstrumented one. This is the acceptance gate for wiring
// internal/obs through the solver; it reuses the determinism harness of
// the rate-engine tests.
package solver_test

import (
	"testing"

	"semsim/internal/bench"
	"semsim/internal/obs"
	"semsim/internal/solver"
)

func TestObsDoesNotPerturbTrajectory(t *testing.T) {
	if testing.Short() {
		t.Skip("MC workload in -short mode")
	}
	ex, b := workload(t, "c432")
	const events = 3000
	opt := solver.Options{Temp: bench.WorkloadTemp, Seed: 29, Adaptive: true, RateTables: true}

	plain := runWorkload(t, ex, b, opt, events)
	if plain.stats.Events == 0 {
		t.Fatal("no events simulated")
	}

	metricsOpt := opt
	metricsOpt.Obs = obs.New(obs.Config{})
	metrics := runWorkload(t, ex, b, metricsOpt, events)
	requireIdentical(t, "metrics-only", plain, metrics)

	tracingOpt := opt
	tracingOpt.Obs = obs.New(obs.Config{Trace: true})
	traced := runWorkload(t, ex, b, tracingOpt, events)
	requireIdentical(t, "full-tracing", plain, traced)

	// The registry mirror must agree exactly with the Stats struct (the
	// counters are fed from the same increments).
	snap := tracingOpt.Obs.Registry().Snapshot()
	mirrors := map[string]uint64{
		"solver.events":           traced.stats.Events,
		"solver.rate_calcs":       traced.stats.RateCalcs,
		"solver.full_refreshes":   traced.stats.FullRefreshes,
		"solver.adaptive_tested":  traced.stats.Tested,
		"solver.adaptive_flagged": traced.stats.Flagged,
		"solver.cotunnel_events":  traced.stats.CotunnelEvents,
		"solver.cooper_events":    traced.stats.CooperEvents,
	}
	for name, want := range mirrors {
		if got := snap.Counters[name]; got != want {
			t.Errorf("registry %s = %d, Stats says %d", name, got, want)
		}
	}
	if got := snap.Gauges["solver.dissipated_j"]; got != traced.stats.Dissipated {
		t.Errorf("registry dissipated = %g, Stats says %g", got, traced.stats.Dissipated)
	}
	if j := tracingOpt.Obs.Journal(); j.Total() == 0 {
		t.Error("tracing run journaled nothing")
	}
	// Adaptive runs must populate the recompute heatmap.
	if heat := tracingOpt.Obs.Heatmap(); obs.SummarizeHeatmap(heat).Total == 0 {
		t.Error("adaptive run left the recompute heatmap empty")
	}
}

// TestObsMirrorsAdaptiveCountersAcrossInputStep: the registry's
// adaptive counters bill every test and flag Stats counts, including
// the input-change fold, which tests every junction whenever the
// sources move. The c432 run above ends before the workload's input
// step; this one crosses it.
func TestObsMirrorsAdaptiveCountersAcrossInputStep(t *testing.T) {
	if testing.Short() {
		t.Skip("MC workload in -short mode")
	}
	ex, _ := workload(t, "74LS153")
	o := obs.New(obs.Config{})
	s, err := solver.New(ex.Circuit, solver.Options{Temp: bench.WorkloadTemp, Seed: 5, Adaptive: true, Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(0, bench.SettleTime+50e-9); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	snap := o.Registry().Snapshot()
	if snap.Counters["solver.input_changes"] == 0 {
		t.Fatal("the run never crossed the input step")
	}
	mirrors := map[string]uint64{
		"solver.adaptive_tested":     st.Tested,
		"solver.adaptive_flagged":    st.Flagged,
		"solver.adaptive_recomputes": st.Flagged,
	}
	for name, want := range mirrors {
		if got := snap.Counters[name]; got != want {
			t.Errorf("registry %s = %d, Stats says %d", name, got, want)
		}
	}
}

// TestGlobalObserverFallback: a Sim built with no Options.Obs picks up
// the process-wide observer, which is how `-obs-addr` instruments CLI
// runs without plumbing.
func TestGlobalObserverFallback(t *testing.T) {
	if testing.Short() {
		t.Skip("MC workload in -short mode")
	}
	o := obs.New(obs.Config{})
	obs.SetGlobal(o)
	defer obs.SetGlobal(nil)
	ex, b := workload(t, "74LS153")
	run := runWorkload(t, ex, b, solver.Options{Temp: bench.WorkloadTemp, Seed: 5}, 500)
	if got := o.Registry().Snapshot().Counters["solver.events"]; got != run.stats.Events {
		t.Fatalf("global observer saw %d events, run had %d", got, run.stats.Events)
	}
}
