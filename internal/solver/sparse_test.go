// Tests of the truncated potential engine inside the solver: a run at
// a coarse threshold must carry a positive, honest error bound while
// staying statistically indistinguishable from a default-threshold
// (ε = 1e-14) run at truncation thresholds far below thermal noise.
package solver_test

import (
	"testing"

	"semsim/internal/bench"
	"semsim/internal/obs"
	"semsim/internal/solver"
)

// TestTruncatedRunCarriesBound: an ε > 0 run must report a positive
// accumulated error bound in Stats and on the obs registry, and at a
// threshold of 1e-9 (potential perturbations nine decades below the
// junction voltages) the sampled event sequence must still match the
// default-threshold run — the same argument as the rate-table test,
// with three decades more margin.
func TestTruncatedRunCarriesBound(t *testing.T) {
	if testing.Short() {
		t.Skip("MC workload in -short mode")
	}
	ex, b := workload(t, "74LS153")
	exT, _ := workloadAt(t, "74LS153", 1e-9)
	const events = 2000
	base := solver.Options{Temp: bench.WorkloadTemp, Seed: 47, Adaptive: true, RefreshEvery: 64}
	ref := runWorkload(t, ex, b, base, events)

	o := obs.New(obs.Config{})
	truncOpt := base
	truncOpt.Obs = o
	trunc := runWorkload(t, exT, b, truncOpt, events)

	if trunc.stats.CinvErrorBound <= 0 {
		t.Fatalf("truncated run reports error bound %g, want > 0", trunc.stats.CinvErrorBound)
	}
	if trunc.stats.CinvErrorBound > 1e-6 {
		t.Fatalf("error bound %g implausibly large for eps=1e-9", trunc.stats.CinvErrorBound)
	}
	snap := o.Registry().Snapshot()
	if snap.Gauges["solver.cinv_error_bound_v"] <= 0 {
		t.Fatal("obs gauge solver.cinv_error_bound_v not published")
	}
	if snap.Gauges["circuit.cinv_nnz"] <= 0 || snap.Gauges["circuit.cinv_truncation_ratio"] <= 0 {
		t.Fatalf("engine-shape gauges not published: %v / %v",
			snap.Gauges["circuit.cinv_nnz"], snap.Gauges["circuit.cinv_truncation_ratio"])
	}
	if trunc.stats.Events != ref.stats.Events {
		t.Fatalf("event counts diverged at eps=1e-9: default %d vs truncated %d",
			ref.stats.Events, trunc.stats.Events)
	}
	for j := range ref.current {
		d := ref.current[j] - trunc.current[j]
		if d < 0 {
			d = -d
		}
		scale := 1e-12
		if a := ref.current[j]; a > scale || -a > scale {
			scale = a
			if scale < 0 {
				scale = -scale
			}
		}
		if d > 1e-3*scale {
			t.Fatalf("junction %d current: default %g vs truncated %g", j, ref.current[j], trunc.current[j])
		}
	}
}
