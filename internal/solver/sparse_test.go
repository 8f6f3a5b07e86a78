// Tests of the truncated (ε > 0) potential engine inside the solver:
// its runs must carry a positive, honest error bound while staying
// statistically indistinguishable from the dense engine at truncation
// thresholds far below thermal noise.
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
// dense run — the same argument as the rate-table test, with three
// decades more margin.
func TestTruncatedRunCarriesBound(t *testing.T) {
	if testing.Short() {
		t.Skip("MC workload in -short mode")
	}
	ex, b := workload(t, "74LS153")
	exT, _ := workloadAt(t, "74LS153", 1e-9)
	const events = 2000
	base := solver.Options{Temp: bench.WorkloadTemp, Seed: 47, Adaptive: true, RefreshEvery: 64}
	dense := runWorkload(t, ex, b, base, events)

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
	if trunc.stats.Events != dense.stats.Events {
		t.Fatalf("event counts diverged at eps=1e-9: dense %d vs truncated %d",
			dense.stats.Events, trunc.stats.Events)
	}
	for j := range dense.current {
		d := dense.current[j] - trunc.current[j]
		if d < 0 {
			d = -d
		}
		scale := 1e-12
		if a := dense.current[j]; a > scale || -a > scale {
			scale = a
			if scale < 0 {
				scale = -scale
			}
		}
		if d > 1e-3*scale {
			t.Fatalf("junction %d current: dense %g vs truncated %g", j, dense.current[j], trunc.current[j])
		}
	}
}
