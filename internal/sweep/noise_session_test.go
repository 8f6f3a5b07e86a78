package sweep

import (
	"math"
	"testing"

	"semsim/internal/circuit"
	"semsim/internal/noise"
	"semsim/internal/solver"
)

// noiseSession builds the standard test SET session with a noise
// recorder on the drain junction: an auto-calibrated counting window
// plus a two-point spectral grid.
func noiseSession(t *testing.T, cfg Config) (*Session, int) {
	t.Helper()
	c, nd := circuit.NewSET(circuit.SETConfig{
		R1: 1e6, C1: aF, R2: 1e6, C2: aF, Cg: 3 * aF,
		Vs: 0.04, Vd: -0.01, Vg: 0.02,
	})
	over := func(x, y float64) map[int]float64 {
		return map[int]float64{nd.Source: x / 2, nd.Drain: -x / 2, nd.Gate: y}
	}
	s, err := NewSession(c, nd.JuncDrain, over, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.EnableNoise(noise.Config{Juncs: []noise.JuncConfig{
		{Junc: nd.JuncDrain, Omegas: []float64{1e9, 5e9}},
	}}); err != nil {
		t.Fatal(err)
	}
	return s, nd.JuncDrain
}

// TestNoiseSessionReuseBitIdentical is the session-reuse regression
// test: a reused session's noise measurement at point k — after the
// accumulators were polluted and an auto window calibrated at earlier
// points — must be bit-identical to a fresh session that runs point k
// first. solver.Reset clears the accumulators and rolls auto windows
// back; this test fails if either half regresses.
func TestNoiseSessionReuseBitIdentical(t *testing.T) {
	cfg := Config{Options: solver.Options{Temp: 5, Seed: 42}, WarmEvents: 500, Events: 3000}
	xs := []float64{0.02, 0.035, 0.04}

	reused, junc := noiseSession(t, cfg)
	var reusedStats []noise.RunStats
	for i, x := range xs {
		if _, err := reused.RunPoint(x, 0, i); err != nil {
			t.Fatal(err)
		}
		st, ok := reused.NoiseStats(junc)
		if !ok {
			t.Fatal("session reports no noise stats")
		}
		reusedStats = append(reusedStats, st)
	}

	for i, x := range xs {
		fresh, fjunc := noiseSession(t, cfg)
		if _, err := fresh.RunPoint(x, 0, i); err != nil {
			t.Fatal(err)
		}
		want, ok := fresh.NoiseStats(fjunc)
		if !ok {
			t.Fatal("fresh session reports no noise stats")
		}
		got := reusedStats[i]
		if got.Events != want.Events || got.Windows != want.Windows ||
			math.Float64bits(got.T) != math.Float64bits(want.T) ||
			math.Float64bits(got.Window) != math.Float64bits(want.Window) ||
			math.Float64bits(got.MeanI) != math.Float64bits(want.MeanI) ||
			math.Float64bits(got.SumQ) != math.Float64bits(want.SumQ) ||
			math.Float64bits(got.SumQ2) != math.Float64bits(want.SumQ2) {
			t.Errorf("point %d: reused session noise diverged from fresh session:\nreused: %+v\nfresh:  %+v", i, got, want)
		}
		for k := range want.S {
			if math.Float64bits(got.S[k]) != math.Float64bits(want.S[k]) {
				t.Errorf("point %d: S[%d] diverged: %g vs %g", i, k, got.S[k], want.S[k])
			}
		}
		if want.Windows < 2 {
			t.Errorf("point %d measured %d windows; the comparison is vacuous", i, want.Windows)
		}
	}

	// Recording must not perturb the sweep itself: the same session
	// config without a recorder yields bit-identical currents.
	plain, err := IVSession(sessionSET(cfg), xs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	noisy, _ := noiseSession(t, cfg)
	for i, x := range xs {
		pt, err := noisy.RunPoint(x, 0, i)
		if err != nil {
			t.Fatal(err)
		}
		if pt != plain[i] {
			t.Errorf("point %d: noise recording perturbed the sweep: %+v vs %+v", i, pt, plain[i])
		}
	}
}
