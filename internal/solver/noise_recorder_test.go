package solver

import (
	"math"
	"testing"

	"semsim/internal/circuit"
	"semsim/internal/invariant"
	"semsim/internal/noise"
	"semsim/internal/units"
)

// noiseSET builds a double-junction SET biased far above threshold at
// T = 0 with a noise recorder on both junctions, warms it up, lets the
// auto windows calibrate and resets the measurement — the exact phase
// sequence the jobs engine runs.
func noiseSET(tb testing.TB, r1, r2 float64, seed uint64, omegas []float64) (*Sim, circuit.SETNodes) {
	tb.Helper()
	c, nd := circuit.NewSET(circuit.SETConfig{
		R1: r1, C1: aF, R2: r2, C2: aF, Cg: 3 * aF,
		Vs: 0.1, Vd: -0.1,
	})
	s, err := New(c, Options{Temp: 0, Seed: seed})
	if err != nil {
		tb.Fatal(err)
	}
	if err := s.EnableNoise(noise.Config{Juncs: []noise.JuncConfig{
		{Junc: nd.JuncSource, Omegas: omegas},
		{Junc: nd.JuncDrain},
	}}); err != nil {
		tb.Fatal(err)
	}
	if _, err := s.Run(500, 0); err != nil {
		tb.Fatal(err)
	}
	s.AutoNoiseWindows()
	s.ResetMeasurement()
	return s, nd
}

// foldNoiseRuns measures `runs` independent devices and folds the
// per-run statistics exactly as the jobs engine does.
func foldNoiseRuns(tb testing.TB, r1, r2 float64, runs int, events uint64, omegas []float64, junc func(circuit.SETNodes) int) noise.Stats {
	tb.Helper()
	rs := make([]noise.RunStats, 0, runs)
	for r := 0; r < runs; r++ {
		s, nd := noiseSET(tb, r1, r2, 1000+uint64(r), omegas)
		if _, err := s.Run(events, 0); err != nil {
			tb.Fatal(err)
		}
		st, ok := s.NoiseStats(junc(nd))
		if !ok {
			tb.Fatal("recorded junction reports no noise stats")
		}
		rs = append(rs, st)
	}
	return noise.Fold(rs)
}

// TestNoisePoissonianLimit: with one junction a thousandfold
// bottleneck, transfers are uncorrelated Poisson events and the exact
// Fano factor (Γ₁²+Γ₂²)/(Γ₁+Γ₂)² is within a tenth of a percent of 1.
// The folded estimate must agree within 2 cross-run standard errors.
func TestNoisePoissonianLimit(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run statistics under -short")
	}
	st := foldNoiseRuns(t, 1e9, 1e6, 16, 20000, nil, func(nd circuit.SETNodes) int { return nd.JuncSource })
	if st.Runs != 16 || st.Windows == 0 {
		t.Fatalf("fold saw %d runs, %d windows", st.Runs, st.Windows)
	}
	if st.FanoErr <= 0 {
		t.Fatalf("no cross-run error estimate: %+v", st)
	}
	sigma := math.Max(st.FanoErr, 0.01)
	if math.Abs(st.Fano-1) > 2*sigma {
		t.Errorf("bottleneck SET Fano = %.4f ± %.4f, want 1 within 2σ", st.Fano, st.FanoErr)
	}
}

// TestNoisePlateauSuppression: the symmetric double junction at the
// same bias shows sub-Poissonian partition noise, F = 1/2 (Korotkov;
// de Jong & Beenakker) — measurably below 1.
func TestNoisePlateauSuppression(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run statistics under -short")
	}
	st := foldNoiseRuns(t, 1e6, 1e6, 12, 20000, nil, func(nd circuit.SETNodes) int { return nd.JuncDrain })
	if st.Fano < 0.35 || st.Fano > 0.7 {
		t.Errorf("symmetric SET Fano = %.4f ± %.4f, want ~0.5", st.Fano, st.FanoErr)
	}
	if st.Fano+2*st.FanoErr >= 1 {
		t.Errorf("suppression not significant: F = %.4f ± %.4f", st.Fano, st.FanoErr)
	}
}

// TestNoiseSpectralWhiteTail: in the white band (ωT ≫ 1 yet ω far
// below the tunnel rate) the current spectral density equals 2eI·F.
// The symmetric SET makes this a real discrimination test — 2eI·F is
// half the naive full shot noise 2eI.
func TestNoiseSpectralWhiteTail(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run statistics under -short")
	}
	// Per-junction tunnel rates are ~5e11/s (1 MΩ junctions, 0.2 V
	// bias) and a 20000-event run spans ~2e-8 s. ω ∈ [3e9, 3e10] rad/s
	// keeps ωT ≳ 60 (negligible finite-window leakage) and ω/Γ ≲ 0.06
	// (well below the Lorentzian roll-off back to full shot noise).
	omegas := make([]float64, 16)
	for i := range omegas {
		omegas[i] = 3e9 * math.Pow(10, float64(i)/float64(len(omegas)-1))
	}
	st := foldNoiseRuns(t, 1e6, 1e6, 24, 20000, omegas, func(nd circuit.SETNodes) int { return nd.JuncSource })
	if st.Fano <= 0 || st.MeanI == 0 {
		t.Fatalf("degenerate fold: %+v", st)
	}
	want := 2 * units.E * math.Abs(st.MeanI) * st.Fano
	full := 2 * units.E * math.Abs(st.MeanI)
	mean := 0.0
	for _, s := range st.S {
		mean += s
	}
	mean /= float64(len(st.S))
	if math.Abs(mean-want)/want > 0.25 {
		t.Errorf("band-averaged S = %g, want 2eI·F = %g within 25%% (F = %.3f)", mean, want, st.Fano)
	}
	if mean >= 0.75*full {
		t.Errorf("S = %g does not discriminate from full shot noise 2eI = %g", mean, full)
	}
}

// TestNoisePassiveTrajectory: attaching a recorder must not perturb
// the simulation — identical seed, bit-identical trajectory.
func TestNoisePassiveTrajectory(t *testing.T) {
	mk := func(withNoise bool) *Sim {
		c, nd := circuit.NewSET(circuit.SETConfig{
			R1: 1e6, C1: aF, R2: 1e6, C2: aF, Cg: 3 * aF,
			Vs: 0.1, Vd: -0.1,
		})
		s, err := New(c, Options{Temp: 2, Seed: 99, Adaptive: true})
		if err != nil {
			t.Fatal(err)
		}
		if withNoise {
			if err := s.EnableNoise(noise.Config{Juncs: []noise.JuncConfig{
				{Junc: nd.JuncSource, Omegas: []float64{1e8}, Window: 1e-9},
			}}); err != nil {
				t.Fatal(err)
			}
		}
		return s
	}
	a, b := mk(true), mk(false)
	if _, err := a.Run(20000, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Run(20000, 0); err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(a.Time()) != math.Float64bits(b.Time()) {
		t.Errorf("recorder perturbed the clock: %g vs %g", a.Time(), b.Time())
	}
	if a.Stats() != b.Stats() {
		t.Errorf("recorder perturbed event statistics:\n%+v\n%+v", a.Stats(), b.Stats())
	}
	for j := 0; j < 2; j++ {
		if math.Float64bits(a.JunctionCharge(j)) != math.Float64bits(b.JunctionCharge(j)) {
			t.Errorf("junction %d charge diverged: %g vs %g", j, a.JunctionCharge(j), b.JunctionCharge(j))
		}
	}
}

// TestNoiseResetClearsState is the session-reuse regression test at
// the solver level: Reset must clear the accumulators AND roll
// auto-calibrated windows back, so a reused simulation measures
// exactly what a freshly built one would.
func TestNoiseResetClearsState(t *testing.T) {
	build := func(seed uint64) (*Sim, circuit.SETNodes) {
		c, nd := circuit.NewSET(circuit.SETConfig{
			R1: 1e6, C1: aF, R2: 1e6, C2: aF, Cg: 3 * aF,
			Vs: 0.1, Vd: -0.1,
		})
		s, err := New(c, Options{Temp: 0, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.EnableNoise(noise.Config{Juncs: []noise.JuncConfig{
			{Junc: nd.JuncSource, Omegas: []float64{1e8, 1e9}}, // auto window
		}}); err != nil {
			t.Fatal(err)
		}
		return s, nd
	}
	measure := func(s *Sim, nd circuit.SETNodes) noise.RunStats {
		if _, err := s.Run(500, 0); err != nil {
			t.Fatal(err)
		}
		s.AutoNoiseWindows()
		s.ResetMeasurement()
		if _, err := s.Run(5000, 0); err != nil {
			t.Fatal(err)
		}
		st, ok := s.NoiseStats(nd.JuncSource)
		if !ok {
			t.Fatal("no noise stats")
		}
		return st
	}
	// Reused path: run once under seed 5 (polluting the accumulators
	// and calibrating an auto window), then Reset to seed 6.
	s, nd := build(5)
	measure(s, nd)
	if err := s.Reset(6, nil); err != nil {
		t.Fatal(err)
	}
	reused := measure(s, nd)

	fresh, nd2 := build(6)
	want := measure(fresh, nd2)

	if reused.Events != want.Events || reused.Windows != want.Windows ||
		math.Float64bits(reused.Window) != math.Float64bits(want.Window) ||
		math.Float64bits(reused.SumQ) != math.Float64bits(want.SumQ) ||
		math.Float64bits(reused.SumQ2) != math.Float64bits(want.SumQ2) ||
		math.Float64bits(reused.MeanI) != math.Float64bits(want.MeanI) {
		t.Errorf("reused session noise diverged from fresh build:\nreused: %+v\nfresh:  %+v", reused, want)
	}
	for k := range want.S {
		if math.Float64bits(reused.S[k]) != math.Float64bits(want.S[k]) {
			t.Errorf("S[%d] diverged: %g vs %g", k, reused.S[k], want.S[k])
		}
	}
}

// TestNoiseCheckpointRoundTrip: an interrupted-and-resumed run's noise
// statistics must be bit-identical to the uninterrupted run's,
// including the auto-calibrated window carried in the snapshot.
func TestNoiseCheckpointRoundTrip(t *testing.T) {
	omegas := []float64{1e8, 3e8}
	ref, nd := noiseSET(t, 1e6, 1e6, 77, omegas)
	if _, err := ref.Run(3000, 0); err != nil {
		t.Fatal(err)
	}
	cp, err := ref.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if cp.Noise == nil {
		t.Fatal("checkpoint of a noise-recording run carries no noise state")
	}
	if _, err := ref.Run(3000, 0); err != nil {
		t.Fatal(err)
	}
	want, _ := ref.NoiseStats(nd.JuncSource)

	// Resume into a freshly built simulation. EnableNoise must come
	// first — the checkpoint carries accumulator state.
	c2, nd2 := circuit.NewSET(circuit.SETConfig{
		R1: 1e6, C1: aF, R2: 1e6, C2: aF, Cg: 3 * aF,
		Vs: 0.1, Vd: -0.1,
	})
	s2, err := New(c2, Options{Temp: 0, Seed: 123})
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Restore(cp); err == nil {
		t.Fatal("Restore accepted noise checkpoint without EnableNoise")
	}
	if err := s2.EnableNoise(noise.Config{Juncs: []noise.JuncConfig{
		{Junc: nd2.JuncSource, Omegas: omegas},
		{Junc: nd2.JuncDrain},
	}}); err != nil {
		t.Fatal(err)
	}
	if err := s2.Restore(cp); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Run(3000, 0); err != nil {
		t.Fatal(err)
	}
	got, _ := s2.NoiseStats(nd2.JuncSource)
	if got.Events != want.Events || got.Windows != want.Windows ||
		math.Float64bits(got.Window) != math.Float64bits(want.Window) ||
		math.Float64bits(got.SumQ) != math.Float64bits(want.SumQ) ||
		math.Float64bits(got.SumQ2) != math.Float64bits(want.SumQ2) ||
		math.Float64bits(got.MeanI) != math.Float64bits(want.MeanI) ||
		math.Float64bits(got.T) != math.Float64bits(want.T) {
		t.Errorf("resumed noise stats diverged:\nresumed: %+v\nstraight: %+v", got, want)
	}
	for k := range want.S {
		if math.Float64bits(got.S[k]) != math.Float64bits(want.S[k]) {
			t.Errorf("resumed S[%d] diverged: %g vs %g", k, got.S[k], want.S[k])
		}
	}

	// The reverse direction must also fail loudly: a noise-enabled
	// simulation cannot restore a plain checkpoint.
	cp.Noise = nil
	if err := s2.Restore(cp); err == nil {
		t.Fatal("noise-enabled Restore accepted a checkpoint without noise state")
	}
}

// BenchmarkStepHotPathNoise measures the full per-event loop with a
// recorder accumulating windows and a 3-point spectral grid — the
// configuration the <5% overhead budget refers to.
func BenchmarkStepHotPathNoise(b *testing.B) {
	s, err := New(hotChain(b, 16), Options{Temp: 2, Seed: 7, RateTables: true})
	if err != nil {
		b.Fatal(err)
	}
	if err := s.EnableNoise(noise.Config{Juncs: []noise.JuncConfig{
		{Junc: 0, Omegas: []float64{1e8, 1e9, 1e10}, Window: 1e-9},
	}}); err != nil {
		b.Fatal(err)
	}
	if _, err := s.Run(64, 0); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestNoiseHotPathZeroAlloc extends the zero-alloc CI gate to the
// recording path: the event loop with noise accumulation enabled must
// stay allocation-free.
func TestNoiseHotPathZeroAlloc(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmarking under -short")
	}
	if invariant.Enabled {
		t.Skip("semsimdebug invariant checks allocate scratch buffers by design")
	}
	res := testing.Benchmark(BenchmarkStepHotPathNoise)
	if allocs := res.AllocsPerOp(); allocs != 0 {
		t.Errorf("StepHotPathNoise: %d allocs/op, want 0 (recording must be allocation-free)", allocs)
	}
}
