package noise

import (
	"math"
	"math/rand"
	"testing"

	"semsim/internal/units"
)

// poissonRecorder feeds a synthetic Poisson shot-noise process — n
// unit-charge events at rate lambda, every transfer the same sign —
// into a fresh recorder and returns it with the final event time.
func poissonRecorder(t *testing.T, cfg JuncConfig, lambda float64, n int, seed int64) (*Recorder, float64) {
	t.Helper()
	r, err := New(Config{Juncs: []JuncConfig{cfg}}, cfg.Junc+1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	tm := 0.0
	for i := 0; i < n; i++ {
		tm += rng.ExpFloat64() / lambda
		r.Add(cfg.Junc, tm, -units.E)
	}
	return r, tm
}

// TestPoissonSyntheticStream checks the estimators against the one
// process with exact answers: uncorrelated tunneling at rate λ has
// Fano factor 1 (Poissonian counting) and a white current spectrum
// S_I(ω) = 2eI at every frequency.
func TestPoissonSyntheticStream(t *testing.T) {
	const (
		lambda = 1e9
		n      = 200000
	)
	// 128-point ω grid spanning two decades, all with ωT >> 1 so the
	// finite-window DC leakage term is negligible.
	omegas := make([]float64, 128)
	for i := range omegas {
		omegas[i] = 2 * math.Pi * 1e7 * math.Pow(10, 2*float64(i)/float64(len(omegas)-1))
	}
	r, tm := poissonRecorder(t, JuncConfig{Junc: 0, Omegas: omegas, Window: 64 / lambda}, lambda, n, 1)
	rs, ok := r.Stats(0, tm)
	if !ok {
		t.Fatal("junction 0 not recorded")
	}
	wantI := -units.E * lambda
	if math.Abs(rs.MeanI-wantI)/math.Abs(wantI) > 0.02 {
		t.Errorf("MeanI = %g, want ~%g", rs.MeanI, wantI)
	}
	f, ok := rs.Fano()
	if !ok {
		t.Fatal("Fano undefined on a 3000-window run")
	}
	// Var(F) ~ 2/N_win for Poisson counting: N_win ~ 3100, sd ~ 0.025.
	if math.Abs(f-1) > 0.1 {
		t.Errorf("Fano = %.4f, want 1 within 4 sigma (~0.1)", f)
	}
	// Each periodogram point is ~exponentially distributed (100%
	// relative sd); the 128-point grid average has ~9% sd.
	want := 2 * units.E * math.Abs(wantI)
	mean := 0.0
	for _, s := range rs.S {
		mean += s
	}
	mean /= float64(len(rs.S))
	if math.Abs(mean-want)/want > 0.3 {
		t.Errorf("grid-averaged S = %g, want 2eI = %g within 30%%", mean, want)
	}
}

// TestWindowGapSkip pins the O(1) empty-window arithmetic: a long
// event gap must advance the window count without walking the gap.
func TestWindowGapSkip(t *testing.T) {
	r, err := New(Config{Juncs: []JuncConfig{{Junc: 0, Window: 1.0}}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	r.Add(0, 0.5, 2*units.E)  // window 0: q = 2e
	r.Add(0, 10.5, 3*units.E) // closes windows 0..9, opens window 10
	rs, ok := r.Stats(0, 11.0)
	if !ok {
		t.Fatal("junction 0 not recorded")
	}
	// By t = 11 windows 0..10 are complete: q = {2, 0×9, 3} in units
	// of e, so ΣQ = 5, ΣQ² = 13 over 11 windows.
	if rs.Windows != 11 {
		t.Errorf("Windows = %d, want 11", rs.Windows)
	}
	if math.Abs(rs.SumQ-5) > 1e-9 || math.Abs(rs.SumQ2-13) > 1e-9 {
		t.Errorf("SumQ, SumQ2 = %g, %g, want 5, 13", rs.SumQ, rs.SumQ2)
	}
	if rs.Events != 2 {
		t.Errorf("Events = %d, want 2", rs.Events)
	}
}

// TestAutoWindowCalibration pins the warm-up calibration contract:
// τ = DefaultWindowEvents·elapsed/events, applied once, only to
// auto junctions, kept by Reset and rolled back by FullReset.
func TestAutoWindowCalibration(t *testing.T) {
	r, err := New(Config{Juncs: []JuncConfig{
		{Junc: 0},               // auto
		{Junc: 1, Window: 5e-9}, // configured
	}}, 2)
	if err != nil {
		t.Fatal(err)
	}
	r.AutoWindow(100, 1e-6)
	want := DefaultWindowEvents * 1e-6 / 100
	if rs, _ := r.Stats(0, 0); rs.Window != want {
		t.Errorf("auto window = %g, want %g", rs.Window, want)
	}
	if rs, _ := r.Stats(1, 0); rs.Window != 5e-9 {
		t.Errorf("configured window changed: %g", rs.Window)
	}
	// Second calibration is a no-op (the first one sticks).
	r.AutoWindow(10, 1e-6)
	if rs, _ := r.Stats(0, 0); rs.Window != want {
		t.Errorf("auto window recalibrated to %g, want %g", rs.Window, want)
	}
	// Reset keeps the calibrated width; FullReset rolls it back.
	r.Reset(1e-6)
	if rs, _ := r.Stats(0, 1e-6); rs.Window != want {
		t.Errorf("Reset dropped the auto window: %g", rs.Window)
	}
	r.FullReset(0)
	if rs, _ := r.Stats(0, 0); rs.Window != 0 {
		t.Errorf("FullReset kept the auto window: %g", rs.Window)
	}
	// Zero events (blockaded warm-up) must not divide by zero or set τ.
	r.AutoWindow(0, 1e-6)
	if rs, _ := r.Stats(0, 0); rs.Window != 0 {
		t.Errorf("AutoWindow(0 events) set τ = %g", rs.Window)
	}
}

// TestFoldAveragesRuns checks the cross-run reduction: Fano and S are
// averaged with standard errors, windows and runs counted, and the
// fold is a pure deterministic function of its input order.
func TestFoldAveragesRuns(t *testing.T) {
	runs := []RunStats{
		{T: 1, MeanI: 2, Window: 0.1, Windows: 10, SumQ: 100, SumQ2: 1040, Omegas: []float64{5}, S: []float64{3}},
		{T: 1, MeanI: 4, Window: 0.3, Windows: 10, SumQ: 100, SumQ2: 1100, Omegas: []float64{5}, S: []float64{5}},
		{T: 1, MeanI: 6, Window: 0.2, Windows: 1}, // too few windows: no Fano vote
	}
	st := Fold(runs)
	if st.Runs != 3 || st.Windows != 21 {
		t.Errorf("Runs, Windows = %d, %d, want 3, 21", st.Runs, st.Windows)
	}
	if math.Abs(st.MeanI-4) > 1e-12 || math.Abs(st.Window-0.2) > 1e-12 {
		t.Errorf("MeanI, Window = %g, %g, want 4, 0.2", st.MeanI, st.Window)
	}
	// Run 1: mean 10, var 104-100=4, F=0.4. Run 2: var 110-100=10, F=1.
	if math.Abs(st.Fano-0.7) > 1e-12 {
		t.Errorf("Fano = %g, want 0.7", st.Fano)
	}
	// stderr of {0.4, 1}: sd = 0.3·√2, stderr = 0.3.
	if math.Abs(st.FanoErr-0.3) > 1e-12 {
		t.Errorf("FanoErr = %g, want 0.3", st.FanoErr)
	}
	if len(st.S) != 1 || math.Abs(st.S[0]-8.0/3) > 1e-12 {
		t.Errorf("S = %v, want [8/3]", st.S)
	}
	// Bit-identical re-fold (determinism of the reduction).
	st2 := Fold(runs)
	if st2.Fano != st.Fano || st2.FanoErr != st.FanoErr || st2.S[0] != st.S[0] || st2.SErr[0] != st.SErr[0] {
		t.Error("Fold is not deterministic over identical input")
	}
	if empty := Fold(nil); empty.Runs != 0 || empty.Fano != 0 {
		t.Errorf("Fold(nil) = %+v, want zero value", empty)
	}
}

// TestStateRoundTrip: State → RestoreState must reproduce the
// accumulators bit-for-bit — continuing both recorders over the same
// tail of events yields identical statistics.
func TestStateRoundTrip(t *testing.T) {
	cfg := Config{Juncs: []JuncConfig{
		{Junc: 0, Omegas: []float64{1e8, 3e8}, Window: 2e-9},
		{Junc: 2, Window: 0}, // auto — calibrated τ must survive the trip
	}}
	mk := func() *Recorder {
		r, err := New(cfg, 3)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a := mk()
	a.AutoWindow(50, 1e-6)
	rng := rand.New(rand.NewSource(7))
	tm := 0.0
	feed := func(r *Recorder, rng *rand.Rand, tm float64, n int) float64 {
		for i := 0; i < n; i++ {
			tm += rng.ExpFloat64() * 1e-9
			j := rng.Intn(3)
			r.Add(j, tm, -units.E)
		}
		return tm
	}
	tm = feed(a, rng, tm, 500)

	b := mk()
	if err := b.RestoreState(a.State()); err != nil {
		t.Fatal(err)
	}
	// Same tail into both, from identical RNG states.
	rngA := rand.New(rand.NewSource(9))
	rngB := rand.New(rand.NewSource(9))
	endA := feed(a, rngA, tm, 500)
	endB := feed(b, rngB, tm, 500)
	if endA != endB {
		t.Fatal("test bug: tails diverged")
	}
	for _, j := range []int{0, 2} {
		sa, _ := a.Stats(j, endA)
		sb, _ := b.Stats(j, endB)
		if sa.Events != sb.Events || sa.Windows != sb.Windows ||
			math.Float64bits(sa.SumQ) != math.Float64bits(sb.SumQ) ||
			math.Float64bits(sa.SumQ2) != math.Float64bits(sb.SumQ2) ||
			math.Float64bits(sa.MeanI) != math.Float64bits(sb.MeanI) ||
			math.Float64bits(sa.Window) != math.Float64bits(sb.Window) {
			t.Errorf("junction %d cumulants diverged after restore:\n%+v\n%+v", j, sa, sb)
		}
		for k := range sa.S {
			if math.Float64bits(sa.S[k]) != math.Float64bits(sb.S[k]) {
				t.Errorf("junction %d S[%d] diverged: %g vs %g", j, k, sa.S[k], sb.S[k])
			}
		}
	}
}

// TestRestoreStateValidation: a snapshot must only restore into a
// recorder with the identical configuration, and a failed restore must
// not mutate the target.
func TestRestoreStateValidation(t *testing.T) {
	mk := func(cfg Config) *Recorder {
		r, err := New(cfg, 4)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a := mk(Config{Juncs: []JuncConfig{{Junc: 1, Window: 1e-9}}})
	a.Add(1, 1e-10, units.E)
	st := a.State()
	if st == nil {
		t.Fatal("State() = nil on a live recorder")
	}

	b := mk(Config{Juncs: []JuncConfig{{Junc: 1, Window: 2e-9}}}) // different config
	if err := b.RestoreState(st); err == nil {
		t.Error("RestoreState accepted a snapshot from a different configuration")
	}
	if rs, _ := b.Stats(1, 1); rs.Events != 0 {
		t.Error("failed RestoreState mutated the recorder")
	}

	var nilR *Recorder
	if nilR.State() != nil {
		t.Error("nil recorder State() != nil")
	}
	if err := nilR.RestoreState(st); err == nil {
		t.Error("RestoreState into a nil recorder must fail")
	}
	c := mk(Config{Juncs: []JuncConfig{{Junc: 1, Window: 1e-9}}})
	if err := c.RestoreState(nil); err == nil {
		t.Error("RestoreState(nil) into a live recorder must fail (missing snapshot)")
	}
}

// TestNewValidation covers the config error paths.
func TestNewValidation(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"junction out of range", Config{Juncs: []JuncConfig{{Junc: 9}}}},
		{"negative junction", Config{Juncs: []JuncConfig{{Junc: -1}}}},
		{"duplicate junction", Config{Juncs: []JuncConfig{{Junc: 0}, {Junc: 0}}}},
		{"nonpositive omega", Config{Juncs: []JuncConfig{{Junc: 0, Omegas: []float64{0}}}}},
		{"negative window", Config{Juncs: []JuncConfig{{Junc: 0, Window: -1}}}},
	}
	for _, tc := range cases {
		if _, err := New(tc.cfg, 2); err == nil {
			t.Errorf("%s: New accepted invalid config", tc.name)
		}
	}
	if _, err := New(Config{}, 2); err == nil {
		t.Error("New accepted an empty config (nothing to record)")
	}
}

// TestAddZeroAlloc is the hot-path gate: recording an event — windows
// and spectral sums together — must not allocate, and
// neither must the disabled (nil recorder / unrecorded junction)
// paths.
func TestAddZeroAlloc(t *testing.T) {
	r, err := New(Config{Juncs: []JuncConfig{
		{Junc: 0, Omegas: []float64{1e8, 2e8, 3e8}, Window: 1e-9},
	}}, 2)
	if err != nil {
		t.Fatal(err)
	}
	tm := 0.0
	if allocs := testing.AllocsPerRun(1000, func() {
		tm += 1e-10
		r.Add(0, tm, -units.E)
	}); allocs != 0 {
		t.Errorf("Add: %v allocs/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		r.Add(1, tm, -units.E) // unrecorded junction
	}); allocs != 0 {
		t.Errorf("Add(unrecorded): %v allocs/op, want 0", allocs)
	}
	var nilR *Recorder
	if allocs := testing.AllocsPerRun(1000, func() {
		nilR.Add(0, tm, -units.E)
	}); allocs != 0 {
		t.Errorf("nil Add: %v allocs/op, want 0", allocs)
	}
}

// BenchmarkAdd measures the per-event recording cost with every
// estimator active; BenchmarkAddNil is the disabled baseline the
// ~1 ns nil-receiver contract refers to.
func BenchmarkAdd(b *testing.B) {
	r, err := New(Config{Juncs: []JuncConfig{
		{Junc: 0, Omegas: []float64{1e8, 2e8, 3e8}, Window: 1e-9},
	}}, 2)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	tm := 0.0
	for i := 0; i < b.N; i++ {
		tm += 1e-10
		r.Add(0, tm, -units.E)
	}
}

func BenchmarkAddNil(b *testing.B) {
	var r *Recorder
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Add(0, float64(i), -units.E)
	}
}

// TestUniformSpacingDetection pins down when the rotation fast path
// may be taken: exactly uniform grids of at least 3 frequencies.
func TestUniformSpacingDetection(t *testing.T) {
	cases := []struct {
		name   string
		omegas []float64
		want   float64
	}{
		{"linear", []float64{1e8, 2e8, 3e8, 4e8}, 1e8},
		{"linear-offset", []float64{5e7, 1.5e8, 2.5e8}, 1e8},
		{"geometric", []float64{1e8, 2e8, 4e8}, 0},
		{"two-points", []float64{1e8, 2e8}, 0},
		{"one-point", []float64{1e8}, 0},
		{"descending", []float64{3e8, 2e8, 1e8}, 0},
		{"near-uniform", []float64{1e8, 2e8, 3e8 * (1 + 1e-13)}, 0},
	}
	for _, c := range cases {
		if got := uniformSpacing(c.omegas); got != c.want {
			t.Errorf("%s: uniformSpacing = %g, want %g", c.name, got, c.want)
		}
	}
}

// TestUniformGridRotationMatchesDirect drives the uniform-grid
// rotation path and checks every Fourier sum against a directly
// evaluated reference. The recurrence is allowed O(n·ulp) drift, far
// inside 1e-9 relative for an 8-point grid; the non-uniform control
// grid must match the reference bit for bit since it runs the same
// per-omega Sincos loop.
func TestUniformGridRotationMatchesDirect(t *testing.T) {
	uniform := make([]float64, 8)
	for k := range uniform {
		uniform[k] = 2e7 + float64(k)*3e7
	}
	geometric := []float64{1e7, 3e7, 9e7, 2.7e8}
	r, err := New(Config{Juncs: []JuncConfig{
		{Junc: 0, Omegas: uniform, Window: 1e-8},
		{Junc: 1, Omegas: geometric, Window: 1e-8},
	}}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if r.acc[0].domega != 3e7 {
		t.Fatalf("uniform grid not detected: domega = %g", r.acc[0].domega)
	}
	if r.acc[1].domega != 0 {
		t.Fatalf("geometric grid misdetected as uniform: domega = %g", r.acc[1].domega)
	}

	rng := rand.New(rand.NewSource(7))
	refRe := map[int][]float64{0: make([]float64, len(uniform)), 1: make([]float64, len(geometric))}
	refIm := map[int][]float64{0: make([]float64, len(uniform)), 1: make([]float64, len(geometric))}
	grids := map[int][]float64{0: uniform, 1: geometric}
	tm := 0.0
	for i := 0; i < 2000; i++ {
		tm += rng.ExpFloat64() * 1e-9
		dq := -units.E
		if rng.Intn(4) == 0 {
			dq = units.E
		}
		j := rng.Intn(2)
		r.Add(j, tm, dq)
		for k, w := range grids[j] {
			s, c := math.Sincos(w * tm)
			refRe[j][k] += dq * c
			refIm[j][k] += dq * s
		}
	}
	for j := 0; j < 2; j++ {
		a := &r.acc[r.idx[j]]
		for k := range grids[j] {
			for _, p := range []struct{ got, want, scale float64 }{
				{a.sumRe[k], refRe[j][k], math.Abs(refRe[j][k]) + units.E},
				{a.sumIm[k], refIm[j][k], math.Abs(refIm[j][k]) + units.E},
			} {
				if math.Abs(p.got-p.want) > 1e-9*p.scale {
					t.Errorf("junc %d omega[%d]: sum = %g, reference %g", j, k, p.got, p.want)
				}
			}
		}
	}
}
