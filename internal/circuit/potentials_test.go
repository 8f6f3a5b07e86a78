package circuit

import (
	"math"
	"runtime"
	"slices"
	"testing"
	"time"

	"semsim/internal/matrix"
	"semsim/internal/units"
)

// buildChain constructs an n-island uniform tunnel-junction array
// (source - n islands - drain, each island gated) under the given build
// options — the locality-rich topology truncated rows exploit.
func buildChain(t *testing.T, n int, bo BuildOptions) (*Circuit, []int) {
	t.Helper()
	return buildGatedChain(t, n, 0.3*aF, bo)
}

// buildGatedChain is buildChain with an explicit gate capacitance: the
// smaller it is, the slower C^-1 rows decay along the chain.
func buildGatedChain(t *testing.T, n int, cg float64, bo BuildOptions) (*Circuit, []int) {
	t.Helper()
	c := New()
	src := c.AddNode("src", External)
	drn := c.AddNode("drn", External)
	gate := c.AddNode("gate", External)
	c.SetSource(src, DC(0.02))
	c.SetSource(drn, DC(-0.02))
	c.SetSource(gate, DC(0.011))
	isls := make([]int, n)
	for i := range isls {
		isls[i] = c.AddNode("", Island)
	}
	prev := src
	for i, isl := range isls {
		c.AddJunction(prev, isl, 1e6, (1+0.1*float64(i%7))*aF)
		c.AddCap(isl, gate, cg)
		prev = isl
	}
	c.AddJunction(prev, drn, 1e6, 1.2*aF)
	if err := c.BuildWith(bo); err != nil {
		t.Fatal(err)
	}
	return c, isls
}

func chainElectrons(n int) []int {
	ns := make([]int, n)
	for i := range ns {
		ns[i] = (i % 5) - 2
	}
	return ns
}

// exactPotentials is the test-local exact reference for the island
// potentials at electron counts ns and time tt: it solves
// C v = q + C_IE v_ext with the dense Cholesky factorization, never
// touching the truncated rows.
func exactPotentials(t *testing.T, c *Circuit, ns []int, tt float64) []float64 {
	t.Helper()
	n := c.NumIslands()
	m := matrix.NewSym(n)
	for i := 0; i < n; i++ {
		cols, vals := c.CSR().Row(i)
		for k, j := range cols {
			m.SetSym(i, int(j), vals[k])
		}
	}
	ch, err := matrix.Factor(m)
	if err != nil {
		t.Fatal(err)
	}
	v := c.ChargeVector(nil, ns)
	vext := c.ExternalVoltages(nil, tt)
	for i, row := range c.cie {
		for s, cap := range row {
			v[i] += cap * vext[s]
		}
	}
	ch.Solve(v)
	return v
}

// TestNativeSparseBuildMatchesDense: the truncated rows of every build,
// at the default threshold and at coarser ones, must agree with the
// exact dense solve to within the engine's own error bound.
func TestNativeSparseBuildMatchesDense(t *testing.T) {
	const n = 60
	ref, _ := buildChain(t, n, BuildOptions{})
	ns := chainElectrons(n)
	vd := exactPotentials(t, ref, ns, 0)
	for _, eps := range []float64{0, 1e-6, 1e-3} {
		cs, _ := buildChain(t, n, BuildOptions{CinvTruncation: eps})
		pe := cs.Potentials()
		vs := cs.IslandPotentials(nil, ns, 0)
		q := cs.ChargeVector(nil, ns)
		vext := cs.ExternalVoltages(nil, 0)
		qmax, vmax := 0.0, 0.0
		for _, x := range q {
			qmax = math.Max(qmax, math.Abs(x))
		}
		for _, x := range vext {
			vmax = math.Max(vmax, math.Abs(x))
		}
		bound := pe.RefreshErrorBound(qmax, vmax)
		// Allow rounding headroom on top of the truncation bound: the
		// row solves and the dense factorization round differently.
		slack := 1e-11 * math.Max(vmax, 1)
		for i := range vd {
			if d := math.Abs(vd[i] - vs[i]); d > bound+slack {
				t.Fatalf("eps=%g island %d: |exact-truncated| = %g exceeds bound %g", eps, i, d, bound)
			}
		}
		if eps >= 1e-3 && !pe.Truncated() {
			t.Fatalf("eps=%g dropped nothing on a %d-island chain", eps, n)
		}
		if pe.Truncated() && pe.NNZ() >= n*n {
			t.Fatalf("eps=%g: truncated engine stores %d entries (full %d)", eps, pe.NNZ(), n*n)
		}
		if f := pe.Fill(); f < 1 {
			t.Fatalf("eps=%g: fill ratio %g < 1", eps, f)
		}
	}
}

// TestEpsSelectsEngine: the truncation threshold alone sets the rows.
// A positive ε truncates at ε; ε = 0 builds at DefaultCinvTruncation
// whatever the deprecated SparsePotentials field says, exactly like an
// explicit 1e-14; a threshold outside [0, 1) is rejected.
func TestEpsSelectsEngine(t *testing.T) {
	c, _ := buildChain(t, 40, BuildOptions{CinvTruncation: 1e-6})
	pe := c.Potentials()
	if !pe.Sparse() || pe.Eps() != 1e-6 {
		t.Fatalf("eps=1e-6 build: sparse=%v eps=%g", pe.Sparse(), pe.Eps())
	}
	if !pe.Truncated() || pe.NNZ() >= 40*40 {
		t.Fatalf("eps=1e-6 build on a 40-island chain dropped nothing (nnz %d)", pe.NNZ())
	}
	explicit, _ := buildChain(t, 40, BuildOptions{CinvTruncation: 1e-14})
	ns := chainElectrons(40)
	want := explicit.IslandPotentials(nil, ns, 0)
	for _, bo := range []BuildOptions{{}, {SparsePotentials: true}} {
		c, _ := buildChain(t, 40, bo)
		pe := c.Potentials()
		if pe.Eps() != DefaultCinvTruncation || pe.NNZ() != explicit.Potentials().NNZ() {
			t.Fatalf("%+v: eps=%g nnz=%d, want the eps=1e-14 rows (nnz %d)",
				bo, pe.Eps(), pe.NNZ(), explicit.Potentials().NNZ())
		}
		for i, v := range c.IslandPotentials(nil, ns, 0) {
			if math.Float64bits(v) != math.Float64bits(want[i]) {
				t.Fatalf("%+v: island %d potential %v, eps=1e-14 build %v", bo, i, v, want[i])
			}
		}
	}
	for _, eps := range []float64{-1e-9, 1, 2, math.Inf(1), math.NaN()} {
		c := New()
		g := c.AddNode("g", External)
		c.SetSource(g, DC(0))
		c.AddJunction(g, c.AddNode("i", Island), 1e6, aF)
		if err := c.BuildWith(BuildOptions{CinvTruncation: eps}); err == nil {
			t.Errorf("BuildWith accepted truncation threshold %g", eps)
		}
	}
}

// TestPotentialShiftZeroAlloc: the per-event hot paths must not
// allocate, including the recording walk the adaptive test reads.
func TestPotentialShiftZeroAlloc(t *testing.T) {
	for _, eps := range []float64{0, 1e-6} {
		c, isls := buildChain(t, 64, BuildOptions{CinvTruncation: eps})
		pe := c.Potentials()
		ni := c.NumIslands()
		ns := chainElectrons(ni)
		v := c.IslandPotentials(nil, ns, 0)
		q := c.ChargeVector(nil, ns)
		vext := c.ExternalVoltages(nil, 0)
		dv := make([]float64, ni)
		rec := NewShiftRecord(ni)
		sink := 0.0
		allocs := testing.AllocsPerRun(100, func() {
			pe.Shift(v, isls[3], isls[4], units.E, nil)
			pe.Shift(v, isls[4], isls[3], units.E, rec)
			sink += rec.At(2) + rec.At(-1)
			sink += pe.PotentialShift(2, isls[3], isls[4], units.E)
			sink += pe.DeltaW(isls[3], isls[4], units.E, v[3], v[4])
			pe.Solve(dv, q, vext)
			pe.ExternalDelta(dv, vext, vext)
		})
		if allocs != 0 {
			t.Errorf("eps=%g: hot path allocates %.1f/op", pe.Eps(), allocs)
		}
		_ = sink
	}
}

// TestShiftRecordsAppliedShift: Shift into a zero vector leaves exactly
// the per-island shift it recorded, bit for bit, and an island outside
// both rows reads 0 — so the adaptive test's b(i) accumulates the shift
// each island received, not a C^-1 column that truncation made
// asymmetric. A second recorded Shift forgets the first.
func TestShiftRecordsAppliedShift(t *testing.T) {
	const n = 60
	for _, eps := range []float64{1e-14, 1e-3} {
		c, isls := buildChain(t, n, BuildOptions{CinvTruncation: eps})
		pe := c.Potentials()
		rec := NewShiftRecord(n)
		events := [][2]int{
			{isls[10], isls[11]},
			{isls[40], c.Externals()[1]}, // island -> drain
			{c.Externals()[0], isls[0]},  // source -> island
		}
		for _, ev := range events {
			v := make([]float64, n)
			pe.Shift(v, ev[0], ev[1], units.E, rec)
			touched := 0
			for k := range v {
				if got := rec.At(int32(k)); math.Float64bits(got) != math.Float64bits(v[k]) {
					t.Fatalf("eps=%g event %v island %d: recorded %v, applied %v", eps, ev, k, got, v[k])
				}
				if v[k] != 0 {
					touched++
				}
			}
			if eps == 1e-3 && touched == n {
				t.Fatalf("eps=%g event %v: every island moved; the test lost its untouched islands", eps, ev)
			}
			if rec.At(-1) != 0 {
				t.Fatal("an external node read a nonzero shift")
			}
		}
	}
}

// TestBuildAllocatesRowsOnce: a build at the default threshold
// allocates at most 3x the bytes of the rows it stores plus O(n)
// scratch. Rows grown by appending into the stored arrays would
// allocate several times their final size on a chain whose rows decay
// slowly.
func TestBuildAllocatesRowsOnce(t *testing.T) {
	const n = 1500
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c, _ := buildGatedChain(t, n, 0.01*aF, BuildOptions{})
	runtime.ReadMemStats(&after)
	pe := c.Potentials()
	stored := 12*(len(pe.rowVal)+len(pe.mVal)) + 8*(len(pe.rowPtr)+len(pe.mPtr))
	const scratchPerIsland = 1024
	alloc := int(after.TotalAlloc - before.TotalAlloc)
	t.Logf("%d islands: %d stored C^-1 entries, %.2f MB stored, %.2f MB allocated", n, pe.NNZ(), float64(stored)/1e6, float64(alloc)/1e6)
	if limit := 3*stored + scratchPerIsland*n; alloc > limit {
		t.Fatalf("build allocated %d bytes for %d stored row bytes (limit %d)", alloc, stored, limit)
	}
}

// TestBuildSameAtAnyWorkerCount: a chain large enough for four build
// workers stores the same rows and drop bounds, bit for bit, whether it
// is built at GOMAXPROCS 1 (on the calling goroutine) or 4, and every
// worker has exited once BuildWith returns.
func TestBuildSameAtAnyWorkerCount(t *testing.T) {
	const n = 2048 // n/islandsPerWorker = 8 workers allowed
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	bits := func(xs ...float64) []uint64 {
		out := make([]uint64, len(xs))
		for i, x := range xs {
			out[i] = math.Float64bits(x)
		}
		return out
	}
	for _, eps := range []float64{0, 1e-6} {
		var ref *Potentials
		for _, procs := range []int{1, 4} {
			runtime.GOMAXPROCS(procs)
			before := runtime.NumGoroutine()
			c, _ := buildGatedChain(t, n, 0.3*aF, BuildOptions{CinvTruncation: eps})
			// A worker that has signalled the join may not have returned
			// yet; one that never returns keeps the count up past the
			// deadline.
			for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > before && time.Now().Before(deadline); {
				runtime.Gosched()
			}
			if after := runtime.NumGoroutine(); after > before {
				t.Fatalf("eps=%g GOMAXPROCS=%d: %d goroutines before BuildWith, %d after", eps, procs, before, after)
			}
			pe := c.Potentials()
			if ref == nil {
				ref = pe
				continue
			}
			same := slices.Equal(pe.rowPtr, ref.rowPtr) && slices.Equal(pe.rowCol, ref.rowCol) &&
				slices.Equal(bits(pe.rowVal...), bits(ref.rowVal...)) &&
				slices.Equal(pe.mPtr, ref.mPtr) && slices.Equal(pe.mCol, ref.mCol) &&
				slices.Equal(bits(pe.mVal...), bits(ref.mVal...)) &&
				slices.Equal(bits(pe.dropL1, pe.dropInf, pe.mextDropL1), bits(ref.dropL1, ref.dropInf, ref.mextDropL1))
			if !same {
				t.Fatalf("eps=%g: the GOMAXPROCS=%d build differs from the GOMAXPROCS=1 build", eps, procs)
			}
		}
	}
}
