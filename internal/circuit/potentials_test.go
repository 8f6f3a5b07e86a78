package circuit

import (
	"math"
	"testing"

	"semsim/internal/units"
)

// buildChain constructs an n-island uniform tunnel-junction array
// (source - n islands - drain, each island gated) under the given build
// options — the locality-rich topology the sparse engine targets.
func buildChain(t *testing.T, n int, bo BuildOptions) (*Circuit, []int) {
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
		c.AddCap(isl, gate, 0.3*aF)
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

// TestSparseExactBitIdentical: the ε=0 sparse engine must reproduce the
// dense engine bit for bit on every operation the solver uses.
func TestSparseExactBitIdentical(t *testing.T) {
	c, isls := buildChain(t, 40, BuildOptions{})
	dense := c.Potentials()
	sp, err := c.PotentialEngine(true, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !sp.Sparse() || sp.Truncated() {
		t.Fatalf("exact sparse engine: sparse=%v truncated=%v", sp.Sparse(), sp.Truncated())
	}
	ni := c.NumIslands()
	ns := chainElectrons(ni)
	q := c.ChargeVector(nil, ns)
	vext := c.ExternalVoltages(nil, 0)

	vd := make([]float64, ni)
	vs := make([]float64, ni)
	dense.SolveRange(vd, q, vext, 0, ni)
	sp.SolveRange(vs, q, vext, 0, ni)
	for i := range vd {
		if vd[i] != vs[i] {
			t.Fatalf("SolveRange[%d]: dense %v sparse %v", i, vd[i], vs[i])
		}
	}
	// Per-event shifts, both endpoints islands and one endpoint external.
	for _, pair := range [][2]int{{isls[3], isls[4]}, {0, isls[0]}, {isls[ni-1], 1}} {
		vd2 := append([]float64(nil), vd...)
		vs2 := append([]float64(nil), vs...)
		dense.Shift(vd2, pair[0], pair[1], units.E)
		sp.Shift(vs2, pair[0], pair[1], units.E)
		for i := range vd2 {
			if vd2[i] != vs2[i] {
				t.Fatalf("Shift %v [%d]: dense %v sparse %v", pair, i, vd2[i], vs2[i])
			}
		}
		if dw1, dw2 := dense.DeltaWElectron(pair[0], pair[1], 0.001, -0.002), sp.DeltaWElectron(pair[0], pair[1], 0.001, -0.002); dw1 != dw2 {
			t.Fatalf("DeltaW %v: dense %v sparse %v", pair, dw1, dw2)
		}
		for k := 0; k < ni; k += 7 {
			if s1, s2 := dense.PotentialShift(k, pair[0], pair[1], units.E), sp.PotentialShift(k, pair[0], pair[1], units.E); s1 != s2 {
				t.Fatalf("PotentialShift %v k=%d: dense %v sparse %v", pair, k, s1, s2)
			}
		}
	}
	// Input-change deltas.
	vext1 := append([]float64(nil), vext...)
	vext1[2] += 0.004
	dd := make([]float64, ni)
	ds := make([]float64, ni)
	dense.ExternalDelta(dd, vext, vext1)
	sp.ExternalDelta(ds, vext, vext1)
	for i := range dd {
		if dd[i] != ds[i] {
			t.Fatalf("ExternalDelta[%d]: dense %v sparse %v", i, dd[i], ds[i])
		}
	}
}

// TestNativeSparseBuildMatchesDense: a circuit built natively sparse
// (no dense inverse ever formed) must agree with the dense build to
// solver accuracy, and its potential error must respect the bound.
func TestNativeSparseBuildMatchesDense(t *testing.T) {
	const n = 60
	cd, _ := buildChain(t, n, BuildOptions{})
	for _, eps := range []float64{1e-14, 1e-6, 1e-3} {
		cs, _ := buildChain(t, n, BuildOptions{SparsePotentials: true, CinvTruncation: eps})
		if _, err := cs.PotentialEngine(false, 0); err == nil {
			t.Fatal("native sparse build formed the dense inverse")
		}
		pe := cs.Potentials()
		ns := chainElectrons(n)
		vd := cd.IslandPotentials(nil, ns, 0)
		vs := cs.IslandPotentials(nil, ns, 0)
		q := cd.ChargeVector(nil, ns)
		vext := cd.ExternalVoltages(nil, 0)
		qmax, vmax := 0.0, 0.0
		for _, x := range q {
			qmax = math.Max(qmax, math.Abs(x))
		}
		for _, x := range vext {
			vmax = math.Max(vmax, math.Abs(x))
		}
		bound := pe.RefreshErrorBound(qmax, vmax)
		// Allow rounding headroom on top of the truncation bound: the
		// sparse solve and the dense inverse round differently.
		slack := 1e-11 * math.Max(vmax, 1)
		for i := range vd {
			if d := math.Abs(vd[i] - vs[i]); d > bound+slack {
				t.Fatalf("eps=%g island %d: |dense-sparse| = %g exceeds bound %g", eps, i, d, bound)
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

// TestPotentialEngineRules pins the derivation rules: caching, implied
// sparse, and the errors for unavailable backends.
func TestPotentialEngineRules(t *testing.T) {
	c, _ := buildChain(t, 10, BuildOptions{})
	if e, err := c.PotentialEngine(false, 0); err != nil || e != c.Potentials() {
		t.Fatalf("dense request: engine %p err %v, want built %p", e, err, c.Potentials())
	}
	e1, err := c.PotentialEngine(true, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := c.PotentialEngine(false, 1e-6) // eps > 0 implies sparse
	if err != nil || e2 != e1 {
		t.Fatalf("derived engines not cached: %p vs %p (err %v)", e1, e2, err)
	}

	cs, _ := buildChain(t, 10, BuildOptions{SparsePotentials: true, CinvTruncation: 1e-6})
	if _, err := cs.PotentialEngine(false, 0); err == nil {
		t.Fatal("dense engine served from a truncated build")
	}
	if _, err := cs.PotentialEngine(true, 1e-9); err == nil {
		t.Fatal("finer truncation served from a coarser build")
	}
	if e, err := cs.PotentialEngine(true, 1e-6); err != nil || e != cs.Potentials() {
		t.Fatalf("built config not served as built engine: %v", err)
	}
	coarse, err := cs.PotentialEngine(true, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if coarse.NNZ() > cs.Potentials().NNZ() {
		t.Fatal("re-truncation grew the row storage")
	}

	// Sparse-exact built circuit keeps dense data: both views available.
	ce, _ := buildChain(t, 10, BuildOptions{SparsePotentials: true})
	if !ce.Potentials().Sparse() {
		t.Fatal("sparse build produced a dense engine")
	}
	dv, err := ce.PotentialEngine(false, 0)
	if err != nil || dv.Sparse() {
		t.Fatalf("dense view on sparse-exact build: %v", err)
	}
}

// TestRowShards: boundaries must be monotone, span all rows, and
// balance stored nonzeros to within a row's worth of slack.
func TestRowShards(t *testing.T) {
	c, _ := buildChain(t, 200, BuildOptions{SparsePotentials: true, CinvTruncation: 1e-4})
	pe := c.Potentials()
	for _, parts := range []int{2, 3, 8} {
		b := pe.RowShards(parts)
		if len(b) != parts+1 || b[0] != 0 || b[parts] != c.NumIslands() {
			t.Fatalf("parts=%d: bad bounds %v", parts, b)
		}
		for w := 1; w <= parts; w++ {
			if b[w] < b[w-1] {
				t.Fatalf("parts=%d: non-monotone bounds %v", parts, b)
			}
		}
	}
	if pe.RowShards(1) != nil {
		t.Fatal("single shard should return nil")
	}
	if c.Potentials().RowShards(0) != nil {
		t.Fatal("parts=0 should return nil")
	}
	d, _ := buildChain(t, 20, BuildOptions{})
	if d.Potentials().RowShards(4) != nil {
		t.Fatal("dense engine should not shard by nnz")
	}
}

// TestPotentialShiftZeroAlloc: the per-event hot paths of both engines
// must not allocate.
func TestPotentialShiftZeroAlloc(t *testing.T) {
	c, isls := buildChain(t, 64, BuildOptions{})
	sp, err := c.PotentialEngine(true, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	ni := c.NumIslands()
	ns := chainElectrons(ni)
	v := c.IslandPotentials(nil, ns, 0)
	q := c.ChargeVector(nil, ns)
	vext := c.ExternalVoltages(nil, 0)
	dv := make([]float64, ni)
	for _, pe := range []*Potentials{c.Potentials(), sp} {
		name := "dense"
		if pe.Sparse() {
			name = "sparse"
		}
		sink := 0.0
		allocs := testing.AllocsPerRun(100, func() {
			pe.Shift(v, isls[3], isls[4], units.E)
			pe.Shift(v, isls[4], isls[3], units.E)
			sink += pe.PotentialShift(2, isls[3], isls[4], units.E)
			sink += pe.DeltaWElectron(isls[3], isls[4], v[3], v[4])
			pe.SolveRange(dv, q, vext, 0, ni)
			pe.ExternalDelta(dv, vext, vext)
		})
		if allocs != 0 {
			t.Errorf("%s engine hot path allocates %.1f/op", name, allocs)
		}
		_ = sink
	}
}
