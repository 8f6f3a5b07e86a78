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

// TestNativeSparseBuildMatchesDense: a circuit built natively sparse
// (no dense inverse ever formed) must agree with the dense build to
// solver accuracy, and its potential error must respect the bound.
func TestNativeSparseBuildMatchesDense(t *testing.T) {
	const n = 60
	cd, _ := buildChain(t, n, BuildOptions{})
	for _, eps := range []float64{1e-14, 1e-6, 1e-3} {
		cs, _ := buildChain(t, n, BuildOptions{CinvTruncation: eps})
		if cs.cinv != nil {
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

// TestEpsSelectsEngine: the truncation threshold alone picks the
// engine. A positive ε builds truncated CSR rows without forming the
// dense inverse; ε = 0 builds the dense engine whatever the deprecated
// SparsePotentials field says.
func TestEpsSelectsEngine(t *testing.T) {
	c, _ := buildChain(t, 40, BuildOptions{CinvTruncation: 1e-6})
	pe := c.Potentials()
	if !pe.Sparse() || pe.Eps() != 1e-6 || c.cinv != nil || c.mext != nil {
		t.Fatalf("eps=1e-6 build: sparse=%v eps=%g dense inverse formed=%v",
			pe.Sparse(), pe.Eps(), c.cinv != nil)
	}
	if !pe.Truncated() || pe.NNZ() >= 40*40 {
		t.Fatalf("eps=1e-6 build on a 40-island chain dropped nothing (nnz %d)", pe.NNZ())
	}
	for _, bo := range []BuildOptions{{}, {SparsePotentials: true}} {
		c, _ := buildChain(t, 40, bo)
		pe := c.Potentials()
		if pe.Sparse() || pe.Eps() != 0 || pe.Truncated() || c.cinv == nil || pe.NNZ() != 40*40 {
			t.Fatalf("%+v: sparse=%v eps=%g truncated=%v nnz=%d, want the dense engine",
				bo, pe.Sparse(), pe.Eps(), pe.Truncated(), pe.NNZ())
		}
	}
}

// TestPotentialShiftZeroAlloc: the per-event hot paths of both engines
// must not allocate.
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
			pe.Solve(dv, q, vext)
			pe.ExternalDelta(dv, vext, vext)
		})
		if allocs != 0 {
			t.Errorf("%s engine hot path allocates %.1f/op", name, allocs)
		}
		_ = sink
	}
}
