package numeric

import (
	"math"
	"testing"
	"testing/quick"
)

func TestIntegratePolynomial(t *testing.T) {
	// Simpson is exact for cubics; the adaptive wrapper should nail x^3.
	got := Integrate(func(x float64) float64 { return x * x * x }, 0, 2, 1e-12)
	if math.Abs(got-4) > 1e-10 {
		t.Fatalf("int x^3 over [0,2] = %g, want 4", got)
	}
}

func TestIntegrateTranscendental(t *testing.T) {
	got := Integrate(math.Sin, 0, math.Pi, 1e-10)
	if math.Abs(got-2) > 1e-8 {
		t.Fatalf("int sin over [0,pi] = %g, want 2", got)
	}
	got = Integrate(func(x float64) float64 { return math.Exp(-x * x) }, -6, 6, 1e-12)
	if math.Abs(got-math.Sqrt(math.Pi)) > 1e-8 {
		t.Fatalf("gaussian integral = %g, want sqrt(pi)", got)
	}
}

func TestIntegrateReversedLimits(t *testing.T) {
	a := Integrate(math.Cos, 0, 1, 1e-10)
	b := Integrate(math.Cos, 1, 0, 1e-10)
	if math.Abs(a+b) > 1e-12 {
		t.Fatalf("reversed limits not antisymmetric: %g vs %g", a, b)
	}
}

func TestEdgeSingularIntegral(t *testing.T) {
	// int_0^1 1/sqrt(x) dx = 2
	f := func(x float64) float64 { return 1 / math.Sqrt(x) }
	got := IntegrateEdgeSingular(f, 0, 1, true, 1e-10)
	if math.Abs(got-2) > 1e-8 {
		t.Fatalf("1/sqrt(x): got %g want 2", got)
	}
	// int_0^1 1/sqrt(1-x) dx = 2
	g := func(x float64) float64 { return 1 / math.Sqrt(1-x) }
	got = IntegrateEdgeSingular(g, 0, 1, false, 1e-10)
	if math.Abs(got-2) > 1e-8 {
		t.Fatalf("1/sqrt(1-x): got %g want 2", got)
	}
}

func TestBothEdgesSingular(t *testing.T) {
	// int_-1^1 1/sqrt(1-x^2) dx = pi — the BCS-like case.
	f := func(x float64) float64 { return 1 / math.Sqrt(1-x*x) }
	got := IntegrateBothEdgesSingular(f, -1, 1, 1e-10)
	if math.Abs(got-math.Pi) > 1e-7 {
		t.Fatalf("arcsine integral: got %g want pi", got)
	}
}

func TestBCSLikeEdge(t *testing.T) {
	// int_1^2 x/sqrt(x^2-1) dx = sqrt(3): exactly the DOS shape at a gap edge.
	f := func(x float64) float64 { return x / math.Sqrt(x*x-1) }
	got := IntegrateEdgeSingular(f, 1, 2, true, 1e-10)
	if math.Abs(got-math.Sqrt(3)) > 1e-8 {
		t.Fatalf("gap-edge integral: got %g want sqrt(3)=%g", got, math.Sqrt(3))
	}
}

func TestFermiLimits(t *testing.T) {
	kT := 1.0
	if f := Fermi(0, kT); math.Abs(f-0.5) > 1e-15 {
		t.Fatalf("Fermi(0) = %g, want 0.5", f)
	}
	if f := Fermi(1000, kT); f != 0 {
		t.Fatalf("Fermi(+inf) = %g, want 0", f)
	}
	if f := Fermi(-1000, kT); f != 1 {
		t.Fatalf("Fermi(-inf) = %g, want 1", f)
	}
	// T = 0 step function.
	if Fermi(-1, 0) != 1 || Fermi(1, 0) != 0 || Fermi(0, 0) != 0.5 {
		t.Fatal("zero-temperature Fermi limit wrong")
	}
}

func TestFermiSymmetry(t *testing.T) {
	// f(e) + f(-e) = 1 (particle-hole symmetry).
	f := func(e float64) bool {
		e = math.Mod(e, 50)
		s := Fermi(e, 1.3) + Fermi(-e, 1.3)
		return math.Abs(s-1) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestXOverExpm1(t *testing.T) {
	cases := []struct{ x, want float64 }{
		{0, 1},
		{1e-12, 1},
		{-1e-12, 1},
		{1, 1 / (math.E - 1)},
		{-800, 800},
		{800, 0},
	}
	for _, c := range cases {
		got := XOverExpm1(c.x)
		if math.Abs(got-c.want) > 1e-9*(1+math.Abs(c.want)) {
			t.Fatalf("XOverExpm1(%g) = %g, want %g", c.x, got, c.want)
		}
	}
}

func TestXOverExpm1Continuity(t *testing.T) {
	// Across the series/exact switch at |x|=1e-8 the value must be smooth.
	for _, x := range []float64{0.99e-8, 1.01e-8} {
		want := 1 - x/2 // series value; exact to O(x^2) ~ 1e-17 here
		if math.Abs(XOverExpm1(x)-want) > 1e-12 {
			t.Fatalf("XOverExpm1(%g) = %.15g, want %.15g", x, XOverExpm1(x), want)
		}
	}
}

func TestBrentRoots(t *testing.T) {
	got := Brent(func(x float64) float64 { return x*x - 2 }, 0, 2, 1e-14)
	if math.Abs(got-math.Sqrt2) > 1e-10 {
		t.Fatalf("sqrt(2) root: got %g", got)
	}
	got = Brent(math.Cos, 1, 2, 1e-14)
	if math.Abs(got-math.Pi/2) > 1e-10 {
		t.Fatalf("cos root: got %g want pi/2", got)
	}
}

func TestBrentPanicsWithoutBracket(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Brent without sign change did not panic")
		}
	}()
	Brent(func(x float64) float64 { return 1 + x*x }, -1, 1, 1e-12)
}

func TestTableReproducesKnots(t *testing.T) {
	xs := []float64{0, 1, 2, 3, 5}
	ys := []float64{1, 2, 0, -1, 4}
	tab, err := NewTable(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	for i := range xs {
		if got := tab.Eval(xs[i]); math.Abs(got-ys[i]) > 1e-12 {
			t.Fatalf("knot %d: got %g want %g", i, got, ys[i])
		}
	}
}

func TestTableMonotonePreserving(t *testing.T) {
	// PCHIP must not overshoot on monotone data.
	xs := Linspace(0, 10, 11)
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = math.Tanh(x - 5)
	}
	tab, err := NewTable(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	prev := math.Inf(-1)
	for _, x := range Linspace(0, 10, 1001) {
		v := tab.Eval(x)
		if v < prev-1e-12 {
			t.Fatalf("interpolant not monotone at x=%g: %g < %g", x, v, prev)
		}
		prev = v
	}
}

func TestTableAccuracy(t *testing.T) {
	// PCHIP drops to second order near extrema (its derivative limiter
	// clamps to zero there), so the tolerance reflects O(h^2) at x=0.
	xs := Linspace(-3, 3, 241)
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = math.Exp(-x * x)
	}
	tab, err := NewTable(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range Linspace(-3, 3, 500) {
		want := math.Exp(-x * x)
		if math.Abs(tab.Eval(x)-want) > 2e-4 {
			t.Fatalf("interp error at %g: got %g want %g", x, tab.Eval(x), want)
		}
	}
}

func TestTableErrors(t *testing.T) {
	if _, err := NewTable([]float64{1}, []float64{1}); err == nil {
		t.Fatal("single-point table accepted")
	}
	if _, err := NewTable([]float64{1, 1}, []float64{1, 2}); err == nil {
		t.Fatal("non-increasing x accepted")
	}
	if _, err := NewTable([]float64{1, 2}, []float64{1}); err == nil {
		t.Fatal("mismatched lengths accepted")
	}
}

func TestTableTwoPoints(t *testing.T) {
	tab, err := NewTable([]float64{0, 1}, []float64{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := tab.Eval(0.5); math.Abs(got-1) > 1e-12 {
		t.Fatalf("two-point table should be linear: got %g", got)
	}
	// Linear extrapolation beyond the edges.
	if got := tab.Eval(2); math.Abs(got-4) > 1e-12 {
		t.Fatalf("extrapolation: got %g want 4", got)
	}
}

func TestLinspace(t *testing.T) {
	xs := Linspace(0, 1, 5)
	want := []float64{0, 0.25, 0.5, 0.75, 1}
	for i := range want {
		if math.Abs(xs[i]-want[i]) > 1e-15 {
			t.Fatalf("Linspace[%d] = %g want %g", i, xs[i], want[i])
		}
	}
}

func BenchmarkTableEval(b *testing.B) {
	xs := Linspace(-1, 1, 400)
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = math.Sin(3 * x)
	}
	tab, _ := NewTable(xs, ys)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tab.Eval(float64(i%1000)/500 - 1)
	}
}
