package numeric

import (
	"math"
	"testing"
)

func TestTabulateGridDedupes(t *testing.T) {
	calls := 0
	tab, err := TabulateGrid([]float64{0, 1, 1, 1 + 1e-12, 2, 0.5}, 1e-6, func(x float64) float64 {
		calls++
		return x * x
	})
	if err != nil {
		t.Fatal(err)
	}
	// 0, 0.5, 1, 2 survive; the duplicate and the 1e-12 neighbour do not.
	if calls != 4 {
		t.Fatalf("evaluated %d knots, want 4", calls)
	}
	if got := tab.Eval(2); got != 4 {
		t.Fatalf("Eval(2) = %g, want 4", got)
	}
}

func TestFlatKernelMeetsTolerance(t *testing.T) {
	k, err := NewFlatKernel(XOverExpm1, -60, 60, 1e-7)
	if err != nil {
		t.Fatal(err)
	}
	if k.MaxRelError() > 1e-7 {
		t.Fatalf("measured error bound %g > requested 1e-7", k.MaxRelError())
	}
	// Spot-check at points off the refinement's own sampling lattice.
	for _, x := range []float64{-59.9, -17.3, -0.001, 0.37, 5.551, 41.07} {
		exact := XOverExpm1(x)
		got := k.Eval(x)
		if rel := math.Abs(got-exact) / math.Abs(exact); rel > 1e-6 {
			t.Fatalf("x=%g: flat kernel %g vs exact %g, rel %g", x, got, exact, rel)
		}
	}
}

func TestFlatKernelExactOutsideRange(t *testing.T) {
	k, err := NewFlatKernel(XOverExpm1, -60, 60, 1e-7)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{-1e3, -60.0001, 60.0001, 700} {
		if got, want := k.Eval(x), XOverExpm1(x); got != want {
			t.Fatalf("x=%g outside band: Eval %g != exact %g", x, got, want)
		}
	}
	// NaN fails the band test and flows to the exact function.
	if got := k.Eval(math.NaN()); !math.IsNaN(got) {
		t.Fatalf("Eval(NaN) = %g, want NaN", got)
	}
	lo, hi := k.Range()
	if lo != -60 || hi != 60 {
		t.Fatalf("Range() = [%g, %g], want [-60, 60]", lo, hi)
	}
	if k.Panels() < 2 {
		t.Fatalf("Panels() = %d, want a refined grid", k.Panels())
	}
}

func TestFlatKernelWithTails(t *testing.T) {
	k, err := NewFlatKernel(XOverExpm1, -60, 60, 1e-7)
	if err != nil {
		t.Fatal(err)
	}
	// Ohmic asymptote below the band, truncation to zero above it — the
	// same tails the orthodox kernel installs.
	if got := k.WithTails([4]float64{0, -1, 0, 0}, [4]float64{}); got != k {
		t.Fatal("WithTails must return its receiver for chaining")
	}
	for _, x := range []float64{-1e3, -80, -60.0001} {
		if got := k.Eval(x); got != -x {
			t.Fatalf("x=%g below band: Eval %g != ohmic tail %g", x, got, -x)
		}
	}
	for _, x := range []float64{60, 60.0001, 80, 700} {
		if got := k.Eval(x); got != 0 {
			t.Fatalf("x=%g above band: Eval %g != truncated 0", x, got)
		}
	}
	// In-band evaluation is untouched by tail installation.
	if got, want := k.Eval(1.5), XOverExpm1(1.5); math.Abs(got-want) > 1e-6*want {
		t.Fatalf("in-band Eval %g deviates from %g after WithTails", got, want)
	}
	// NaN still flows to the exact function.
	if got := k.Eval(math.NaN()); !math.IsNaN(got) {
		t.Fatalf("Eval(NaN) = %g, want NaN", got)
	}
}

func TestFlatKernelEvalPairMatchesEval(t *testing.T) {
	k, err := NewFlatKernel(XOverExpm1, -60, 60, 1e-7)
	if err != nil {
		t.Fatal(err)
	}
	k.WithTails([4]float64{0, -1, 0, 0}, [4]float64{})
	xs := []float64{-700, -80, -60.0001, -60, -12.3, 0, 1e-9, 37.7, 59.9999, 60, 80, 700}
	for _, x1 := range xs {
		for _, x2 := range xs {
			y1, y2 := k.EvalPair(x1, x2)
			if w1, w2 := k.Eval(x1), k.Eval(x2); y1 != w1 || y2 != w2 {
				t.Fatalf("EvalPair(%g, %g) = (%g, %g), want (%g, %g)", x1, x2, y1, y2, w1, w2)
			}
		}
	}
	// The exact-function fallback (NaN) flows through EvalPair too.
	y1, y2 := k.EvalPair(math.NaN(), 1.0)
	if !math.IsNaN(y1) || y2 != k.Eval(1.0) {
		t.Fatalf("EvalPair(NaN, 1) = (%g, %g), want (NaN, %g)", y1, y2, k.Eval(1.0))
	}
}

func TestFlatKernelContinuousAtPanelBoundaries(t *testing.T) {
	k, err := NewFlatKernel(XOverExpm1, -60, 60, 1e-7)
	if err != nil {
		t.Fatal(err)
	}
	// Evaluating just left and just right of an interior knot must agree
	// to interpolation accuracy: the Hermite-to-Horner conversion keeps
	// C^1 continuity up to rounding.
	n := k.Panels()
	h := 120.0 / float64(n)
	for _, i := range []int{1, n / 3, n / 2, n - 1} {
		knot := -60 + float64(i)*h
		l, r := k.Eval(math.Nextafter(knot, -100)), k.Eval(math.Nextafter(knot, 100))
		scale := math.Abs(l) + math.Abs(r) + 1e-300
		if math.Abs(l-r)/scale > 1e-9 {
			t.Fatalf("discontinuity at knot %g: left %g right %g", knot, l, r)
		}
	}
}

func TestFlatKernelRejectsEmptyRange(t *testing.T) {
	if _, err := NewFlatKernel(XOverExpm1, 1, 1, 1e-7); err == nil {
		t.Fatal("expected error for hi == lo")
	}
}

func BenchmarkFlatKernelEval(b *testing.B) {
	k, err := NewFlatKernel(XOverExpm1, -60, 60, 1e-7)
	if err != nil {
		b.Fatal(err)
	}
	x, sink := -59.0, 0.0
	for i := 0; i < b.N; i++ {
		sink += k.Eval(x)
		x += 0.1
		if x > 59 {
			x = -59
		}
	}
	_ = sink
}
