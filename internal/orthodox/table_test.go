package orthodox

import (
	"math"
	"testing"

	"semsim/internal/numeric"
	"semsim/internal/rng"
	"semsim/internal/units"
)

// tableRate is the tabulated rate as the solver forms it: the exact
// prefactor kT/(e^2 R) times the shared kernel at dW * (1/kT).
func tableRate(k *numeric.FlatKernel, dw, r, t float64) float64 {
	kT := units.KB * t
	return kT / (units.E * units.E * r) * k.Eval(dw*(1/kT))
}

// TestKernelAccuracy asserts the solver's documented bound: tabulated
// rates within 1e-6 relative error of exact evaluation, across the
// physical temperature range and both inside and outside the tabulated
// band of x = dW/kT. The lower tail evaluates the ohmic asymptote -x
// (error ~e^-60, far under the bound); the upper tail truncates to
// zero, so there the test asserts the exact rate it discards is below
// the truncation floor e^-KernelXMax of the thermal scale kT/(e^2 R).
func TestKernelAccuracy(t *testing.T) {
	k := SharedKernel()
	if k == nil {
		t.Fatal("shared kernel failed to build")
	}
	if k.MaxRelError() > KernelRelTol {
		t.Fatalf("kernel reports error bound %g, want <= %g", k.MaxRelError(), KernelRelTol)
	}
	r := rng.New(4)
	temps := []float64{0.05, 2, 77, 300}
	const resistance = 1e6
	for _, temp := range temps {
		kT := units.KB * temp
		for i := 0; i < 5000; i++ {
			x := (r.Float64()*2 - 1) * 80 // spans the band edge at +-60
			dw := x * kT
			exact := Rate(dw, resistance, temp)
			got := tableRate(k, dw, resistance, temp)
			if x > KernelXMax {
				thermal := kT / (units.E * units.E * resistance)
				if got != 0 {
					t.Fatalf("T=%g x=%g: truncated tail must give 0, got %g", temp, x, got)
				}
				if floor := thermal * (x + 1) * math.Exp(-KernelXMax); exact > floor {
					t.Fatalf("T=%g x=%g: exact rate %g above truncation floor %g", temp, x, exact, floor)
				}
				continue
			}
			if exact == 0 {
				if got != 0 {
					t.Fatalf("T=%g x=%g: exact 0 but table %g", temp, x, got)
				}
				continue
			}
			if rel := math.Abs(got-exact) / math.Abs(exact); rel > 1e-6 {
				t.Fatalf("T=%g x=%g: table %g vs exact %g, rel err %g > 1e-6", temp, x, got, exact, rel)
			}
		}
	}
}

var sinkRate float64

// The pair below is the tentpole's table-vs-exp microbenchmark: the same
// spread of dW values through the exact exp-based rate and the shared
// kernel.
func benchmarkRate(b *testing.B, f func(dw float64) float64) {
	const temp = 2.0
	kT := units.KB * temp
	dws := make([]float64, 1024)
	r := rng.New(8)
	for i := range dws {
		dws[i] = (r.Float64()*2 - 1) * 40 * kT
	}
	b.ResetTimer()
	acc := 0.0
	for i := 0; i < b.N; i++ {
		acc += f(dws[i&1023])
	}
	sinkRate = acc
}

func BenchmarkOrthodoxRateExact(b *testing.B) {
	benchmarkRate(b, func(dw float64) float64 { return Rate(dw, 1e6, 2.0) })
}

func BenchmarkOrthodoxRateTable(b *testing.B) {
	k := SharedKernel()
	if k == nil {
		b.Fatal("shared kernel failed to build")
	}
	benchmarkRate(b, func(dw float64) float64 { return tableRate(k, dw, 1e6, 2.0) })
}
