package cotunnel

import (
	"math"
	"testing"

	"semsim/internal/numeric"
	"semsim/internal/rng"
	"semsim/internal/units"
)

// tableRate is the tabulated rate as the solver forms it: Rate's exact
// prefactor pref*(1/E1 + 1/E2)^2 times kT^3 and the shared kernel at
// dW/kT, for channels whose intermediate states both cost energy.
func tableRate(k *numeric.FlatKernel, dw, e1, e2, r1, r2, t float64) float64 {
	pref := units.Hbar / (12 * math.Pi * units.E * units.E * units.E * units.E * r1 * r2)
	den := 1/e1 + 1/e2
	pref *= den * den
	kT := units.KB * t
	return pref * kT * kT * kT * k.Eval(dw/kT)
}

// TestKernelAccuracy mirrors the orthodox table test for the
// cotunneling bracket: tabulated rates within 1e-6 of exact across
// temperatures, spanning the tabulated band and its asymptotic tails
// (ohmic below, truncated-to-zero above — there the test bounds the
// discarded exact rate by the truncation floor instead).
func TestKernelAccuracy(t *testing.T) {
	k := SharedKernel()
	if k == nil {
		t.Fatal("shared kernel failed to build")
	}
	if k.MaxRelError() > KernelRelTol {
		t.Fatalf("kernel reports error bound %g, want <= %g", k.MaxRelError(), KernelRelTol)
	}
	r := rng.New(5)
	temps := []float64{0.05, 2, 77}
	const r1, r2 = 1e6, 2e6
	for _, temp := range temps {
		kT := units.KB * temp
		ec := 100 * kT // intermediate-state energies well above kT
		for i := 0; i < 5000; i++ {
			x := (r.Float64()*2 - 1) * 80
			dw := x * kT
			e1 := ec * (0.5 + r.Float64())
			e2 := ec * (0.5 + r.Float64())
			exact := Rate(dw, e1, e2, r1, r2, temp)
			got := tableRate(k, dw, e1, e2, r1, r2, temp)
			if x > KernelXMax {
				pref := units.Hbar / (12 * math.Pi * units.E * units.E * units.E * units.E * r1 * r2)
				den := 1/e1 + 1/e2
				scale := pref * den * den * kT * kT * kT
				if got != 0 {
					t.Fatalf("T=%g x=%g: truncated tail must give 0, got %g", temp, x, got)
				}
				if floor := scale * (x*x + 4*math.Pi*math.Pi) * (x + 1) * math.Exp(-KernelXMax); exact > floor {
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
