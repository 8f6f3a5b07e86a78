package cotunnel

import (
	"math"
	"sync"

	"semsim/internal/numeric"
)

// Like the first-order orthodox rate, the finite-temperature
// cotunneling rate factors into an exact prefactor and a dimensionless
// kernel of x = dW/kT alone:
//
//	Gamma = pref * (1/E1 + 1/E2)^2 * kT^3 * h(x)
//	h(x)  = (x^2 + 4 pi^2) * x/(exp(x) - 1)
//
// (the thermal bracket dW^2 + (2 pi kT)^2 equals kT^2 (x^2 + 4 pi^2)),
// so one table serves every channel, resistance pair and temperature.
// Outside |x| <= KernelXMax the asymptotic tails are evaluated (see
// KernelXMax). The kernel needs T > 0; callers evaluate the T <= 0
// limit exactly, through Rate, and apply Rate's coexistence rule (no
// rate unless both intermediate-state energies are positive)
// themselves.
const (
	// KernelXMax bounds the tabulated band of x = dW/kT. As in the
	// orthodox kernel, the tails evaluate their asymptotic expansions so
	// out-of-band arguments stay on the multiply-add path: below -60,
	// x/(exp(x)-1) -> -x so h(x) -> -x^3 - 4 pi^2 x, exact to one part
	// in e^60 ~ 1e26; above +60 the thermally suppressed kernel
	// h(60) ~ 2e-21 truncates to zero (dozens of decades below the
	// double-precision floor of any competing rate sum).
	KernelXMax = 60.0
	// KernelRelTol is the grid-refinement target for the kernel's
	// relative interpolation error.
	KernelRelTol = 1e-7
)

// bracketKernel is h(x) above.
func bracketKernel(x float64) float64 {
	return (x*x + 4*math.Pi*math.Pi) * numeric.XOverExpm1(x)
}

var (
	kernelOnce sync.Once
	kernel     *numeric.FlatKernel
)

// SharedKernel returns the process-wide tabulated kernel h(x),
// building it on first use. It evaluates through a uniform grid with a
// constant-time panel lookup, so a tabulated rate costs a handful of
// multiply-adds instead of a binary search plus an exp. It returns nil
// if refinement cannot reach KernelRelTol — callers must then use the
// exact Rate.
func SharedKernel() *numeric.FlatKernel {
	kernelOnce.Do(func() {
		k, err := numeric.NewFlatKernel(bracketKernel, -KernelXMax, KernelXMax, KernelRelTol)
		if err != nil || k.MaxRelError() > KernelRelTol {
			return
		}
		// Asymptotic tails (see KernelXMax): h(x) = -x^3 - 4 pi^2 x
		// below the band, 0 above it.
		kernel = k.WithTails([4]float64{0, -4 * math.Pi * math.Pi, 0, -1}, [4]float64{})
	})
	return kernel
}
