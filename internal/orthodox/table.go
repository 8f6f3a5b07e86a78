package orthodox

import (
	"sync"

	"semsim/internal/numeric"
)

// The normal-state orthodox rate factors into a junction-independent
// dimensionless kernel and an exact prefactor:
//
//	Gamma(dW) = kT/(e^2 R) * g(dW/kT),   g(x) = x/(exp(x) - 1)
//
// so one tabulation of g serves every junction at every temperature —
// unlike the superconducting quasi-particle table, which depends on
// (R, gaps, T) and is cached per junction. The kernel is built once per
// process with a measured relative-error bound; outside the tabulated
// band |x| <= KernelXMax it evaluates the asymptotic tails — see
// KernelXMax. The kernel needs T > 0; callers evaluate the T <= 0 limit
// exactly, through Rate.
const (
	// KernelXMax bounds the tabulated band of x = dW/kT. The tails are
	// evaluated by their asymptotic expansions, which cost the same
	// multiply-adds as the band instead of an exp (at logic-circuit
	// energies |dW/kT| reaches hundreds, so the tails ARE the hot path):
	// below -60 the kernel is ohmic, g(x) = -x, exact to one part in
	// e^60 ~ 1e26; above +60 the rate has decayed by e^-60 below the
	// thermal scale kT/(e^2 R) — deep forbidden regime, over a dozen
	// decades below double precision of any competing rate sum — and
	// truncates to zero.
	KernelXMax = 60.0
	// KernelRelTol is the grid-refinement target for the kernel's
	// relative interpolation error, an order of magnitude tighter than
	// the 1e-6 bound the solver documents.
	KernelRelTol = 1e-7
)

var (
	kernelOnce sync.Once
	kernel     *numeric.FlatKernel
)

// SharedKernel returns the process-wide tabulated kernel g(x),
// interpolated inside |x| <= KernelXMax and asymptotic outside (-x
// below, 0 above), building it on first use (a few thousand exp
// evaluations). It evaluates through a uniform grid with a
// constant-time panel lookup, so a tabulated rate costs a handful of
// multiply-adds instead of a binary search plus an exp. It returns nil
// if the refinement cannot reach KernelRelTol — callers must then use
// the exact Rate.
func SharedKernel() *numeric.FlatKernel {
	kernelOnce.Do(func() {
		k, err := numeric.NewFlatKernel(numeric.XOverExpm1, -KernelXMax, KernelXMax, KernelRelTol)
		if err != nil || k.MaxRelError() > KernelRelTol {
			return
		}
		// Asymptotic tails (see KernelXMax): g(x) = -x below the band,
		// 0 above it.
		kernel = k.WithTails([4]float64{0, -1, 0, 0}, [4]float64{})
	})
	return kernel
}
