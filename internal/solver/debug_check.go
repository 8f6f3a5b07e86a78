package solver

// Runtime invariant checks, active only under the semsimdebug build
// tag. Every method here is called behind `if invariant.Enabled`, and
// Enabled is a constant, so in the default build the calls — and the
// O(islands)/O(channels) work they do — are eliminated at compile time.
// None of the checks mutates simulator state or statistics: a debug
// trajectory is bit-identical to a release one.

import (
	"math"

	"semsim/internal/invariant"
	"semsim/internal/orthodox"
)

// islandElectronSum totals the tracked electrons across all islands.
func (s *Sim) islandElectronSum() int {
	total := 0
	for _, ni := range s.n {
		total += ni
	}
	return total
}

// debugCheckEvent asserts electron conservation for the event just
// applied on channel ci: islands gain exactly the carriers that entered
// from src and lose exactly those that left for dst; external nodes are
// reservoirs.
func (s *Sim) debugCheckEvent(ci, preSum int) {
	want := preSum
	carriers := chCarriers[s.chKinds[ci]]
	if s.c.IslandIndex(int(s.chSrc[ci])) >= 0 {
		want -= carriers
	}
	if s.c.IslandIndex(int(s.chDst[ci])) >= 0 {
		want += carriers
	}
	got := s.islandElectronSum()
	invariant.Checkf(got == want,
		"solver: electron conservation violated: island total %d after event on junction %d, want %d",
		got, int(s.chJunc[ci]), want)
}

// debugCheckFenwick asserts the selection tree is consistent: every
// channel rate finite and non-negative, and the tree's committed total
// plus the staged-but-unflushed deltas within floating-point drift of a
// naive sum over the value array. Staged batches are legal at any time
// (the solver defers its flush to the next selection); the tree and the
// pending deltas must jointly account for vals exactly.
func (s *Sim) debugCheckFenwick() {
	f := s.fen
	naive := 0.0
	valid := true
	for i, v := range f.vals {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			invariant.Checkf(false, "solver: channel %d has invalid rate %g", i, v)
			valid = false
		}
		naive += v
	}
	if !valid {
		return
	}
	staged, stagedAbs := 0.0, 0.0
	for _, d := range f.pendDelta {
		staged += d
		stagedAbs += math.Abs(d)
	}
	// The committed total and the staged deltas can cancel: after an
	// event, a rate of order 1e11 in the tree may be brought to ~0 by a
	// pending delta of order -1e11, so tot carries rounding residue
	// proportional to the cancelled magnitude, not to the final sum. The
	// tolerance therefore scales with the magnitudes summed, while still
	// sitting many orders below any real corruption of the value array.
	tot := f.total() + staged
	tol := 1e-9*(naive+1) + 1e-12*(math.Abs(f.total())+stagedAbs)
	invariant.Checkf(math.Abs(tot-naive) <= tol,
		"solver: fenwick total %g (incl. %d staged) disagrees with naive sum %g (|diff| %g > tol %g)",
		tot, f.pendingCount(), naive, math.Abs(tot-naive), tol)
}

// debugCheckPotentialDrift compares the incrementally maintained island
// potentials against a fresh solve through the same potential engine
// using the same external voltages, before a full refresh overwrites
// them. Incremental updates are exact arithmetic with respect to the
// engine's truncated rows, so only rounding-level drift is tolerated;
// a sign error or wrong C^-1 row shows up at millivolt scale. Using
// s.pe for the fresh solve keeps the tolerance independent of the
// threshold: truncation error is a property of the rows, identical on
// both sides of the comparison.
func (s *Sim) debugCheckPotentialDrift() {
	ni := s.c.NumIslands()
	if ni == 0 {
		return
	}
	q := s.c.ChargeVector(nil, s.n)
	fresh := make([]float64, ni)
	s.pe.Solve(fresh, q, s.vext)
	maxAbs := 0.0
	for _, v := range fresh {
		if a := math.Abs(v); a > maxAbs {
			maxAbs = a
		}
	}
	tol := 1e-9 * (maxAbs + 1)
	for k := 0; k < ni; k++ {
		invariant.Checkf(math.Abs(s.v[k]-fresh[k]) <= tol,
			"solver: island %d potential drifted: incremental %g, fresh %g (tol %g)",
			k, s.v[k], fresh[k], tol)
	}
}

// debugCheckKernels spot-checks the tabulated normal-state kernel
// against exact orthodox evaluation at the free-energy changes the
// refresh just cached. The kernel guarantees relative error below 1e-6
// inside the tabulated band and in the ohmic lower tail, so 1e-5 is
// generous; above the band the kernel truncates to zero, so there the
// check bounds the discarded exact rate by the truncation floor
// e^-KernelXMax of the junction's thermal rate scale. Rates too small
// to ever be selected are skipped.
func (s *Sim) debugCheckKernels() {
	if s.flatK == nil {
		return
	}
	nj := s.c.NumJunctions()
	stride := nj / 4
	if stride == 0 {
		stride = 1
	}
	for j := 0; j < nj; j += stride {
		dw := s.dwFw[j]
		x := dw * s.invKT
		tab := s.ratePref[j] * s.flatK.Eval(x)
		exact := orthodox.Rate(dw, s.c.Junction(j).R, s.opt.Temp)
		if x > orthodox.KernelXMax {
			floor := s.ratePref[j] * (x + 1) * math.Exp(-orthodox.KernelXMax)
			invariant.Checkf(tab == 0 && exact <= floor,
				"solver: junction %d above band x=%g: tabulated %g (want 0), exact %g (floor %g)",
				j, x, tab, exact, floor)
			continue
		}
		if exact < 1e-100 {
			invariant.Checkf(tab < 1e-90,
				"solver: junction %d tabulated rate %g but exact rate vanishes", j, tab)
			continue
		}
		invariant.Checkf(math.Abs(tab-exact) <= 1e-5*exact,
			"solver: junction %d tabulated rate %g deviates from exact %g beyond 1e-5 relative",
			j, tab, exact)
	}
}
