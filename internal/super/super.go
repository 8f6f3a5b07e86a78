// Package super implements the superconducting-state physics of the
// simulator: the BCS gap, quasi-particle tunneling through the singular
// BCS density of states (Eq. 3 of the paper), the Josephson coupling
// energy, and incoherent resonant Cooper-pair tunneling in the
// high-resistance regime (RN >> RQ, EJ << Ec). Together these produce
// the JQP and DJQP resonances and the thermal singularity-matching
// features of superconducting SETs.
package super

import (
	"fmt"
	"math"

	"semsim/internal/numeric"
	"semsim/internal/units"
)

// Gap returns the BCS gap Delta(T) in joules using the standard
// interpolation formula
//
//	Delta(T) = Delta(0) * tanh(1.74 * sqrt(Tc/T - 1))
//
// which tracks the self-consistent BCS gap equation to within ~2%
// across the whole range and has the exact limits Delta(0) at T=0 and
// 0 at T >= Tc.
func Gap(delta0, tc, t float64) float64 {
	if t <= 0 {
		return delta0
	}
	if t >= tc {
		return 0
	}
	return delta0 * math.Tanh(1.74*math.Sqrt(tc/t-1))
}

// ReducedDOS is the BCS reduced density of states (Eq. 4 of the paper):
// |E|/sqrt(E^2 - Delta^2) for |E| > Delta, zero inside the gap.
func ReducedDOS(e, delta float64) float64 {
	ae := math.Abs(e)
	if ae <= delta {
		return 0
	}
	return ae / math.Sqrt(e*e-delta*delta)
}

// Iqp computes the quasi-particle tunneling current (amperes) of a
// junction with normal-state resistance r, gaps d1 and d2 (joules) on
// its two electrodes, at voltage v and temperature t (kelvin), by
// direct evaluation of Eq. 3:
//
//	Iqp = 1/(e R) Int n1(E) n2(E + eV) [f(E) - f(E + eV)] dE
//
// The integrand has inverse-square-root singularities at E = ±d1 and
// E = -eV ± d2; the domain is split at every singular point and each
// piece is integrated with the edge-regularizing substitution.
func Iqp(v, r, d1, d2, t float64) float64 {
	if v == 0 {
		return 0
	}
	if t < 0 {
		t = 0
	}
	kT := units.KB * t
	ev := units.E * v
	f := func(e float64) float64 { return numeric.Fermi(e, kT) }
	integrand := func(e float64) float64 {
		n1 := ReducedDOS(e, d1)
		if n1 == 0 {
			return 0
		}
		n2 := ReducedDOS(e+ev, d2)
		if n2 == 0 {
			return 0
		}
		df := f(e) - f(e+ev)
		if df == 0 {
			return 0
		}
		return n1 * n2 * df
	}
	// The thermal factor f(E) - f(E+eV) is nonzero only within ~40 kT of
	// the window [min(0,-eV), max(0,-eV)]; outside it the integrand
	// vanishes regardless of the DOS.
	margin := 40 * kT
	lo := math.Min(0, -ev) - margin
	hi := math.Max(0, -ev) + margin
	// Breakpoints: gap edges of both electrodes (electrode 2 shifted by
	// -eV) plus the Fermi window edges 0 and -eV. Only the gap edges are
	// singular points.
	edges := []float64{-d1, d1, -ev - d2, -ev + d2}
	bps := append([]float64{0, -ev}, edges...)
	pts := []float64{lo}
	for _, b := range bps {
		if b > lo && b < hi {
			pts = append(pts, b)
		}
	}
	pts = append(pts, hi)
	sortFloats(pts)
	isEdge := func(x float64) bool {
		for _, e := range edges {
			if numeric.SameBits(x, e) {
				return true
			}
		}
		return false
	}
	tol := 1e-6 * (d1 + d2 + math.Abs(ev) + kT)
	total := 0.0
	for i := 0; i+1 < len(pts); i++ {
		a, b := pts[i], pts[i+1]
		if b-a < 1e-30 {
			continue
		}
		m := 0.5 * (a + b)
		// Skip intervals lying entirely inside either gap: the DOS (and
		// hence the integrand) is identically zero there.
		if math.Abs(m) < d1 || math.Abs(m+ev) < d2 {
			continue
		}
		singA, singB := isEdge(a), isEdge(b)
		switch {
		case singA && singB:
			total += numeric.IntegrateBothEdgesSingular(integrand, a, b, tol)
		case singA:
			total += numeric.IntegrateEdgeSingular(integrand, a, b, true, tol)
		case singB:
			total += numeric.IntegrateEdgeSingular(integrand, a, b, false, tol)
		default:
			total += numeric.Integrate(integrand, a, b, tol)
		}
	}
	return total / (units.E * r)
}

func sortFloats(x []float64) {
	// Insertion sort: the slice has < 10 elements.
	for i := 1; i < len(x); i++ {
		for j := i; j > 0 && x[j] < x[j-1]; j-- {
			x[j], x[j-1] = x[j-1], x[j]
		}
	}
}

// JosephsonEnergy returns the Ambegaokar–Baratoff Josephson coupling
// energy (joules) of a junction with normal resistance r and gap delta
// at temperature t:
//
//	EJ = (RQ / R) * (Delta/2) * tanh(Delta / 2 kT)
//
// with RQ = h/4e^2. In the paper's regime RN >> RQ this is much smaller
// than the charging energy, as Cooper-pair tunneling theory requires.
func JosephsonEnergy(r, delta, t float64) float64 {
	if delta <= 0 {
		return 0
	}
	th := 1.0
	if t > 0 {
		th = math.Tanh(delta / (2 * units.KB * t))
	}
	return units.RQ / r * delta / 2 * th
}

// CooperPairRate returns the incoherent resonant Cooper-pair tunneling
// rate (1/s) for a pair free-energy change dw (joules), Josephson
// energy ej (joules) and lifetime broadening gamma (1/s) of the
// resonance — normally the quasi-particle escape rate that completes
// the JQP cycle:
//
//	Gamma_2e(dw) = (EJ^2 / 2) * gamma / (dw^2 + (hbar*gamma/2)^2) / hbar^2-normalized
//
// written so that on resonance Gamma_2e(0) = 2 EJ^2 / (hbar^2 gamma),
// the standard JQP-cycle result.
func CooperPairRate(dw, ej, gamma float64) float64 {
	if ej <= 0 || gamma <= 0 {
		return 0
	}
	hg := units.Hbar * gamma / 2
	return ej * ej / 2 * gamma / (dw*dw + hg*hg)
}

// QPTable caches Iqp(V) for one junction (one combination of R, gaps
// and temperature) on a feature-adapted grid with PCHIP interpolation,
// so the Monte Carlo inner loop never integrates. The table also
// converts currents to tunneling rates via the detailed-balance
// identity
//
//	Gamma(dW) = Iqp(-dW/e) / (e * (1 - exp(dW/kT)))
//
// which reduces exactly to Eq. 1's form and guarantees
// Gamma(dW)/Gamma(-dW) = exp(-dW/kT).
type QPTable struct {
	r, d1, d2, temp, kT float64
	tab                 *numeric.Table
	g0                  float64 // zero-bias conductance dI/dV|0 (siemens)
	vSmall              float64
}

// NewQPTable builds the cache covering |V| <= vmax. Temperature must be
// positive: the detailed-balance conversion (and all the paper's
// superconducting experiments) assume finite temperature.
func NewQPTable(r, d1, d2, t, vmax float64) (*QPTable, error) {
	if t <= 0 {
		return nil, fmt.Errorf("super: QPTable needs T > 0, got %g", t)
	}
	if r <= 0 || d1 < 0 || d2 < 0 {
		return nil, fmt.Errorf("super: QPTable needs R > 0 and gaps >= 0")
	}
	vOnset := (d1 + d2) / units.E
	vMatch := math.Abs(d1-d2) / units.E
	if vmax < 2*vOnset {
		vmax = 2 * vOnset
	}
	kT := units.KB * t
	vt := kT / units.E

	// Feature-adapted grid: coarse background, dense near the gap-sum
	// onset, the singularity-matching point and zero bias.
	var grid []float64
	grid = append(grid, numeric.Linspace(0, vmax, 400)...)
	span := 0.25 * vOnset
	grid = append(grid, numeric.Linspace(math.Max(0, vOnset-span), math.Min(vmax, vOnset+span), 240)...)
	if vMatch > 0 {
		grid = append(grid, numeric.Linspace(math.Max(0, vMatch-0.2*vOnset), math.Min(vmax, vMatch+0.2*vOnset), 160)...)
	}
	grid = append(grid, numeric.Linspace(0, math.Min(vmax, 10*vt), 80)...)
	// Shared table machinery: sort, dedupe with a separation floor so
	// PCHIP stays well conditioned, evaluate, build.
	tab, err := numeric.TabulateGrid(grid, vmax*1e-9, func(v float64) float64 {
		return Iqp(v, r, d1, d2, t)
	})
	if err != nil {
		return nil, fmt.Errorf("super: building QP table: %w", err)
	}
	q := &QPTable{r: r, d1: d1, d2: d2, temp: t, kT: kT, tab: tab}
	// Zero-bias conductance by central difference at half a thermal volt.
	dv := 0.5 * vt
	q.g0 = (q.Current(dv) - q.Current(-dv)) / (2 * dv)
	if q.g0 < 0 {
		q.g0 = 0
	}
	q.vSmall = 1e-4 * vt
	return q, nil
}

// Current returns the interpolated quasi-particle current at voltage v,
// using the odd symmetry Iqp(-V) = -Iqp(V).
func (q *QPTable) Current(v float64) float64 {
	if v < 0 {
		return -q.tab.Eval(-v)
	}
	return q.tab.Eval(v)
}

// Rate returns the quasi-particle tunneling rate for free-energy change
// dw (joules).
func (q *QPTable) Rate(dw float64) float64 {
	v := -dw / units.E
	var g float64
	if math.Abs(v) < q.vSmall {
		g = q.g0
	} else {
		g = q.Current(v) / v
	}
	if g < 0 {
		g = 0 // interpolation noise guard; I(v)/v is physically >= 0
	}
	return g / (units.E * units.E) * q.kT * numeric.XOverExpm1(dw/q.kT)
}
