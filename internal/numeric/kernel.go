package numeric

import (
	"fmt"
	"math"
	"sort"
)

// TabulateGrid builds a PCHIP table of f over the given grid points:
// the grid is sorted and deduplicated with a separation floor minSep
// (so the interpolant stays well conditioned), then f is evaluated at
// every surviving knot. It is the shared machinery behind the physics
// caches — the quasi-particle I-V table and the tabulated rate kernels
// all feed their grids through here.
func TabulateGrid(grid []float64, minSep float64, f func(float64) float64) (*Table, error) {
	if len(grid) < 2 {
		return nil, fmt.Errorf("numeric: TabulateGrid needs >= 2 grid points, got %d", len(grid))
	}
	xs := append([]float64(nil), grid...)
	sort.Float64s(xs)
	kept := xs[:1]
	for _, g := range xs[1:] {
		if g-kept[len(kept)-1] > minSep {
			kept = append(kept, g)
		}
	}
	ys := make([]float64, len(kept))
	for i, x := range kept {
		ys[i] = f(x)
	}
	return NewTable(kept, ys)
}

// FlatKernel is an error-bounded tabulation of a smooth scalar
// function, built for the Monte Carlo inner loop: the grid is uniform,
// so locating the panel for an argument is one multiply and a
// float-to-int conversion instead of a binary search, and each panel's
// monotone cubic is stored as four contiguous polynomial coefficients
// so an evaluation touches a single cache line. Outside [lo, hi] — and
// for NaN arguments — it falls back to the exact function, so it is
// accurate everywhere and fast on the hot band. The error bound is measured on FlatKernel's own
// evaluation path (panel location and Horner form included), not
// inherited from the PCHIP table it was derived from.
type FlatKernel struct {
	f      func(float64) float64
	lo, hi float64
	invH   float64 // panels per unit of x
	fn     float64 // float64(number of panels)
	// coef holds the per-panel cubic in the local coordinate
	// s = (x - x_i)/h: panel i occupies coef[4i:4i+4] as
	// c0 + s*(c1 + s*(c2 + s*c3)).
	coef   []float64
	relErr float64
	// Optional asymptotic tails (WithTails): cubics in the absolute
	// coordinate x evaluated below lo / at-or-above hi instead of
	// calling f. Installed when the caller knows closed-form asymptotic
	// expansions, so out-of-band arguments stay on the multiply-add
	// path instead of paying f's transcendental calls.
	hasTails       bool
	loTail, hiTail [4]float64
}

// NewFlatKernel tabulates f on a uniform grid over [lo, hi], doubling
// the panel count until the relative error — sampled at three interior
// points of every panel through the flat evaluation path itself — is at
// most relTol, or the point budget (2^17 knots) is exhausted. The
// achieved bound is reported by MaxRelError; callers that need a hard
// guarantee should check it. f should be smooth and should not cross
// zero inside [lo, hi].
func NewFlatKernel(f func(float64) float64, lo, hi, relTol float64) (*FlatKernel, error) {
	if !(hi > lo) {
		return nil, fmt.Errorf("numeric: NewFlatKernel needs hi > lo, got [%g, %g]", lo, hi)
	}
	const maxPts = 1 << 17
	var best *FlatKernel
	bestErr := math.Inf(1)
	for n := 1025; ; n = 2*(n-1) + 1 {
		tab, err := TabulateGrid(Linspace(lo, hi, n), 0, f)
		if err != nil {
			return nil, err
		}
		k := flattenTable(f, tab, lo, hi)
		e := k.measureRelError(n)
		if e < bestErr {
			best, bestErr = k, e
		}
		if bestErr <= relTol || 2*(n-1)+1 > maxPts {
			break
		}
	}
	best.relErr = bestErr
	return best, nil
}

// flattenTable converts a PCHIP table over a uniform grid into per-panel
// Horner coefficients. With knot values y0, y1 and scaled derivatives
// d0 = d[i]*h, d1 = d[i+1]*h, the Hermite cubic in s is
// c0 = y0, c1 = d0, c2 = 3(y1-y0) - 2 d0 - d1, c3 = 2(y0-y1) + d0 + d1.
func flattenTable(f func(float64) float64, tab *Table, lo, hi float64) *FlatKernel {
	n := len(tab.x)
	panels := n - 1
	h := (hi - lo) / float64(panels)
	k := &FlatKernel{
		f: f, lo: lo, hi: hi,
		invH: float64(panels) / (hi - lo),
		fn:   float64(panels),
		coef: make([]float64, 4*panels),
	}
	for i := 0; i < panels; i++ {
		y0, y1 := tab.y[i], tab.y[i+1]
		d0, d1 := tab.d[i]*h, tab.d[i+1]*h
		k.coef[4*i+0] = y0
		k.coef[4*i+1] = d0
		k.coef[4*i+2] = 3*(y1-y0) - 2*d0 - d1
		k.coef[4*i+3] = 2*(y0-y1) + d0 + d1
	}
	return k
}

// measureRelError samples the flat evaluation against f at three
// interior points of each panel.
func (k *FlatKernel) measureRelError(n int) float64 {
	h := (k.hi - k.lo) / float64(n-1)
	worst := 0.0
	for i := 0; i < n-1; i++ {
		left := k.lo + float64(i)*h
		for _, frac := range [3]float64{0.25, 0.5, 0.75} {
			x := left + frac*h
			exact := k.f(x)
			got := k.Eval(x)
			var rel float64
			if exact != 0 {
				rel = math.Abs(got-exact) / math.Abs(exact)
			} else {
				rel = math.Abs(got)
			}
			if rel > worst {
				worst = rel
			}
		}
	}
	return worst
}

// WithTails installs asymptotic tail cubics, evaluated in the absolute
// coordinate x as c0 + x*(c1 + x*(c2 + x*c3)): loTail below lo, hiTail
// at or above hi. After installation, out-of-band evaluation costs the
// same handful of multiply-adds as the tabulated band instead of a call
// to the exact function — the caller owns the accuracy argument for its
// expansions (the physics kernels use tails exact to ~e^-60 relative).
// NaN arguments still flow to the exact function. Returns k for
// chaining.
func (k *FlatKernel) WithTails(loTail, hiTail [4]float64) *FlatKernel {
	k.loTail, k.hiTail = loTail, hiTail
	k.hasTails = true
	return k
}

// Eval interpolates inside the tabulated band in O(1) — one panel-index
// computation and a cubic Horner evaluation over four contiguous
// coefficients. Outside the band it evaluates the asymptotic tails when
// installed (WithTails), and the exact f otherwise (including NaN,
// which fails every band test).
//
//semsim:hot
func (k *FlatKernel) Eval(x float64) float64 {
	t := (x - k.lo) * k.invH
	if t >= 0 && t < k.fn {
		i := int(t)
		s := t - float64(i)
		c := k.coef[4*i : 4*i+4 : 4*i+4]
		return c[0] + s*(c[1]+s*(c[2]+s*c[3]))
	}
	if k.hasTails {
		if x < k.lo {
			c := &k.loTail
			return c[0] + x*(c[1]+x*(c[2]+x*c[3]))
		}
		if x >= k.hi {
			c := &k.hiTail
			return c[0] + x*(c[1]+x*(c[2]+x*c[3]))
		}
	}
	return k.f(x)
}

// EvalPair evaluates the kernel at two arguments in one call — the
// shape of the solver's junction sweep, which needs the forward and
// backward rate of every junction. Eval is too large to inline, so the
// per-call overhead (spills and the repeated loads of lo/invH/fn/coef)
// is paid once per junction here instead of once per rate. Results are
// bit-identical to two Eval calls.
//
//semsim:hot
func (k *FlatKernel) EvalPair(x1, x2 float64) (y1, y2 float64) {
	lo, invH, fn := k.lo, k.invH, k.fn
	coef := k.coef

	t := (x1 - lo) * invH
	if t >= 0 && t < fn {
		i := int(t)
		s := t - float64(i)
		c := coef[4*i : 4*i+4 : 4*i+4]
		y1 = c[0] + s*(c[1]+s*(c[2]+s*c[3]))
	} else if k.hasTails && x1 < lo {
		c := &k.loTail
		y1 = c[0] + x1*(c[1]+x1*(c[2]+x1*c[3]))
	} else if k.hasTails && x1 >= k.hi {
		c := &k.hiTail
		y1 = c[0] + x1*(c[1]+x1*(c[2]+x1*c[3]))
	} else {
		y1 = k.f(x1)
	}

	t = (x2 - lo) * invH
	if t >= 0 && t < fn {
		i := int(t)
		s := t - float64(i)
		c := coef[4*i : 4*i+4 : 4*i+4]
		y2 = c[0] + s*(c[1]+s*(c[2]+s*c[3]))
	} else if k.hasTails && x2 < lo {
		c := &k.loTail
		y2 = c[0] + x2*(c[1]+x2*(c[2]+x2*c[3]))
	} else if k.hasTails && x2 >= k.hi {
		c := &k.hiTail
		y2 = c[0] + x2*(c[1]+x2*(c[2]+x2*c[3]))
	} else {
		y2 = k.f(x2)
	}
	return y1, y2
}

// MaxRelError reports the measured relative-error bound of the
// tabulated band (outside it, evaluation is exact).
func (k *FlatKernel) MaxRelError() float64 { return k.relErr }

// Range reports the tabulated interval.
func (k *FlatKernel) Range() (lo, hi float64) { return k.lo, k.hi }

// Panels reports the number of uniform panels in the tabulated band.
func (k *FlatKernel) Panels() int { return len(k.coef) / 4 }
