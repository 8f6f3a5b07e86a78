package numeric

import (
	"fmt"
	"math"
	"sort"
)

// Table is a monotone piecewise-cubic (PCHIP, Fritsch–Carlson)
// interpolation table over strictly increasing x. It is used to cache
// expensive physics functions — most importantly the quasi-particle
// I–V integral — so the Monte Carlo inner loop never integrates.
type Table struct {
	x, y, d []float64 // knots, values, knot derivatives
}

// NewTable builds a PCHIP table. xs must be strictly increasing and at
// least 2 points long.
func NewTable(xs, ys []float64) (*Table, error) {
	n := len(xs)
	if n < 2 || len(ys) != n {
		return nil, fmt.Errorf("numeric: table needs >= 2 matched points, got %d/%d", len(xs), len(ys))
	}
	for i := 1; i < n; i++ {
		if xs[i] <= xs[i-1] {
			return nil, fmt.Errorf("numeric: table x not strictly increasing at %d", i)
		}
	}
	t := &Table{
		x: append([]float64(nil), xs...),
		y: append([]float64(nil), ys...),
		d: make([]float64, n),
	}
	// Fritsch–Carlson monotone derivative estimates.
	h := make([]float64, n-1)
	delta := make([]float64, n-1)
	for i := 0; i < n-1; i++ {
		h[i] = xs[i+1] - xs[i]
		delta[i] = (ys[i+1] - ys[i]) / h[i]
	}
	if n == 2 {
		t.d[0], t.d[1] = delta[0], delta[0]
		return t, nil
	}
	for i := 1; i < n-1; i++ {
		if delta[i-1]*delta[i] <= 0 {
			t.d[i] = 0
			continue
		}
		w1 := 2*h[i] + h[i-1]
		w2 := h[i] + 2*h[i-1]
		t.d[i] = (w1 + w2) / (w1/delta[i-1] + w2/delta[i])
	}
	t.d[0] = endpointSlope(h[0], h[1], delta[0], delta[1])
	t.d[n-1] = endpointSlope(h[n-2], h[n-3], delta[n-2], delta[n-3])
	return t, nil
}

func endpointSlope(h0, h1, d0, d1 float64) float64 {
	d := ((2*h0+h1)*d0 - h0*d1) / (h0 + h1)
	if d*d0 <= 0 {
		return 0
	}
	if d0*d1 <= 0 && math.Abs(d) > 3*math.Abs(d0) {
		return 3 * d0
	}
	return d
}

// Eval interpolates at x, clamping to the table's range (constant
// extrapolation would hide bugs; linear extrapolation from the edge
// derivative is used instead so sweeps slightly past the table behave
// sanely).
func (t *Table) Eval(x float64) float64 {
	n := len(t.x)
	if x <= t.x[0] {
		return t.y[0] + t.d[0]*(x-t.x[0])
	}
	if x >= t.x[n-1] {
		return t.y[n-1] + t.d[n-1]*(x-t.x[n-1])
	}
	i := sort.SearchFloat64s(t.x, x) - 1
	if i < 0 {
		i = 0
	}
	h := t.x[i+1] - t.x[i]
	s := (x - t.x[i]) / h
	y0, y1 := t.y[i], t.y[i+1]
	d0, d1 := t.d[i]*h, t.d[i+1]*h
	// Cubic Hermite basis.
	s2 := s * s
	s3 := s2 * s
	return y0*(2*s3-3*s2+1) + d0*(s3-2*s2+s) + y1*(-2*s3+3*s2) + d1*(s3-s2)
}

// Linspace returns n evenly spaced points from a to b inclusive.
func Linspace(a, b float64, n int) []float64 {
	if n < 2 {
		panic("numeric: Linspace needs n >= 2")
	}
	out := make([]float64, n)
	step := (b - a) / float64(n-1)
	for i := range out {
		out[i] = a + float64(i)*step
	}
	out[n-1] = b
	return out
}
