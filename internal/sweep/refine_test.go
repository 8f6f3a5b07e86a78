package sweep

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

func TestRefineAxis(t *testing.T) {
	fine := RefineAxis([]float64{0, 1, 2}, 2)
	want := []float64{0, 0.25, 0.5, 0.75, 1, 1.25, 1.5, 1.75, 2}
	if len(fine) != len(want) {
		t.Fatalf("len = %d, want %d", len(fine), len(want))
	}
	for i := range want {
		if fine[i] != want[i] {
			t.Fatalf("fine[%d] = %g, want %g", i, fine[i], want[i])
		}
	}
	// Coarse values must land exactly (bitwise) on aligned indices.
	coarse := []float64{-0.0413, 0.00171, 0.0299}
	fine = RefineAxis(coarse, 3)
	for i, v := range coarse {
		if fine[i<<3] != v {
			t.Fatalf("coarse value %d not preserved: %g vs %g", i, fine[i<<3], v)
		}
	}
}

// densePlan is the dense planner RefinePlan replaced, kept as the
// reference: it scans every cell of the full fnx×fny lattice.
func densePlan(I [][]float64, simulated [][]bool, cell int, threshold float64) []int {
	if threshold <= 0 {
		threshold = defaultRefineThreshold
	}
	fny, fnx := len(I), len(I[0])
	half := cell / 2
	lo, hi, any := 0.0, 0.0, false
	for fy := 0; fy < fny; fy++ {
		for fx := 0; fx < fnx; fx++ {
			if !simulated[fy][fx] {
				continue
			}
			v := I[fy][fx]
			if !any || v < lo {
				lo = v
			}
			if !any || v > hi {
				hi = v
			}
			any = true
		}
	}
	cut := threshold * (hi - lo)
	want := map[int]bool{}
	for fy := 0; fy+cell < fny; fy += cell {
		for fx := 0; fx+cell < fnx; fx += cell {
			if !simulated[fy][fx] || !simulated[fy][fx+cell] ||
				!simulated[fy+cell][fx] || !simulated[fy+cell][fx+cell] {
				continue
			}
			cLo := I[fy][fx]
			cHi := cLo
			for _, v := range [3]float64{I[fy][fx+cell], I[fy+cell][fx], I[fy+cell][fx+cell]} {
				if v < cLo {
					cLo = v
				}
				if v > cHi {
					cHi = v
				}
			}
			span := cHi - cLo
			if span < cut || span <= 0 {
				continue
			}
			for _, p := range [5][2]int{
				{fx + half, fy}, {fx, fy + half}, {fx + cell, fy + half},
				{fx + half, fy + cell}, {fx + half, fy + half},
			} {
				if !simulated[p[1]][p[0]] {
					want[p[1]*fnx+p[0]] = true
				}
			}
		}
	}
	var out []int
	for p := range want {
		out = append(out, p)
	}
	sort.Ints(out)
	return out
}

// The sparse planner must plan exactly the dense reference's points, in
// the same order, on random lattices, masks and currents — including
// masks that are not the output of earlier levels.
func TestRefinePlanMatchesDenseReference(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 400; trial++ {
		depth := 1 + r.Intn(3)
		cell := 1 << (1 + r.Intn(depth))
		fnx := (1+r.Intn(4))<<depth + 1
		fny := (1+r.Intn(4))<<depth + 1
		density := r.Float64()
		I := make([][]float64, fny)
		mask := make([][]bool, fny)
		sim := map[int]float64{}
		for fy := range I {
			I[fy] = make([]float64, fnx)
			mask[fy] = make([]bool, fnx)
			for fx := range I[fy] {
				// Coarse-aligned points are simulated more often, so some
				// cells have all four corners.
				p := density
				if fx%cell == 0 && fy%cell == 0 {
					p = 0.5 + density/2
				}
				if r.Float64() < p {
					v := float64(r.Intn(5)) * 1e-9 // ties and flat cells too
					I[fy][fx], mask[fy][fx] = v, true
					sim[fy*fnx+fx] = v
				}
			}
		}
		thr := []float64{0, 0.1, 0.3, 0.9}[r.Intn(4)]
		want := densePlan(I, mask, cell, thr)
		got := RefinePlan(fnx, fny, sim, cell, thr)
		if len(want) == 0 && len(got) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (%dx%d, cell %d, thr %g): sparse plan %v, dense %v", trial, fnx, fny, cell, thr, got, want)
		}
	}
}

// Interpolation fills the whole lattice, stays within the range of the
// simulated values (dyadic averaging cannot extrapolate) and leaves the
// simulated points untouched.
func TestInterpolateFillsWholeLattice(t *testing.T) {
	const depth = 3
	fnx, fny := 3<<depth+1, 2<<depth+1
	r := rand.New(rand.NewSource(3))
	I := make([][]float64, fny)
	sim := make([][]bool, fny)
	orig := map[[2]int]float64{}
	lo, hi := 1.0, -1.0
	for fy := range I {
		I[fy] = make([]float64, fnx)
		sim[fy] = make([]bool, fnx)
		for fx := range I[fy] {
			coarse := fx%(1<<depth) == 0 && fy%(1<<depth) == 0
			if coarse || r.Float64() < 0.2 {
				v := r.Float64()*2 - 1
				I[fy][fx], sim[fy][fx] = v, true
				orig[[2]int{fx, fy}] = v
				lo, hi = min(lo, v), max(hi, v)
			} else {
				I[fy][fx] = 99 // must be overwritten
			}
		}
	}
	Interpolate(I, sim, depth)
	for fy := range I {
		for fx, v := range I[fy] {
			if w, ok := orig[[2]int{fx, fy}]; ok && v != w {
				t.Fatalf("simulated point (%d,%d) changed: %g -> %g", fx, fy, w, v)
			}
			if v < lo || v > hi {
				t.Fatalf("point (%d,%d)=%g outside simulated range [%g, %g]", fx, fy, v, lo, hi)
			}
		}
	}
}
