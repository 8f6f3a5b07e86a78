// Package sweep plans the operating points of I-V sweeps and stability
// maps (the paper's Fig. 1 and Fig. 5): the dyadic fine lattice of a
// refined map, each refinement level's points, and the interpolation
// that fills the lattice points refinement skipped. It runs nothing;
// decks carry sweeps and maps to the jobs runner, which executes every
// (point, run) task.
//
// The interesting structure of a Coulomb-diamond map — diamond edges
// and resonance lines — occupies a thin set of the (Vg, Vds) plane.
// Adaptive mesh refinement simulates a coarse grid everywhere and
// spends fine-lattice points only where neighbouring currents disagree.
package sweep

import (
	"math"
	"sort"
)

const defaultRefineThreshold = 0.1

// RefineAxis subdivides each interval of vs into 2^depth equal steps.
// Coarse values land exactly (bitwise) on their aligned fine indices
// (i<<depth), which is what makes coarse-level simulations bit-identical
// to a uniform fine grid's at the same fine index.
func RefineAxis(vs []float64, depth int) []float64 {
	if depth == 0 || len(vs) < 2 {
		return append([]float64(nil), vs...)
	}
	step := 1 << depth
	out := make([]float64, (len(vs)-1)*step+1)
	for i := 0; i+1 < len(vs); i++ {
		a, b := vs[i], vs[i+1]
		out[i*step] = a
		for k := 1; k < step; k++ {
			out[i*step+k] = a + (b-a)*float64(k)/float64(step)
		}
	}
	out[len(out)-1] = vs[len(vs)-1]
	return out
}

// RefinePlan plans one refinement level of a map on a fnx×fny fine
// lattice. simulated holds the current of every point simulated so far,
// keyed by fine flat index fy*fnx + fx. Cells of size cell (in
// fine-lattice units, aligned to multiples of cell) whose four corners
// are all simulated and whose corner currents span at least threshold ×
// the global range of simulated currents contribute their four edge
// midpoints and centre; points shared by neighbouring refined cells
// appear once, and the plan lists fine flat indices in ascending order.
// Memory and time are proportional to the simulated points, never to
// the lattice. Pure arithmetic on deterministic inputs, so the plan —
// and everything scheduled from it — is worker-count- and
// schedule-invariant.
func RefinePlan(fnx, fny int, simulated map[int]float64, cell int, threshold float64) []int {
	if threshold <= 0 {
		threshold = defaultRefineThreshold
	}
	if len(simulated) == 0 {
		return nil
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range simulated {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	cut := threshold * (hi - lo)
	half := cell / 2
	want := map[int]bool{}
	// Every candidate cell is found once, from its top-left corner.
	for idx, v := range simulated {
		fx, fy := idx%fnx, idx/fnx
		if fx%cell != 0 || fy%cell != 0 || fx+cell >= fnx || fy+cell >= fny {
			continue
		}
		cLo, cHi := v, v
		corners := true
		for _, c := range [3]int{idx + cell, idx + cell*fnx, idx + cell*fnx + cell} {
			w, ok := simulated[c]
			if !ok {
				corners = false
				break
			}
			cLo, cHi = min(cLo, w), max(cHi, w)
		}
		span := cHi - cLo
		if !corners || span < cut || span <= 0 {
			continue
		}
		for _, p := range [5]int{
			idx + half, idx + half*fnx, idx + half*fnx + cell,
			idx + cell*fnx + half, idx + half*fnx + half,
		} {
			if _, ok := simulated[p]; !ok {
				want[p] = true
			}
		}
	}
	if len(want) == 0 {
		return nil
	}
	out := make([]int, 0, len(want))
	for p := range want {
		out = append(out, p)
	}
	sort.Ints(out)
	return out
}

// Interpolate fills every unsimulated point of a refined map's fine
// lattice, I[fy][fx] with simulated marking the points that ran, by
// successive dyadic subdivision from the coarse cell size 2^depth down:
// edge midpoints become the mean of their two endpoints and centres the
// mean of the four corners. After the pass at cell size s every point
// on the s/2 lattice is known, so the recursion bottoms out with the
// whole lattice filled. Pure arithmetic on deterministic inputs — the
// filled map is as schedule-invariant as the simulated one.
func Interpolate(I [][]float64, simulated [][]bool, depth int) {
	fny := len(I)
	if fny == 0 {
		return
	}
	fnx := len(I[0])
	known := make([][]bool, fny)
	for iy := range known {
		known[iy] = append([]bool(nil), simulated[iy]...)
	}
	for cell := 1 << depth; cell >= 2; cell >>= 1 {
		half := cell / 2
		for fy := 0; fy+cell < fny; fy += cell {
			for fx := 0; fx+cell < fnx; fx += cell {
				// Horizontal and vertical edge midpoints on the top and
				// left edges; the bottom and right edges belong to
				// neighbouring cells except on the lattice boundary.
				type edge struct{ px, py, ax, ay, bx, by int }
				edges := [...]edge{
					{fx + half, fy, fx, fy, fx + cell, fy},
					{fx, fy + half, fx, fy, fx, fy + cell},
					{fx + half, fy + cell, fx, fy + cell, fx + cell, fy + cell},
					{fx + cell, fy + half, fx + cell, fy, fx + cell, fy + cell},
				}
				for _, e := range edges {
					if !known[e.py][e.px] {
						I[e.py][e.px] = 0.5 * (I[e.ay][e.ax] + I[e.by][e.bx])
						known[e.py][e.px] = true
					}
				}
				if !known[fy+half][fx+half] {
					I[fy+half][fx+half] = 0.25 * (I[fy][fx] + I[fy][fx+cell] +
						I[fy+cell][fx] + I[fy+cell][fx+cell])
					known[fy+half][fx+half] = true
				}
			}
		}
	}
}
