package jobs

import (
	"context"
	"math"
	"runtime"
	"testing"

	"semsim/internal/netlist"
	"semsim/internal/obs"
	"semsim/internal/sweep"
)

// withObserver installs a fresh global observer for the test.
func withObserver(t *testing.T) *obs.Registry {
	t.Helper()
	o := obs.New(obs.Config{})
	obs.SetGlobal(o)
	t.Cleanup(func() { obs.SetGlobal(nil) })
	return o.Registry()
}

// Sweep points come from their index: iv-cotunnel's `sweep 1 0.04 0.002`
// keeps its 41 points, the middle one is exactly 0, the ends are
// exactly ±0.04 and mirrored points negate bitwise. Accumulating
// v += step put the middle at 2.08e-17 and the end at
// 0.040000000000000042.
func TestDeckSweepPointsExact(t *testing.T) {
	spec := &netlist.Spec{Sweep: &netlist.SweepSpec{Node: 1, Mirror: 2, Max: 0.04, Step: 0.002}}
	pts := deckPoints(spec)
	n := len(pts)
	if n != 41 {
		t.Fatalf("%d points, want 41", n)
	}
	if pts[20].X != 0 || math.Signbit(pts[20].X) {
		t.Fatalf("middle point %g, want exactly +0", pts[20].X)
	}
	if pts[0].X != -0.04 || pts[n-1].X != 0.04 {
		t.Fatalf("ends %v, %v, want exactly ±0.04", pts[0].X, pts[n-1].X)
	}
	for i, p := range pts {
		if i != n/2 && math.Float64bits(p.X) != math.Float64bits(-pts[n-1-i].X) {
			t.Fatalf("v[%d] = %v is not -v[%d] = %v bitwise", i, p.X, n-1-i, -pts[n-1-i].X)
		}
		if p.Fine != i || p.over[1] != p.X || p.over[2] != -p.X {
			t.Fatalf("point %d: %+v", i, p)
		}
	}
	// Grids that do not end on +max keep the historical count and
	// values: -max and -max+step for max 0.02, step 0.03.
	max, step := 0.02, 0.03
	odd := deckPoints(&netlist.Spec{Sweep: &netlist.SweepSpec{Node: 1, Mirror: -1, Max: max, Step: step}})
	if len(odd) != 2 || odd[0].X != -max || odd[1].X != -max+step {
		t.Fatalf("asymmetric grid %+v", odd)
	}
}

// A T = 0 sweep point below the blockade threshold can make no event:
// it folds as Blockaded with exactly zero current.
func TestDeckBlockadedPointFoldsZero(t *testing.T) {
	d := parseDeck(t, `
junc 1 1 4 1e-6 1e-18
junc 2 4 2 1e-6 1e-18
cap 3 4 3e-18
vdc 1 0
vdc 2 0
vdc 3 0
sweep 1 0.005 0.005
symm 2
record 2
jumps 100
seed 3
temp 0
`)
	pts, err := ExecuteDeck(context.Background(), d, Overrides{}, RunConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("%d points", len(pts))
	}
	for _, p := range pts {
		if !p.Blockaded || p.Current[2] != 0 || p.Events != 0 {
			t.Fatalf("T=0 sub-threshold point not folded as blockaded: %+v", p)
		}
	}
}

// setDiamondDeck is a SET Coulomb-diamond map at 1 K: source bias on x
// stays well under e/C_Sigma = 32 mV, the gate on y spans two periods
// e/Cg = 53 mV, so most of the plane is deep blockade and the current's
// contrast sits on the diamond edges. A 9x9 coarse grid is refined four
// levels onto a 129x129 lattice.
const setDiamondDeck = `
junc 1 1 4 1e-6 1e-18
junc 2 2 4 1e-6 1e-18
cap 3 4 3e-18
vdc 1 0
vdc 2 0
vdc 3 0
record 1
jumps 1000
map x 1 -0.012 0.012 9
map y 3 0 0.107 9
refine 4 0.1
seed 21
temp 1
adaptive 0.05
`

// Refinement spends fine-lattice points only on the diamond edges: the
// map simulates at most a quarter of its lattice, counted exactly.
func TestMapDeckRefinementSavesFourfold(t *testing.T) {
	d := parseDeck(t, setDiamondDeck)
	pts, err := ExecuteDeck(context.Background(), d, Overrides{}, RunConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	const coarse, lattice = 9 * 9, 129 * 129
	if len(pts) <= coarse {
		t.Fatalf("no refinement: %d points", len(pts))
	}
	if 4*len(pts) > lattice {
		t.Fatalf("simulated %d of %d lattice points: less than a 4x saving", len(pts), lattice)
	}
	t.Logf("simulated %d of %d lattice points (%.1fx saving)", len(pts), lattice, float64(lattice)/float64(len(pts)))
}

// A map deck without `refine` simulates exactly its coarse grid, in
// row-major order, at the grid's own values. Its rows are gate 0 and
// the half period e/(2Cg), where the blockade lifts: that row conducts
// more at small bias.
func TestMapDeckDepthZeroSimulatesCoarseGrid(t *testing.T) {
	d := parseDeck(t, `
junc 1 1 4 1e-6 1e-18
junc 2 2 4 1e-6 1e-18
cap 3 4 3e-18
vdc 1 0
vdc 2 0
vdc 3 0
record 1
jumps 4000
map x 1 -0.04 0.04 5
map y 3 0 0.0267 2
seed 11
temp 5
`)
	pts, err := ExecuteDeck(context.Background(), d, Overrides{}, RunConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	xs, ys := d.Spec.Map.X.Values(), d.Spec.Map.Y.Values()
	if len(pts) != len(xs)*len(ys) {
		t.Fatalf("depth 0 simulated %d points, want the %d-point coarse grid", len(pts), len(xs)*len(ys))
	}
	for i, p := range pts {
		if p.SweepV != xs[i%len(xs)] || p.Y != ys[i/len(xs)] {
			t.Fatalf("point %d at (%g, %g), want (%g, %g)", i, p.SweepV, p.Y, xs[i%len(xs)], ys[i/len(xs)])
		}
	}
	gate0, degenerate := pts[3].Current[1], pts[len(xs)+3].Current[1]
	if math.Abs(degenerate) <= math.Abs(gate0) {
		t.Fatalf("degeneracy row should conduct more at 20 mV: %g vs %g", degenerate, gate0)
	}
}

// Each worker compiles the deck once and re-seeds its solver for every
// later task: at W workers over P points x R runs, at most W builds and
// exactly P·R builds plus reuses.
func TestExecuteDeckSessionReuse(t *testing.T) {
	reg := withObserver(t)
	d := parseDeck(t, testDeck) // 3 points x 2 runs
	const workers, tasks = 2, 3 * 2
	if _, err := ExecuteDeck(context.Background(), d, Overrides{}, RunConfig{Workers: workers}); err != nil {
		t.Fatal(err)
	}
	builds := reg.Counter("jobs.session_builds").Value()
	reuses := reg.Counter("jobs.session_reuses").Value()
	if builds > workers || builds+reuses != tasks {
		t.Fatalf("session builds %d, reuses %d: want builds <= %d and builds+reuses = %d", builds, reuses, workers, tasks)
	}
}

// ExecuteDeck drives the progress meter: every folded point was
// announced and marked done, and a map reports the lattice points
// refinement skipped.
func TestExecuteDeckReportsPointProgress(t *testing.T) {
	reg := withObserver(t)
	pts, err := ExecuteDeck(context.Background(), parseDeck(t, mapDeck), Overrides{}, RunConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	total := reg.Gauge("sweep.points_total").Value()
	done := reg.Counter("sweep.points_done").Value()
	skipped := reg.Gauge("sweep.points_skipped").Value()
	if total != float64(len(pts)) || done != uint64(len(pts)) {
		t.Fatalf("points_total %g, points_done %d, want both %d", total, done, len(pts))
	}
	if want := float64(13*9 - len(pts)); skipped != want {
		t.Fatalf("points_skipped %g, want %g", skipped, want)
	}
}

// Planning a refinement wave costs memory in the simulated points, not
// the lattice: a 2x2 map at `refine 12` lives on a 4097² lattice, and
// planning its first 5-point wave must stay under 1 MB.
func TestPlanRefineMemoryIndependentOfLattice(t *testing.T) {
	d := parseDeck(t, `
junc 1 1 2 1e-6 1e-18
vdc 1 0
vdc 3 0
cap 3 2 1e-18
record 1
jumps 10
map x 1 0 0.01 2
map y 3 0 0.01 2
refine 12
`)
	spec := &d.Spec
	fineXs := sweep.RefineAxis(spec.Map.X.Values(), 12)
	fineYs := sweep.RefineAxis(spec.Map.Y.Values(), 12)
	pts := deckPoints(spec)
	results := make([][]runResult, len(pts))
	for i := range results {
		results[i] = []runResult{{Current: map[int]float64{1: float64(i) * 1e-9}}}
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	next := planRefine(spec, fineXs, fineYs, pts, results, 0)
	runtime.ReadMemStats(&after)
	if len(next) != 5 {
		t.Fatalf("planned %d points, want 5", len(next))
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Fatalf("planning a 5-point wave allocated %d bytes", alloc)
	}
}
