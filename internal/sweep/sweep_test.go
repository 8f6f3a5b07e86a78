package sweep_test

// The sweeps and maps this package plans run as decks on the jobs
// runner, the one executor. These tests drive them end to end: the
// shape of a planned I-V sweep or map, its invariance to the worker
// count, and — against rebuildPoint, a from-scratch reimplementation
// of one task — the seeds and bit-exact results its points get.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"semsim/internal/jobs"
	"semsim/internal/netlist"
	"semsim/internal/noise"
	"semsim/internal/obs"
	"semsim/internal/rng"
	"semsim/internal/solver"
	"semsim/internal/sweep"
)

// setDeck is the standard test SET (R = 1 MΩ, C = 1 aF per junction,
// Cg = 3 aF, so e/CΣ = 32 mV and the gate period e/Cg = 53.4 mV) with
// source node 1, drain node 2, gate node 3 and the drain junction 2
// recorded, followed by the deck's sweep or map and solver lines.
func setDeck(t *testing.T, lines ...string) *netlist.Deck {
	t.Helper()
	src := `
junc 1 1 4 1e-6 1e-18
junc 2 4 2 1e-6 1e-18
cap 3 4 3e-18
vdc 1 0
vdc 2 0
vdc 3 0
temp 5
` + strings.Join(lines, "\n") + "\n"
	d, err := netlist.Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func execute(t *testing.T, d *netlist.Deck, workers int) []jobs.Point {
	t.Helper()
	pts, err := jobs.ExecuteDeck(context.Background(), d, jobs.Overrides{}, jobs.RunConfig{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	return pts
}

// withObserver installs a fresh global observer for the test.
func withObserver(t *testing.T) *obs.Registry {
	t.Helper()
	o := obs.New(obs.Config{})
	obs.SetGlobal(o)
	t.Cleanup(func() { obs.SetGlobal(nil) })
	return o.Registry()
}

// samePoints asserts bit-identical points: coordinates, flags, event
// counts, currents and (printed in shortest round-trip form, so equal
// text is equal bits) noise statistics.
func samePoints(t *testing.T, want, got []jobs.Point, label string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d points, want %d", label, len(got), len(want))
	}
	for i := range want {
		w, g := want[i], got[i]
		if w.SweepV != g.SweepV || w.Y != g.Y || w.Blockaded != g.Blockaded || w.Events != g.Events ||
			len(w.Current) != len(g.Current) {
			t.Fatalf("%s: point %d differs:\nwant %+v\ngot  %+v", label, i, w, g)
		}
		for j, c := range w.Current {
			if g.Current[j] != c {
				t.Fatalf("%s: point %d junction %d current %g, want %g (bit-exact)", label, i, j, g.Current[j], c)
			}
		}
		if ws, gs := fmt.Sprintf("%v", w.Noise), fmt.Sprintf("%v", g.Noise); ws != gs {
			t.Fatalf("%s: point %d noise statistics differ:\nwant %s\ngot  %s", label, i, ws, gs)
		}
	}
}

// bias is the netlist node -> volts map realizing an executed point:
// the swept source and its mirror, or the map's two axis sources.
func bias(spec *netlist.Spec, p jobs.Point) map[int]float64 {
	if sw := spec.Sweep; sw != nil {
		over := map[int]float64{sw.Node: p.SweepV}
		if sw.Mirror >= 0 {
			over[sw.Mirror] = -p.SweepV
		}
		return over
	}
	return map[int]float64{spec.Map.X.Node: p.SweepV, spec.Map.Y.Node: p.Y}
}

// fineLattice is a map deck's fully refined axes.
func fineLattice(spec *netlist.Spec) (xs, ys []float64) {
	return sweep.RefineAxis(spec.Map.X.Values(), spec.Map.Depth),
		sweep.RefineAxis(spec.Map.Y.Values(), spec.Map.Depth)
}

// fineIndex is a map point's flat index fy*fnx + fx on the fine
// lattice. Points sit exactly on lattice values, so the lookup is exact.
func fineIndex(t *testing.T, xs, ys []float64, p jobs.Point) int {
	t.Helper()
	fx, fy := slices.Index(xs, p.SweepV), slices.Index(ys, p.Y)
	if fx < 0 || fy < 0 {
		t.Fatalf("point (%g, %g) is off the fine lattice", p.SweepV, p.Y)
	}
	return fy*len(xs) + fx
}

// rebuildPoint is the rebuild-per-point reference that compile-once
// sessions replaced: it compiles the deck afresh at one operating
// point's bias, seeds a new solver with rng.Derive(seed, fine, 0), warms
// up for a fifth of the deck's budget, resets the measurement, runs the
// measured window and folds the single run into a point. With omegas
// non-nil it records noise on the deck's first recorded junction at
// those angular frequencies, with an auto-calibrated counting window.
func rebuildPoint(t *testing.T, d *netlist.Deck, p jobs.Point, fine int, omegas []float64) jobs.Point {
	t.Helper()
	spec := d.Spec
	cc, err := d.Compile(bias(&spec, p))
	if err != nil {
		t.Fatal(err)
	}
	s, err := solver.New(cc.Circuit, solver.Options{
		Temp:         spec.Temp,
		Cotunneling:  spec.Cotunnel,
		Adaptive:     spec.Adaptive,
		Alpha:        spec.Alpha,
		RefreshEvery: spec.RefreshEvery,
		Seed:         rng.Derive(spec.Seed, uint64(fine), 0),
		RateTables:   spec.RateTables,
	})
	if err != nil {
		t.Fatal(err)
	}
	j0 := spec.RecordJuncs[0]
	if omegas != nil {
		if err := s.EnableNoise(noise.Config{Juncs: []noise.JuncConfig{{Junc: cc.Junc[j0], Omegas: omegas}}}); err != nil {
			t.Fatal(err)
		}
	}
	out := jobs.Point{SweepV: p.SweepV, Y: p.Y, Current: map[int]float64{}}
	blockaded := func(err error) bool {
		if errors.Is(err, solver.ErrBlockaded) {
			out.Blockaded = true
			return true
		}
		if err != nil {
			t.Fatal(err)
		}
		return false
	}
	foldNoise := func(rs ...noise.RunStats) {
		if omegas != nil {
			out.Noise = map[int]noise.Stats{j0: noise.Fold(rs)}
		}
	}
	if _, err := s.Run(spec.Jumps/5, spec.MaxTime/5); blockaded(err) {
		foldNoise()
		return out
	}
	s.AutoNoiseWindows()
	s.ResetMeasurement()
	start := s.Stats().Events
	if _, err := s.Run(spec.Jumps, spec.MaxTime); blockaded(err) {
		foldNoise()
		return out
	}
	out.Events = s.Stats().Events - start
	for _, j := range spec.RecordJuncs {
		out.Current[j] = s.JunctionCurrent(cc.Junc[j])
	}
	if st, ok := s.NoiseStats(cc.Junc[j0]); ok {
		foldNoise(st)
	}
	return out
}

// An I-V sweep of the SET at 5 K, bias mirrored onto the drain so the
// 9 points span Vds = ±40 mV: mirrored bias values with the middle one
// exactly zero, blockaded in the middle, antisymmetric, and the same
// current through both junctions of the island.
func TestIVShape(t *testing.T) {
	d := setDeck(t, "sweep 1 0.02 0.005", "symm 2", "record 1 2", "jumps 15000", "seed 100")
	pts := execute(t, d, 1)
	if len(pts) != 9 {
		t.Fatalf("points = %d", len(pts))
	}
	for i, p := range pts {
		if i != 4 && math.Float64bits(p.SweepV) != math.Float64bits(-pts[8-i].SweepV) {
			t.Fatalf("bias %d = %g does not mirror bias %d = %g", i, p.SweepV, 8-i, pts[8-i].SweepV)
		}
	}
	first, mid, last := pts[0].Current[2], pts[4], pts[8].Current[2]
	if mid.SweepV != 0 || math.Signbit(mid.SweepV) {
		t.Fatalf("midpoint X = %g", mid.SweepV)
	}
	if math.Abs(mid.Current[2]) > 0.1*math.Abs(last) {
		t.Fatalf("blockade center current %g vs edge %g", mid.Current[2], last)
	}
	if last <= 0 || first >= 0 {
		t.Fatalf("edge currents have wrong sign: %g, %g", first, last)
	}
	if math.Abs(first+last) > 0.15*math.Abs(last) {
		t.Fatalf("I-V not antisymmetric: %g vs %g", first, last)
	}
	for _, p := range []jobs.Point{pts[0], pts[8]} {
		if in, out := p.Current[1], p.Current[2]; math.Abs(in-out) > 0.01*math.Abs(out) {
			t.Fatalf("Vds = %g: %g A into the island, %g A out", 2*p.SweepV, in, out)
		}
	}
}

// A sweep folds to the same bits at any worker count.
func TestIVDeterministicUnderParallelism(t *testing.T) {
	d := setDeck(t, "sweep 1 0.021 0.007", "symm 2", "record 1 2", "jumps 3000", "seed 7")
	ref := execute(t, d, 1)
	if len(ref) != 7 {
		t.Fatalf("points = %d", len(ref))
	}
	for _, workers := range []int{2, 8} {
		samePoints(t, ref, execute(t, d, workers), fmt.Sprintf("%d workers", workers))
	}
}

// A stability map's coarse grid comes back row-major at the grid's own
// values, and shows the gate's physics: at the half period e/(2Cg) the
// blockade lifts, so that row conducts more at small bias than Vg = 0,
// and a full period e/Cg later the Vg = 0 row repeats.
func TestMap2DShapeAndSymmetry(t *testing.T) {
	d := setDeck(t, "map x 1 -0.04 0.04 5", "map y 3 0 0.0534 3", "record 2", "jumps 8000", "seed 11")
	pts := execute(t, d, 2)
	xs, ys := d.Spec.Map.X.Values(), d.Spec.Map.Y.Values()
	if len(pts) != 3*5 {
		t.Fatalf("grid has %d points, want 3x5", len(pts))
	}
	for i, p := range pts {
		if p.SweepV != xs[i%5] || p.Y != ys[i/5] {
			t.Fatalf("point %d at (%g, %g), want (%g, %g)", i, p.SweepV, p.Y, xs[i%5], ys[i/5])
		}
	}
	row := func(iy, ix int) float64 { return pts[iy*5+ix].Current[2] }
	if math.Abs(row(1, 3)) <= math.Abs(row(0, 3)) || math.Abs(row(1, 3)) <= math.Abs(row(2, 3)) {
		t.Fatalf("degeneracy row should conduct more at 20 mV: %g vs %g, %g", row(1, 3), row(0, 3), row(2, 3))
	}
	for _, ix := range []int{0, 4} {
		if a, b := row(0, ix), row(2, ix); math.Abs(a-b) > 0.15*math.Abs(a) {
			t.Fatalf("gate period broken at x = %g: I(Vg=0) = %g, I(Vg=e/Cg) = %g", xs[ix], a, b)
		}
	}
}

// A map without `refine` is depth 0: the planner adds no wave and skips
// no lattice point, and the coarse points are the bits a fresh build
// gives at their grid index.
func TestMap2DRefinedDepthZero(t *testing.T) {
	reg := withObserver(t)
	d := setDeck(t, "map x 1 -0.04 0.04 5", "map y 3 0 0.0267 2", "record 2", "jumps 2000", "seed 11")
	pts := execute(t, d, 2)
	const coarse = 5 * 2
	if len(pts) != coarse {
		t.Fatalf("depth 0 simulated %d points, want the %d-point coarse grid", len(pts), coarse)
	}
	if total := reg.Gauge("sweep.points_total").Value(); total != coarse {
		t.Fatalf("points_total %g, want %d", total, coarse)
	}
	if skipped := reg.Gauge("sweep.points_skipped").Value(); skipped != 0 {
		t.Fatalf("depth 0 skipped %g lattice points", skipped)
	}
	if waves := reg.Counter("jobs.refine_waves").Value(); waves != 0 {
		t.Fatalf("depth 0 ran %d refinement waves", waves)
	}
	for i, p := range pts {
		samePoints(t, []jobs.Point{rebuildPoint(t, d, p, i, nil)}, []jobs.Point{p}, fmt.Sprintf("grid point %d", i))
	}
}

// A refined map is worker-count invariant, and so is the full lattice
// Interpolate fills from it: refinement decisions are made per level
// from folded currents, and seeds are positional.
func TestMap2DRefinedDeterministicUnderParallelism(t *testing.T) {
	d := setDeck(t, "map x 1 -0.05 0.05 4", "map y 3 0 0.04 3", "refine 2", "record 2", "jumps 2000", "seed 17")
	xs, ys := fineLattice(&d.Spec)
	lattice := func(pts []jobs.Point) [][]float64 {
		I := make([][]float64, len(ys))
		sim := make([][]bool, len(ys))
		for iy := range I {
			I[iy], sim[iy] = make([]float64, len(xs)), make([]bool, len(xs))
		}
		for _, p := range pts {
			f := fineIndex(t, xs, ys, p)
			I[f/len(xs)][f%len(xs)], sim[f/len(xs)][f%len(xs)] = p.Current[2], true
		}
		sweep.Interpolate(I, sim, d.Spec.Map.Depth)
		return I
	}
	a := execute(t, d, 1)
	if len(a) <= 4*3 {
		t.Fatalf("no refinement happened: %d points", len(a))
	}
	b := execute(t, d, 7)
	samePoints(t, a, b, "7 workers")
	la, lb := lattice(a), lattice(b)
	for iy := range la {
		for ix := range la[iy] {
			if math.Float64bits(la[iy][ix]) != math.Float64bits(lb[iy][ix]) {
				t.Fatalf("lattice point (%d,%d) differs across workers: %g vs %g", ix, iy, la[iy][ix], lb[iy][ix])
			}
		}
	}
}

// Refinement finds the Coulomb-diamond structure: it simulates more
// than the coarse grid but less than the fine lattice, and every point
// it simulates is bit-identical to a fresh build at the same fine
// lattice index — the point a uniform fine map would compute there.
func TestMap2DRefinedMatchesUniformFine(t *testing.T) {
	d := setDeck(t, "map x 1 -0.06 0.06 5", "map y 3 0 0.0534 4", "refine 2 0.3", "record 2", "jumps 2000", "seed 33")
	xs, ys := fineLattice(&d.Spec)
	if len(xs) != 4*4+1 || len(ys) != 3*4+1 {
		t.Fatalf("fine lattice %dx%d", len(xs), len(ys))
	}
	pts := execute(t, d, 2)
	if len(pts) <= 5*4 || len(pts) >= len(xs)*len(ys) {
		t.Fatalf("simulated %d points: want more than the %d coarse and fewer than the %d lattice points",
			len(pts), 5*4, len(xs)*len(ys))
	}
	for _, p := range pts {
		f := fineIndex(t, xs, ys, p)
		samePoints(t, []jobs.Point{rebuildPoint(t, d, p, f, nil)}, []jobs.Point{p}, fmt.Sprintf("fine point %d", f))
	}
}
