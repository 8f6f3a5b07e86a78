// Command stability computes a two-dimensional stability diagram from
// a netlist deck: the recorded junction current (or its numerical
// dI/dVx — the classic Coulomb-diamond view) over a grid of two DC
// source voltages. Each worker compiles the circuit once and re-seeds
// its solver per point (bit-identical to rebuilding), and with
// refinement enabled the grid is simulated coarsely and subdivided only
// where the current shows contrast — the diamond edges — so large maps
// cost a fraction of a uniform fine grid.
//
// The axes come from the deck's `map` directives when present (and
// `refine` sets the default refinement depth), or from the -x/-y flags:
//
//	stability input.cir                                  # deck has map/refine lines
//	stability -x 1 -xmax 0.002 -y 2 -ymax 0.01 input.cir # explicit axes
//	stability -refine 3 -threshold 0.1 input.cir         # override refinement
//
// Output: a whitespace matrix (rows = y, cols = x) preceded by header
// comments, suitable for gnuplot's `plot '...' matrix nonuniform`.
// With refinement the matrix covers the full fine lattice; points the
// refiner skipped are dyadically interpolated, and the header reports
// the simulated/total counts.
package main

import (
	"flag"
	"fmt"
	"os"

	"semsim"
	"semsim/internal/numeric"
)

var (
	xNode     = flag.Int("x", -1, "netlist node whose DC source sweeps along x (default: the deck's `map x` line)")
	yNode     = flag.Int("y", -1, "netlist node whose DC source sweeps along y (default: the deck's `map y` line)")
	xMin      = flag.Float64("xmin", 0, "x sweep start (V)")
	xMax      = flag.Float64("xmax", 0, "x sweep end (V)")
	yMin      = flag.Float64("ymin", 0, "y sweep start (V)")
	yMax      = flag.Float64("ymax", 0, "y sweep end (V)")
	nx        = flag.Int("nx", 41, "x grid points (coarse grid when refining)")
	ny        = flag.Int("ny", 31, "y grid points (coarse grid when refining)")
	depth     = flag.Int("refine", -1, "dyadic refinement levels; each halves the cell size (-1: the deck's `refine` line, 0: uniform grid)")
	threshold = flag.Float64("threshold", 0, "refine cells whose corner currents span this fraction of the global range (0 = deck value or 0.1)")
	maxPoints = flag.Int("max-points", 0, "cap on simulated fine points (0 = unlimited)")
	workers   = flag.Int("workers", 0, "concurrent point workers, one compiled solver each (0 = GOMAXPROCS)")
	deriv     = flag.Bool("g", false, "output dI/dVx (Coulomb-diamond conductance) instead of current")
	out       = flag.String("o", "", "output file (default stdout)")
)

func main() {
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: stability [-x N -xmax V -y M -ymax V] [-refine d] [flags] input.cir")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	f, err := os.Open(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	deck, err := semsim.ParseNetlist(f)
	f.Close()
	if err != nil {
		fatal(err)
	}
	if len(deck.Spec.RecordJuncs) == 0 {
		fatal(fmt.Errorf("deck must record at least one junction"))
	}
	rec := deck.Spec.RecordJuncs[0]
	if deck.Spec.Jumps == 0 && deck.Spec.MaxTime == 0 {
		fatal(fmt.Errorf("deck must set 'jumps' and/or 'time'"))
	}

	// Axes: explicit flags win; the deck's `map` directives fill in the
	// rest; the `refine` directive sets the default depth and threshold.
	xn, yn := *xNode, *yNode
	xs := numeric.Linspace(*xMin, *xMax, max(*nx, 2))
	ys := numeric.Linspace(*yMin, *yMax, max(*ny, 2))
	rc := semsim.RefineConfig{Depth: *depth, Threshold: *threshold, MaxPoints: *maxPoints}
	if mp := deck.Spec.Map; mp != nil {
		if xn < 0 {
			xn = mp.X.Node
			xs = mp.X.Values()
		}
		if yn < 0 {
			yn = mp.Y.Node
			ys = mp.Y.Values()
		}
		if rc.Depth < 0 {
			rc.Depth = mp.Depth
		}
		if rc.Threshold <= 0 {
			rc.Threshold = mp.Threshold
		}
	}
	if rc.Depth < 0 {
		rc.Depth = 0
	}
	if xn < 0 || yn < 0 {
		fatal(fmt.Errorf("no axes: give the deck `map x`/`map y` lines or use -x/-xmax/-y/-ymax"))
	}
	if *xNode >= 0 && *xMax <= *xMin || *yNode >= 0 && *yMax <= *yMin {
		fatal(fmt.Errorf("empty axis range"))
	}

	sp := deck.Spec
	cfg := semsim.SweepConfig{
		Options: semsim.Options{
			Temp:         sp.Temp,
			Cotunneling:  sp.Cotunnel,
			Adaptive:     sp.Adaptive,
			Alpha:        sp.Alpha,
			RefreshEvery: sp.RefreshEvery,
			Seed:         sp.Seed,
			RateTables:   sp.RateTables,
		},
		WarmEvents: sp.Jumps / 5,
		Events:     sp.Jumps,
		MaxTime:    sp.MaxTime,
		Parallel:   *workers,
	}

	// One compiled circuit + solver per worker; every point re-seeds it.
	newSession := func() (*semsim.SweepSession, error) {
		cc, err := deck.Compile(nil)
		if err != nil {
			return nil, err
		}
		cx, okx := cc.Node[xn]
		cy, oky := cc.Node[yn]
		if !okx || !oky {
			return nil, fmt.Errorf("axis node missing from circuit (x=%d, y=%d)", xn, yn)
		}
		over := func(x, y float64) map[int]float64 {
			return map[int]float64{cx: x, cy: y}
		}
		return semsim.NewSweepSession(cc.Circuit, cc.Junc[rec], over, cfg)
	}

	m, err := semsim.Map2DRefined(newSession, xs, ys, cfg, rc)
	if err != nil {
		fatal(err)
	}

	w := os.Stdout
	if *out != "" {
		of, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer of.Close()
		w = of
	}
	grid := m.I
	what := "I(A)"
	if *deriv {
		what = "dI/dVx (S)"
		for iy := range grid {
			row := grid[iy]
			d := make([]float64, len(row))
			for ix := range row {
				lo, hi := max(0, ix-1), min(len(row)-1, ix+1)
				d[ix] = (row[hi] - row[lo]) / (m.Xs[hi] - m.Xs[lo])
			}
			grid[iy] = d
		}
	}
	fmt.Fprintf(w, "# stability diagram of %s: %s of junction %d\n", flag.Arg(0), what, rec)
	fmt.Fprintf(w, "# x: node %d, %g..%g V (%d); y: node %d, %g..%g V (%d)\n",
		xn, m.Xs[0], m.Xs[len(m.Xs)-1], len(m.Xs), yn, m.Ys[0], m.Ys[len(m.Ys)-1], len(m.Ys))
	fmt.Fprintf(w, "# refine depth %d: simulated %d of %d lattice points (%.1fx saving)\n",
		rc.Depth, m.PointsSimulated, m.PointsTotal,
		float64(m.PointsTotal)/float64(max(m.PointsSimulated, 1)))
	for iy, vy := range m.Ys {
		fmt.Fprintf(w, "%.6e", vy)
		for ix := range m.Xs {
			fmt.Fprintf(w, " %.5e", grid[iy][ix])
		}
		fmt.Fprintln(w)
		_ = iy
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "stability:", err)
	os.Exit(1)
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
