// Command stability renders a `map` deck as a two-dimensional stability
// diagram: the first recorded junction's current (or its numerical
// dI/dVx — the classic Coulomb-diamond view) over the deck's whole fine
// lattice. The deck runs on the same jobs runner as `semsim deck.cir`,
// so both simulate the same points with bit-identical currents. What
// this command adds is the full-lattice matrix: with `refine`, lattice
// points the refiner skipped are filled by dyadic interpolation between
// simulated neighbours, and the header reports the simulated/total
// counts.
//
//	stability [-workers n] [-g] [-o out.dat] input.cir
//
// The deck's `map x`, `map y` and `refine` lines set the axes and the
// refinement. Output: a whitespace matrix (rows = y, cols = x) preceded
// by header comments, suitable for gnuplot's
// `plot '...' matrix nonuniform`.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"

	"semsim"
	"semsim/internal/sweep"
)

var (
	workers = flag.Int("workers", 0, "concurrent (point, run) tasks, one compiled solver each (0 = GOMAXPROCS; results are identical at any value)")
	deriv   = flag.Bool("g", false, "output dI/dVx (Coulomb-diamond conductance) instead of current")
	out     = flag.String("o", "", "output file (default stdout)")
)

func main() {
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: stability [-workers n] [-g] [-o out.dat] input.cir")
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
	mp := deck.Spec.Map
	if mp == nil {
		fatal(fmt.Errorf("deck has no `map x` / `map y` lines"))
	}
	w := *workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	pts, err := semsim.RunDeckCtx(context.Background(), deck, semsim.DeckRunConfig{Workers: w})
	if err != nil {
		fatal(err)
	}

	// Place the simulated points on the fine lattice, then interpolate
	// the rest.
	xs := semsim.RefineAxis(mp.X.Values(), mp.Depth)
	ys := semsim.RefineAxis(mp.Y.Values(), mp.Depth)
	ix, iy := index(xs), index(ys)
	grid := make([][]float64, len(ys))
	simulated := make([][]bool, len(ys))
	for i := range grid {
		grid[i] = make([]float64, len(xs))
		simulated[i] = make([]bool, len(xs))
	}
	rec := deck.Spec.RecordJuncs[0]
	for _, p := range pts {
		x, y := ix[p.SweepV], iy[p.Y]
		grid[y][x] = p.Current[rec] // a blockaded point folds to 0
		simulated[y][x] = true
	}
	sweep.Interpolate(grid, simulated, mp.Depth)

	wr := os.Stdout
	if *out != "" {
		of, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer of.Close()
		wr = of
	}
	what := "I(A)"
	if *deriv {
		what = "dI/dVx (S)"
		for i, row := range grid {
			d := make([]float64, len(row))
			for x := range row {
				lo, hi := max(0, x-1), min(len(row)-1, x+1)
				d[x] = (row[hi] - row[lo]) / (xs[hi] - xs[lo])
			}
			grid[i] = d
		}
	}
	total := len(xs) * len(ys)
	fmt.Fprintf(wr, "# stability diagram of %s: %s of junction %d\n", flag.Arg(0), what, rec)
	fmt.Fprintf(wr, "# x: node %d, %g..%g V (%d); y: node %d, %g..%g V (%d)\n",
		mp.X.Node, xs[0], xs[len(xs)-1], len(xs), mp.Y.Node, ys[0], ys[len(ys)-1], len(ys))
	fmt.Fprintf(wr, "# refine depth %d: simulated %d of %d lattice points (%.1fx saving)\n",
		mp.Depth, len(pts), total, float64(total)/float64(max(len(pts), 1)))
	for i, vy := range ys {
		fmt.Fprintf(wr, "%.6e", vy)
		for _, v := range grid[i] {
			fmt.Fprintf(wr, " %.5e", v)
		}
		fmt.Fprintln(wr)
	}
}

// index maps each lattice value to its position on the axis.
func index(axis []float64) map[float64]int {
	m := make(map[float64]int, len(axis))
	for i, v := range axis {
		m[v] = i
	}
	return m
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "stability:", err)
	os.Exit(1)
}
