// Package sweep drives families of Monte Carlo runs across bias or
// gate voltages: the I-V curves of Fig. 1 and the two-dimensional
// stability map of Fig. 5. Sweep points are independent simulations and
// run in parallel across CPUs, each with a deterministic per-point
// seed.
package sweep

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"semsim/internal/circuit"
	"semsim/internal/obs"
	"semsim/internal/solver"
)

// PointError reports a sweep point that failed, carrying enough context
// to reproduce it in isolation: the flat point index (row-major for 2-D
// maps) and the swept value(s). The underlying cause is available via
// errors.Unwrap / errors.Is.
type PointError struct {
	Index int     // flat index into the sweep (iy*len(xs)+ix for maps)
	X     float64 // swept value (first axis)
	Y     float64 // second-axis value; meaningful only when Is2D
	Is2D  bool
	Err   error
}

func (e *PointError) Error() string {
	if e.Is2D {
		return fmt.Sprintf("sweep: point %d (x=%g, y=%g): %v", e.Index, e.X, e.Y, e.Err)
	}
	return fmt.Sprintf("sweep: point %d (x=%g): %v", e.Index, e.X, e.Err)
}

func (e *PointError) Unwrap() error { return e.Err }

// Point is one sweep sample.
type Point struct {
	X float64 // swept variable (volts)
	I float64 // measured current (amperes)
	// Blockaded marks points where no event was ever possible (hard
	// Coulomb blockade): the current is exactly zero.
	Blockaded bool
}

// BuildFunc constructs a fresh circuit for a sweep value and returns it
// together with the junction whose current is measured.
type BuildFunc func(v float64) (*circuit.Circuit, int, error)

// Config tunes the per-point Monte Carlo runs.
type Config struct {
	Options    solver.Options
	WarmEvents uint64  // discarded before measuring
	Events     uint64  // measured events per point
	MaxTime    float64 // simulated-time cap per point (0 = none)
	Parallel   int     // worker goroutines; 0 = GOMAXPROCS
}

// IV runs one simulation per value in xs and returns the points in
// order. Each point gets seed Options.Seed + index so results are
// reproducible regardless of scheduling.
func IV(build BuildFunc, xs []float64, cfg Config) ([]Point, error) {
	return IVCtx(context.Background(), build, xs, cfg)
}

// IVCtx is IV with cooperative cancellation: once ctx is canceled, no
// new point starts and IVCtx returns ctx's error (points already in
// flight run to completion — a point is the smallest unit of work).
// Batch drivers (the jobs engine, semsimd) use this to stop abandoned
// sweeps promptly.
func IVCtx(ctx context.Context, build BuildFunc, xs []float64, cfg Config) ([]Point, error) {
	defer obs.GlobalSpan("sweep.iv").End()
	obs.Global().SweepTotal(len(xs))
	pts := make([]Point, len(xs))
	errs := make([]error, len(xs))
	par := parallelism(cfg)
	var wg sync.WaitGroup
	work := make(chan int)
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				if ctx.Err() != nil {
					errs[i] = ctx.Err()
					continue
				}
				pts[i], errs[i] = runPoint(build, xs[i], i, cfg)
			}
		}()
	}
	for i := range xs {
		work <- i
	}
	close(work)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for i, err := range errs {
		if err != nil {
			return nil, &PointError{Index: i, X: xs[i], Err: err}
		}
	}
	return pts, nil
}

// parallelism resolves the worker count for a sweep.
func parallelism(cfg Config) int {
	if cfg.Parallel > 0 {
		return cfg.Parallel
	}
	return runtime.GOMAXPROCS(0)
}

// pointOptions derives the per-point solver options: deterministic seed
// from the flat point index.
func pointOptions(cfg Config, idx int) solver.Options {
	opt := cfg.Options
	opt.Seed += uint64(idx)
	return opt
}

func runPoint(build BuildFunc, x float64, idx int, cfg Config) (Point, error) {
	c, junc, err := build(x)
	if err != nil {
		return Point{}, err
	}
	s, err := solver.New(c, pointOptions(cfg, idx))
	if err != nil {
		return Point{}, err
	}
	return measurePoint(s, junc, x, cfg)
}

// measurePoint is the measurement phase shared by the rebuild path
// (runPoint) and the compile-once session path (Session.RunPoint): warm
// up, reset the measurement window, run, read the junction current.
func measurePoint(s *solver.Sim, junc int, x float64, cfg Config) (Point, error) {
	defer obs.GlobalSpan("sweep.point").End()
	defer obs.Global().SweepPointDone()
	if _, err := s.Run(cfg.WarmEvents, cfg.MaxTime/5); err != nil {
		if err == solver.ErrBlockaded {
			return Point{X: x, I: 0, Blockaded: true}, nil
		}
		return Point{}, err
	}
	// Auto counting windows of an attached noise recorder calibrate
	// from the warm-up rate, exactly as the jobs engine's warm phase
	// does (no-op without a recorder).
	s.AutoNoiseWindows()
	s.ResetMeasurement()
	if _, err := s.Run(cfg.Events, cfg.MaxTime); err != nil {
		if err == solver.ErrBlockaded {
			return Point{X: x, I: 0, Blockaded: true}, nil
		}
		return Point{}, err
	}
	return Point{X: x, I: s.JunctionCurrent(junc)}, nil
}

// Conductance differentiates an I-V curve numerically (central
// differences, one-sided at the ends), producing the dI/dV trace whose
// 2-D version is the Coulomb-diamond stability diagram of SET device
// research. The input points must be sorted in X.
func Conductance(pts []Point) []Point {
	out := make([]Point, len(pts))
	for i := range pts {
		lo, hi := i-1, i+1
		if lo < 0 {
			lo = 0
		}
		if hi >= len(pts) {
			hi = len(pts) - 1
		}
		dv := pts[hi].X - pts[lo].X
		g := 0.0
		if dv != 0 {
			g = (pts[hi].I - pts[lo].I) / dv
		}
		out[i] = Point{X: pts[i].X, I: g}
	}
	return out
}

// Build2DFunc constructs a circuit for a (x, y) grid point.
type Build2DFunc func(x, y float64) (*circuit.Circuit, int, error)

// runPoint2D is runPoint for grid points; calling build directly (rather
// than adapting it through a BuildFunc closure) keeps the per-point path
// allocation-free outside the solver itself.
func runPoint2D(build Build2DFunc, x, y float64, idx int, cfg Config) (Point, error) {
	c, junc, err := build(x, y)
	if err != nil {
		return Point{}, err
	}
	s, err := solver.New(c, pointOptions(cfg, idx))
	if err != nil {
		return Point{}, err
	}
	return measurePoint(s, junc, x, cfg)
}

// Map2D computes the current on a ys-by-xs grid (row-major: result[iy][ix]),
// the shape of the paper's Fig. 5 contour data.
func Map2D(build Build2DFunc, xs, ys []float64, cfg Config) ([][]float64, error) {
	return Map2DCtx(context.Background(), build, xs, ys, cfg)
}

// Map2DCtx is Map2D with cooperative cancellation, mirroring IVCtx:
// canceled grids stop scheduling new points and return ctx's error.
func Map2DCtx(ctx context.Context, build Build2DFunc, xs, ys []float64, cfg Config) ([][]float64, error) {
	defer obs.GlobalSpan("sweep.map2d").End()
	obs.Global().SweepTotal(len(xs) * len(ys))
	grid := make([][]float64, len(ys))
	for iy := range grid {
		grid[iy] = make([]float64, len(xs))
	}
	type job struct{ ix, iy int }
	jobs := make(chan job)
	errs := make([]error, len(xs)*len(ys))
	par := parallelism(cfg)
	var wg sync.WaitGroup
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				idx := j.iy*len(xs) + j.ix
				if ctx.Err() != nil {
					errs[idx] = ctx.Err()
					continue
				}
				pt, err := runPoint2D(build, xs[j.ix], ys[j.iy], idx, cfg)
				if err != nil {
					errs[idx] = err
					continue
				}
				grid[j.iy][j.ix] = pt.I
			}
		}()
	}
	for iy := range ys {
		for ix := range xs {
			jobs <- job{ix: ix, iy: iy}
		}
	}
	close(jobs)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for idx, err := range errs {
		if err != nil {
			ix, iy := idx%len(xs), idx/len(xs)
			return nil, &PointError{Index: idx, X: xs[ix], Y: ys[iy], Is2D: true, Err: err}
		}
	}
	return grid, nil
}
