package sweep

import (
	"context"
	"sync"

	"semsim/internal/circuit"
	"semsim/internal/noise"
	"semsim/internal/obs"
	"semsim/internal/solver"
)

// OverrideFunc maps a sweep coordinate to the DC source overrides
// (circuit node id → volts) that realize it on a session's base
// circuit. For 1-D sweeps y is always 0. The returned map may be reused
// across calls; the solver copies the values on Reset.
type OverrideFunc func(x, y float64) map[int]float64

// SessionFunc constructs a worker-local Session. Sweep drivers call it
// once per worker goroutine — a Session wraps a single solver.Sim and
// is not safe for concurrent use — so a sweep pays one circuit
// compilation per worker instead of one per point.
type SessionFunc func() (*Session, error)

// Session is the compile-once half of the amortized sweep engine: it
// owns one long-lived solver.Sim whose compiled artifacts (CSR
// capacitance matrix, Cholesky factor, truncated C⁻¹ rows, flat kernel
// tables, worker pool) are reused across sweep points via solver.Reset.
// Results are bit-identical to the rebuild path (IV/Map2D) at the same
// point index: RunPoint derives the same per-point seed and the reset
// simulation follows the same trajectory a fresh build would.
type Session struct {
	sim  *solver.Sim
	junc int
	over OverrideFunc
	cfg  Config
}

// NewSession compiles base once under cfg.Options and prepares it for
// per-point reuse. junc is the junction whose current each point
// reports; over translates sweep coordinates into DC overrides on base.
// The base circuit's own bias values never influence results — every
// RunPoint installs a full override set for its coordinate.
func NewSession(base *circuit.Circuit, junc int, over OverrideFunc, cfg Config) (*Session, error) {
	cfg.Options = pointOptions(cfg, 0)
	sim, err := solver.New(base, cfg.Options)
	if err != nil {
		return nil, err
	}
	obs.Global().SessionBuild()
	return &Session{sim: sim, junc: junc, over: over, cfg: cfg}, nil
}

// EnableNoise attaches a streaming noise/FCS recorder (internal/noise)
// to the session's simulation: every subsequent RunPoint accumulates
// counting-window cumulants and spectral sums for the configured
// junctions, readable through NoiseStats after the point returns.
// Recording is passive (points are bit-identical with or without it)
// and resets with the solver on every RunPoint, so a reused session's
// noise measurement matches a freshly built session's exactly — the
// session-reuse regression test asserts this bit-for-bit.
func (s *Session) EnableNoise(cfg noise.Config) error {
	return s.sim.EnableNoise(cfg)
}

// NoiseStats reads junction j's noise statistics over the measurement
// window of the most recent RunPoint; ok is false when j is not
// recorded.
func (s *Session) NoiseStats(j int) (noise.RunStats, bool) {
	return s.sim.NoiseStats(j)
}

// RunPoint simulates one sweep point on the reused Sim. idx is the
// point's flat index in the sweep (the fine-lattice index for refined
// maps): the per-point seed is Options.Seed + idx, exactly what a fresh
// build at the same index would use, so session results are
// bit-identical to IV/Map2D and invariant to worker count and schedule.
func (s *Session) RunPoint(x, y float64, idx int) (Point, error) {
	if err := s.sim.Reset(s.cfg.Options.Seed+uint64(idx), s.over(x, y)); err != nil {
		return Point{}, err
	}
	return measurePoint(s.sim, s.junc, x, s.cfg)
}

// forEachSessionPoint fans indices [0, n) out over worker-local
// sessions: each of par workers builds one Session via newSession and
// processes points with it. point must write its own results (indices
// are distinct, so no locking is needed) and return a fully wrapped
// error; the first error by any worker (session construction first,
// then point errors in index order) is returned after all workers
// drain. Cancellation mirrors IVCtx: in-flight points finish, queued
// ones are skipped.
func forEachSessionPoint(ctx context.Context, newSession SessionFunc, n int, cfg Config, point func(s *Session, i int) error) error {
	errs := make([]error, n)
	par := parallelism(cfg)
	sessErrs := make([]error, par)
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sess, err := newSession()
			if err != nil {
				sessErrs[w] = err
				for range work { // keep the feeder from blocking
				}
				return
			}
			for i := range work {
				if ctx.Err() != nil {
					errs[i] = ctx.Err()
					continue
				}
				errs[i] = point(sess, i)
			}
		}(w)
	}
	for i := 0; i < n; i++ {
		work <- i
	}
	close(work)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	for _, err := range sessErrs {
		if err != nil {
			return err
		}
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// IVSession is IV with compile-once solver reuse: each worker builds
// one Session and Resets it per point. Bit-identical results to IV.
func IVSession(newSession SessionFunc, xs []float64, cfg Config) ([]Point, error) {
	return IVSessionCtx(context.Background(), newSession, xs, cfg)
}

// IVSessionCtx is IVSession with cooperative cancellation (see IVCtx).
func IVSessionCtx(ctx context.Context, newSession SessionFunc, xs []float64, cfg Config) ([]Point, error) {
	defer obs.GlobalSpan("sweep.iv").End()
	obs.Global().SweepTotal(len(xs))
	pts := make([]Point, len(xs))
	err := forEachSessionPoint(ctx, newSession, len(xs), cfg, func(s *Session, i int) error {
		pt, err := s.RunPoint(xs[i], 0, i)
		if err != nil {
			return &PointError{Index: i, X: xs[i], Err: err}
		}
		pts[i] = pt
		return nil
	})
	if err != nil {
		return nil, err
	}
	return pts, nil
}

// Map2DSession is Map2D with compile-once solver reuse. Bit-identical
// results to Map2D.
func Map2DSession(newSession SessionFunc, xs, ys []float64, cfg Config) ([][]float64, error) {
	return Map2DSessionCtx(context.Background(), newSession, xs, ys, cfg)
}

// Map2DSessionCtx is Map2DSession with cooperative cancellation.
func Map2DSessionCtx(ctx context.Context, newSession SessionFunc, xs, ys []float64, cfg Config) ([][]float64, error) {
	defer obs.GlobalSpan("sweep.map2d").End()
	obs.Global().SweepTotal(len(xs) * len(ys))
	grid := make([][]float64, len(ys))
	for iy := range grid {
		grid[iy] = make([]float64, len(xs))
	}
	err := forEachSessionPoint(ctx, newSession, len(xs)*len(ys), cfg, func(s *Session, i int) error {
		ix, iy := i%len(xs), i/len(xs)
		pt, err := s.RunPoint(xs[ix], ys[iy], i)
		if err != nil {
			return &PointError{Index: i, X: xs[ix], Y: ys[iy], Is2D: true, Err: err}
		}
		grid[iy][ix] = pt.I
		return nil
	})
	if err != nil {
		return nil, err
	}
	return grid, nil
}
