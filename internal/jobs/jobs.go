// Package jobs is the batch execution layer: it fans a parsed deck out
// into independent (sweep point, run) tasks, executes them on a bounded
// worker pool — each task runs serially on its worker — and makes every
// run crash-safe through periodic atomic checkpoint files built on the
// solver's snapshot API.
//
// Determinism is the load-bearing property. Checkpoints are only
// written when the solver sits on a full-refresh boundary
// (Stats.Events a multiple of Sim.RefreshPeriod()), where every piece
// of derived state — adaptive testing factors, cached free-energy
// changes, node potentials, the Fenwick selection tree — is a pure
// function of the snapshotted state (time, charges, electron counts,
// RNG). Restore performs the same full refresh, so a run killed at an
// arbitrary instant and resumed from its last checkpoint produces a
// trajectory bit-identical to the uninterrupted run, in every solver
// mode (adaptive, non-adaptive, superconducting, cotunneling) and at
// any worker count. DESIGN.md §10 develops the full argument.
//
// The package offers three entry points at increasing altitude:
//
//   - RunSim: one simulation advanced with periodic checkpoints and
//     cooperative cancellation (the CLI -resume path);
//   - ExecuteDeck: a whole deck executed synchronously, optionally
//     checkpointed and resumed (what semsim.RunDeck builds on);
//   - Engine + NewHandler: asynchronous jobs with retry, timeouts and
//     graceful drain, exposed over HTTP by cmd/semsimd.
//
// ExecuteDeck and the Engine share one deck executor: a wave loop that
// lends each (point, run) task a worker from a pool and stops a deck at
// its first failure. ExecuteDeck gives each call a private pool; the
// Engine runs every job through the same loop on one pool shared by
// all jobs.
package jobs

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"semsim/internal/netlist"
	"semsim/internal/noise"
	"semsim/internal/obs"
	"semsim/internal/solver"
	"semsim/internal/sweep"
)

// ErrInterrupted reports that a run was stopped by a drain request (or
// a canceled RunSim context) after persisting a checkpoint: the work is
// incomplete but resumable, which callers must distinguish from
// failure.
var ErrInterrupted = errors.New("jobs: run interrupted; state checkpointed for resume")

// Overrides is an empty stub: every setting of a deck run lives in
// the deck itself (rate-tables, cinv-eps and record fano directives).
//
// Deprecated: ExecuteDeck ignores it. It is kept only while the
// benchmark harness still passes one.
type Overrides struct{}

// Point is one operating point of an executed deck: the swept source
// value(s) and the measured currents averaged over the deck's runs.
type Point struct {
	// SweepV is the swept source value (the map X coordinate for `map`
	// decks; 0 when the deck sweeps nothing).
	SweepV float64 `json:"sweep_v"`
	// Y is the second-axis source value of a `map` deck point.
	Y float64 `json:"y,omitempty"`
	// Current holds the measured current per recorded junction (keyed by
	// netlist junction id), averaged over the deck's runs.
	Current map[int]float64 `json:"current"`
	// Blockaded marks points where no event was possible.
	Blockaded bool `json:"blockaded,omitempty"`
	// Events is the total measured tunnel events across runs.
	Events uint64 `json:"events"`
	// Noise holds the folded noise/FCS statistics per noise-recorded
	// junction (keyed by netlist junction id); nil unless the deck has
	// `record noise` or `record fano` directives.
	Noise map[int]noise.Stats `json:"noise,omitempty"`
}

// RunConfig tunes deck execution. The zero value reproduces the
// historical semsim.RunDeck behavior exactly: sequential points, no
// checkpointing.
type RunConfig struct {
	// Dir is the checkpoint directory; empty disables checkpointing.
	Dir string
	// Every is the target number of events between checkpoints (rounded
	// up to the solver's refresh period, where snapshots are
	// bit-identical resumable). 0 means defaultCheckpointEvery.
	Every int
	// Resume loads any matching checkpoint found in Dir and continues
	// from it instead of starting the run over.
	Resume bool
	// Workers bounds how many (point, run) tasks execute concurrently;
	// 0 or 1 means sequential. Results are folded in deterministic order
	// regardless, so the output is identical at any worker count.
	Workers int
	// Stop, when closed, asks in-flight runs to checkpoint at the next
	// refresh boundary and return ErrInterrupted (graceful drain).
	Stop <-chan struct{}
	// hooks receives per-task observability callbacks (checkpoint writes,
	// resumes, per-chunk progress). Only the Engine sets it; nil (the
	// ExecuteDeck and RunSim paths) disables all task telemetry.
	hooks *taskHooks
	// session, when non-nil, is the calling worker's compile-once cache:
	// runDeckPoint reuses its compiled circuit and solver via Reset
	// instead of rebuilding per task. Bit-identical either way.
	session *deckSession
	// observer gets the run's and the solver's counters: the global one
	// for ExecuteDeck and RunSim, the Engine's own for its jobs.
	observer *obs.Observer
}

// defaultCheckpointEvery is the checkpoint cadence (in events) when
// RunConfig.Every is zero — frequent enough that a crash loses seconds
// of work, rare enough that snapshot I/O is noise.
const defaultCheckpointEvery = 1 << 15

// seedScheme names how runDeckPoint derives task seeds. It is part of
// every deck key, so checkpoints and done markers written under another
// derivation are never found, let alone resumed.
const seedScheme = "rng.Derive(seed,fine,run)"

// cinvEngine names how every build stores C^-1: truncated rows, at
// 1e-14 unless the deck says otherwise, with the adaptive test reading
// the shift each event applied. It is part of every deck key, so
// results and checkpoints written by an earlier engine (dense rows for
// decks without cinv-eps) are never served or resumed.
const cinvEngine = "truncated-rows(default=1e-14,applied-shift-test)"

// deckKey fingerprints everything that determines a run's trajectory
// and its recorded state: SHA-256 over the deck's canonical Format
// output (circuit, spec, seeds, noise windows) without its probe lines,
// which no deck run reads, the task seed derivation, the C^-1 engine and
// the solver snapshot version, truncated to 128 bits of hex. The
// version term means checkpoints an older build wrote under another
// snapshot format are not found, rather than failing their tasks.
// Checkpoint files embed and verify the key and the result cache is
// keyed on it, so a resumed or cached submission only picks up state
// that provably belongs to the same work. The key also names every
// checkpoint file, and 128 bits keep those paths short while leaving
// collisions out of reach.
func deckKey(d *netlist.Deck) (string, error) {
	var buf bytes.Buffer
	unprobed := *d
	unprobed.Spec.ProbeNodes = nil
	if err := unprobed.Format(&buf); err != nil {
		return "", err
	}
	fmt.Fprintf(&buf, "|seeds=%s|cinv=%s|snapshot=v%d", seedScheme, cinvEngine, solver.CheckpointVersion)
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:16]), nil
}

// checkpointPath names the checkpoint file of one (point, run) task.
func checkpointPath(dir, key string, point, run int) string {
	return filepath.Join(dir, fmt.Sprintf("%s-p%04d-r%03d.ckpt", key, point, run))
}

// deckPoint is one operating point of a deck in task form: the source
// values to install and the point's lattice index, which seeds the
// trajectory.
type deckPoint struct {
	X, Y float64
	// Fine is the deterministic point index used for seeds, checkpoint
	// names and done markers. For sweep decks it is the sweep ordinal;
	// for map decks it is the point's flat index on the fully refined
	// fine lattice (fy*fnx + fx), so a point simulated during refinement
	// is bit-identical to the same point of a uniform fine map — and to
	// itself regardless of which refinement wave discovered it or how
	// many workers ran.
	Fine int
	// over maps netlist node -> DC voltage realizing this point's bias.
	over map[int]float64
}

// deckPoints expands the deck's sweep or map directive into the ordered
// initial operating points ([one unbiased point] when the deck sets
// neither). Map decks start from the coarse grid placed at fine-aligned
// lattice indices; refinement waves append more points later
// (planRefine).
func deckPoints(spec *netlist.Spec) []deckPoint {
	if sw := spec.Sweep; sw != nil {
		vs := sweepValues(sw.Max, sw.Step)
		pts := make([]deckPoint, len(vs))
		for i, v := range vs {
			over := map[int]float64{sw.Node: v}
			if sw.Mirror >= 0 {
				over[sw.Mirror] = -v
			}
			pts[i] = deckPoint{X: v, Fine: i, over: over}
		}
		return pts
	}
	if mp := spec.Map; mp != nil {
		fineXs := sweep.RefineAxis(mp.X.Values(), mp.Depth)
		fineYs := sweep.RefineAxis(mp.Y.Values(), mp.Depth)
		fnx := len(fineXs)
		stride := 1 << mp.Depth
		var pts []deckPoint
		for fy := 0; fy < len(fineYs); fy += stride {
			for fx := 0; fx < fnx; fx += stride {
				pts = append(pts, mapPoint(mp, fineXs, fineYs, fy*fnx+fx))
			}
		}
		return pts
	}
	return []deckPoint{{over: map[int]float64{}}}
}

// sweepValues lists a `sweep` directive's source values -max, -max+step,
// ... up to +max. The point count is that of the accumulating loop
// (v += step while v <= max+step/2), so no deck changes its number of
// points, but each value is computed from its index and carries no
// accumulated rounding. A grid that ends on +max is symmetric: its
// upper half is the exact negation of its lower half and an odd grid's
// centre is exactly 0, so mirrored points cancel bitwise.
func sweepValues(max, step float64) []float64 {
	n := 0
	for v := -max; v <= max+step/2; v += step {
		n++
	}
	vs := make([]float64, n)
	for i := range vs {
		vs[i] = -max + float64(i)*step
	}
	if n > 1 && math.Abs(vs[n-1]-max) <= 1e-9*step {
		for i := 0; i < n/2; i++ {
			vs[n-1-i] = -vs[i]
		}
		if n%2 == 1 {
			vs[n/2] = 0
		}
	}
	return vs
}

// mapPoint is the map-deck operating point at fine-lattice index fine.
func mapPoint(mp *netlist.MapSpec, fineXs, fineYs []float64, fine int) deckPoint {
	x, y := fineXs[fine%len(fineXs)], fineYs[fine/len(fineXs)]
	return deckPoint{X: x, Y: y, Fine: fine, over: map[int]float64{mp.X.Node: x, mp.Y.Node: y}}
}

// planRefine folds completed map-deck results into per-point currents
// keyed by fine-lattice index and plans the next refinement level's
// points via sweep.RefinePlan, in memory and time proportional to the
// points simulated so far — never to the fine lattice, which a deep
// `refine` makes enormous. level is the number of levels already
// simulated (0 = only the coarse grid); the returned slice is empty
// once refinement is exhausted — and an empty level proves every deeper
// level empty too, because deeper cells need corners only a refined
// shallower level could have simulated. The fold uses the deck's first
// recorded junction (blockaded runs count as zero current). Pure
// arithmetic on deterministic inputs, so the plan — like everything
// scheduled from it — is worker-count- and schedule-invariant.
func planRefine(spec *netlist.Spec, fineXs, fineYs []float64, pts []deckPoint, results [][]runResult, level int) []deckPoint {
	mp := spec.Map
	if mp == nil || level >= mp.Depth {
		return nil
	}
	runs := spec.Runs
	if runs < 1 {
		runs = 1
	}
	j0 := spec.RecordJuncs[0]
	cur := make(map[int]float64, len(pts))
	for i, p := range pts {
		var c float64
		for run := 0; run < runs; run++ {
			if r := results[i][run]; !r.Blockaded {
				c += r.Current[j0] / float64(runs)
			}
		}
		cur[p.Fine] = c
	}
	cell := 1 << (mp.Depth - level) // cell size of the last simulated level
	plan := sweep.RefinePlan(len(fineXs), len(fineYs), cur, cell, mp.Threshold)
	out := make([]deckPoint, len(plan))
	for i, fine := range plan {
		out[i] = mapPoint(mp, fineXs, fineYs, fine)
	}
	return out
}

// validateDeck rejects decks that cannot be executed: nothing recorded
// or no stopping criterion.
func validateDeck(d *netlist.Deck) error {
	if len(d.Spec.RecordJuncs) == 0 {
		return fmt.Errorf("semsim: deck records no junctions (add a 'record' line)")
	}
	if d.Spec.Jumps == 0 && d.Spec.MaxTime == 0 {
		return fmt.Errorf("semsim: deck sets neither 'jumps' nor 'time'")
	}
	return nil
}

// foldResults reduces per-(point, run) results into the final points in
// the same float operation order as the historical sequential loop:
// for each recorded junction, run contributions are added in run order
// and divided by the run count. This keeps ExecuteDeck's output
// bit-identical at any Workers setting. Map-deck points (coarse grid
// plus appended refinement waves) are emitted in fine-lattice order, so
// the output is also invariant to how many refinement waves ran.
func foldResults(spec *netlist.Spec, pts []deckPoint, results [][]runResult) []Point {
	runs := spec.Runs
	if runs < 1 {
		runs = 1
	}
	order := make([]int, len(pts))
	for i := range order {
		order[i] = i
	}
	if spec.Map != nil {
		sort.Slice(order, func(a, b int) bool { return pts[order[a]].Fine < pts[order[b]].Fine })
	}
	recs := spec.NoiseRecords()
	out := make([]Point, len(pts))
	for oi, i := range order {
		p := pts[i]
		pt := Point{SweepV: p.X, Y: p.Y, Current: map[int]float64{}}
		for run := 0; run < runs; run++ {
			r := results[i][run]
			if r.Blockaded {
				pt.Blockaded = true
				continue
			}
			pt.Events += r.Events
			for _, j := range spec.RecordJuncs {
				pt.Current[j] += r.Current[j] / float64(runs)
			}
		}
		if len(recs) > 0 {
			// Fold noise statistics in run order per junction — like the
			// current fold, a fixed-order reduction of deterministic run
			// results, so the outcome is schedule- and worker-invariant.
			// Blockaded runs measured nothing and are skipped.
			pt.Noise = make(map[int]noise.Stats, len(recs))
			rs := make([]noise.RunStats, 0, runs)
			for _, rec := range recs {
				rs = rs[:0]
				for run := 0; run < runs; run++ {
					r := results[i][run]
					if r.Blockaded || r.Noise == nil {
						continue
					}
					if st, ok := r.Noise[rec.Junc]; ok {
						rs = append(rs, st)
					}
				}
				pt.Noise[rec.Junc] = noise.Fold(rs)
			}
		}
		out[oi] = pt
	}
	return out
}

// worker is one slot of a deck pool: its index, which names the
// Engine's trace lane, and its compile-once session. A task holds its
// worker for its whole run, retries included.
type worker struct {
	id      int
	session *deckSession
}

// newPool returns a pool channel holding n idle workers (at least one).
func newPool(n int) chan *worker {
	n = max(n, 1)
	pool := make(chan *worker, n)
	for i := 0; i < n; i++ {
		pool <- &worker{id: i, session: &deckSession{}}
	}
	return pool
}

// task is one (point, run) pair of a deck run (point indexes r.pts) on
// the worker it borrowed.
type task struct {
	r          *deckRun
	point, run int
	w          *worker
}

// taskFunc executes one task; cfg carries the worker's session.
type taskFunc func(ctx context.Context, t task, cfg RunConfig) (runResult, error)

// simulate is the plain taskFunc: runDeckPoint at the task's point.
func simulate(ctx context.Context, t task, cfg RunConfig) (runResult, error) {
	return runDeckPoint(ctx, t.r.deck, t.r.key, t.r.pts[t.point], t.run, cfg)
}

// deckRun is one deck's execution state: the validated deck, its key
// and run count, the points planned so far with their per-run results,
// and a map deck's fully refined axes. Only execute grows pts and
// results, between waves; each task writes its own result slot.
type deckRun struct {
	deck           *netlist.Deck
	key            string
	runs           int
	pts            []deckPoint
	results        [][]runResult
	fineXs, fineYs []float64
}

// newDeckRun validates d and plans its initial points.
func newDeckRun(d *netlist.Deck) (*deckRun, error) {
	if err := validateDeck(d); err != nil {
		return nil, err
	}
	key, err := deckKey(d)
	if err != nil {
		return nil, err
	}
	r := &deckRun{deck: d, key: key, runs: max(d.Spec.Runs, 1), pts: deckPoints(&d.Spec)}
	if mp := d.Spec.Map; mp != nil {
		r.fineXs = sweep.RefineAxis(mp.X.Values(), mp.Depth)
		r.fineYs = sweep.RefineAxis(mp.Y.Values(), mp.Depth)
	}
	return r, nil
}

// execute runs every task of the deck through run on workers borrowed
// from pool, wave by wave: the initial points, then for a map deck one
// wave per refinement level planned from the results so far. onWave,
// when non-nil, learns each refinement wave's level and point count
// before it starts. cfg.observer gets the progress meter and the
// refinement counters.
//
// No task starts after a failure, an interrupt or a cancellation, and
// the tasks that could not start fail with the context's error, so a
// stopped deck never folds results it did not compute. A real failure
// also cancels the tasks in flight, whose results would be thrown away;
// after an interrupt they drain to their own checkpoints. The error
// returned is a real failure, naming its task, in preference to the
// interrupts and cancellations it caused.
func (r *deckRun) execute(ctx context.Context, pool chan *worker, cfg RunConfig, run taskFunc, onWave func(level, points int)) error {
	for start, level := 0, 0; ; level++ {
		if err := r.wave(ctx, pool, cfg, run, start, level); err != nil {
			return err
		}
		next := planRefine(&r.deck.Spec, r.fineXs, r.fineYs, r.pts, r.results, level)
		if len(next) == 0 {
			break
		}
		start = len(r.pts)
		r.pts = append(r.pts, next...)
		count(cfg.observer, "jobs.refine_waves")
		if onWave != nil {
			onWave(level+1, len(next))
		}
	}
	if r.deck.Spec.Map != nil {
		cfg.observer.SweepSkipped(len(r.fineXs)*len(r.fineYs) - len(r.pts))
	}
	return nil
}

// wave runs the tasks of points start onward (see execute). A point
// counts as done on the progress meter when its last run lands.
func (r *deckRun) wave(ctx context.Context, pool chan *worker, cfg RunConfig, run taskFunc, start, level int) error {
	o := cfg.observer
	o.SweepTotal(len(r.pts) - start)
	left := make([]atomic.Int32, len(r.pts)-start) // runs still out, per point
	for i := range left {
		r.results = append(r.results, make([]runResult, r.runs))
		left[i].Store(int32(r.runs))
		if r.deck.Spec.Map != nil {
			o.RefineDepth(level)
		}
	}

	// Tasks run on tctx, which a real failure cancels; no task starts
	// once sctx is done, which any error cancels.
	tctx, cancelTasks := context.WithCancel(ctx)
	defer cancelTasks()
	sctx, stopStarts := context.WithCancel(tctx)
	defer stopStarts()
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		first error
	)
	stopped := func(err error) bool {
		return errors.Is(err, ErrInterrupted) || errors.Is(err, context.Canceled)
	}
	fail := func(err error) {
		mu.Lock()
		if first == nil || stopped(first) && !stopped(err) {
			first = err
		}
		mu.Unlock()
		if !stopped(err) {
			cancelTasks()
		}
		stopStarts()
	}
	for n := start * r.runs; n < len(r.pts)*r.runs; n++ {
		t := task{r: r, point: n / r.runs, run: n % r.runs}
		select {
		case t.w = <-pool:
		case <-sctx.Done():
		}
		if err := sctx.Err(); err != nil {
			if t.w != nil {
				pool <- t.w
			}
			fail(err)
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			wcfg := cfg
			wcfg.session = t.w.session
			res, err := run(tctx, t, wcfg)
			switch {
			case err == nil:
				r.results[t.point][t.run] = res
				if left[t.point-start].Add(-1) == 0 {
					o.SweepPointDone()
				}
			case stopped(err), errors.Is(err, context.DeadlineExceeded):
				fail(err)
			default:
				p := r.pts[t.point]
				fail(fmt.Errorf("point %d (v=%g) run %d: %w", p.Fine, p.X, t.run, err))
			}
			// Only now hand the worker back: a failure has already
			// stopped the starts, so no task of this deck takes it.
			pool <- t.w
		}()
	}
	wg.Wait()
	return first
}

// fold reduces the run's results to its operating points.
func (r *deckRun) fold() []Point {
	return foldResults(&r.deck.Spec, r.pts, r.results)
}

// removeMarkers deletes the done markers of every task from dir (best
// effort): once the deck folded, they have served their purpose.
func (r *deckRun) removeMarkers(dir string) {
	for _, p := range r.pts {
		for k := 0; k < r.runs; k++ {
			os.Remove(checkpointPath(dir, r.key, p.Fine, k))
		}
	}
}

// ExecuteDeck runs every (point, run) task of a deck on a private pool
// of cfg.Workers workers (see execute) and returns the folded points.
// Each worker compiles the deck once and re-seeds its solver per task.
// With cfg.Dir set, tasks checkpoint periodically and — with
// cfg.Resume — continue from valid checkpoints; the files are deleted
// once the deck folds. Cancel ctx to abandon the execution, or close
// cfg.Stop to drain: in-flight tasks persist a final checkpoint and
// ExecuteDeck returns ErrInterrupted. The Overrides argument is ignored.
func ExecuteDeck(ctx context.Context, d *netlist.Deck, _ Overrides, cfg RunConfig) ([]Point, error) {
	r, err := newDeckRun(d)
	if err != nil {
		return nil, err
	}
	cfg.observer = obs.Global()
	if err := r.execute(ctx, newPool(cfg.Workers), cfg, simulate, nil); err != nil {
		return nil, err
	}
	count(cfg.observer, "jobs.decks_executed")
	if cfg.Dir != "" {
		r.removeMarkers(cfg.Dir)
	}
	return r.fold(), nil
}
