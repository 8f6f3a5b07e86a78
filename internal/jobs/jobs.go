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
//   - Engine + NewHandler: an asynchronous job queue with retry,
//     timeouts and graceful drain, exposed over HTTP by cmd/semsimd.
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
// output (circuit, spec, seeds, noise windows), the task seed
// derivation and the C^-1 engine, truncated to 128 bits of hex.
// Checkpoint files embed and verify the key and the result cache is
// keyed on it, so a resumed or cached submission only picks up state
// that provably belongs to the same work. The key also names every
// checkpoint file, and 128 bits keep those paths short while leaving
// collisions out of reach.
func deckKey(d *netlist.Deck) (string, error) {
	var buf bytes.Buffer
	if err := d.Format(&buf); err != nil {
		return "", err
	}
	fmt.Fprintf(&buf, "|seeds=%s|cinv=%s", seedScheme, cinvEngine)
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
	njs := noiseJuncs(spec)
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
		if len(njs) > 0 {
			// Fold noise statistics in run order per junction — like the
			// current fold, a fixed-order reduction of deterministic run
			// results, so the outcome is schedule- and worker-invariant.
			// Blockaded runs measured nothing and are skipped.
			pt.Noise = make(map[int]noise.Stats, len(njs))
			rs := make([]noise.RunStats, 0, runs)
			for _, j := range njs {
				rs = rs[:0]
				for run := 0; run < runs; run++ {
					r := results[i][run]
					if r.Blockaded || r.Noise == nil {
						continue
					}
					if st, ok := r.Noise[j]; ok {
						rs = append(rs, st)
					}
				}
				pt.Noise[j] = noise.Fold(rs)
			}
		}
		out[oi] = pt
	}
	return out
}

// noiseJuncs lists the deck's noise-recorded netlist junction ids in
// deck order, deduplicated (a junction may have both a noise and a
// fano directive).
func noiseJuncs(spec *netlist.Spec) []int {
	var njs []int
	seen := map[int]bool{}
	add := func(j int) {
		if !seen[j] {
			seen[j] = true
			njs = append(njs, j)
		}
	}
	for _, ns := range spec.NoiseJuncs {
		add(ns.Junc)
	}
	for _, fs := range spec.FanoJuncs {
		add(fs.Junc)
	}
	return njs
}

// ExecuteDeck runs every (point, run) task of a deck and returns the
// folded operating points: the one in-process executor for I-V sweeps
// and stability maps. Each worker compiles the deck once and re-seeds
// its solver per task (compile-once sessions, bit-identical to
// rebuilding). Map decks execute in waves: the coarse grid first, then
// adaptively planned refinement points level by level. Each wave's
// points feed the global observer's progress meter. With cfg.Dir
// set, each task checkpoints periodically and — with cfg.Resume —
// continues from any valid checkpoint it finds, making long sweeps
// crash-safe; the files of completed tasks are deleted once the deck
// folds. Cancel ctx to abandon the execution immediately, or close
// cfg.Stop to drain: in-flight tasks persist a final checkpoint and
// ExecuteDeck returns ErrInterrupted. The Overrides argument is
// ignored.
func ExecuteDeck(ctx context.Context, d *netlist.Deck, _ Overrides, cfg RunConfig) ([]Point, error) {
	if err := validateDeck(d); err != nil {
		return nil, err
	}
	spec := d.Spec
	pts := deckPoints(&spec)
	key, err := deckKey(d)
	if err != nil {
		return nil, err
	}
	runs := spec.Runs
	if runs < 1 {
		runs = 1
	}
	workers := cfg.Workers
	if workers < 1 {
		workers = 1
	}

	// Per-worker compile-once sessions, persistent across refinement
	// waves. Worker w only ever touches sessions[w], so no locking.
	sessions := make([]*deckSession, workers)
	for w := range sessions {
		sessions[w] = &deckSession{}
	}

	// Progress: each wave announces its points (sweep.points_total) and
	// a point counts as done (sweep.points_done) when its last run
	// lands, which drives the -progress meter's points x/y and ETA.
	o := obs.Global()
	var results [][]runResult
	runWave := func(start, level int) error {
		o.SweepTotal(len(pts) - start)
		left := make([]atomic.Int32, len(pts)-start) // runs still out, per point
		for i := start; i < len(pts); i++ {
			results = append(results, make([]runResult, runs))
			left[i-start].Store(int32(runs))
			if spec.Map != nil {
				o.RefineDepth(level)
			}
		}
		type task struct{ point, run int }
		tasks := make([]task, 0, (len(pts)-start)*runs)
		for i := start; i < len(pts); i++ {
			for r := 0; r < runs; r++ {
				tasks = append(tasks, task{i, r})
			}
		}
		run := func(w int, t task) error {
			wcfg := cfg
			wcfg.session = sessions[w]
			res, err := runDeckPoint(ctx, d, key, pts[t.point], t.run, wcfg)
			if err != nil {
				if errors.Is(err, ErrInterrupted) || errors.Is(err, context.Canceled) {
					return err
				}
				return fmt.Errorf("point %d (v=%g) run %d: %w", pts[t.point].Fine, pts[t.point].X, t.run, err)
			}
			results[t.point][t.run] = res
			if left[t.point-start].Add(-1) == 0 {
				o.SweepPointDone()
			}
			return nil
		}

		wn := workers
		if wn > len(tasks) {
			wn = len(tasks)
		}
		if wn <= 1 {
			for _, t := range tasks {
				if err := run(0, t); err != nil {
					return err
				}
			}
			return nil
		}
		// Cancel the siblings once any task fails; the deterministic fold
		// below makes completion order irrelevant to the result.
		tctx, cancel := context.WithCancel(ctx)
		defer cancel()
		work := make(chan task)
		errs := make([]error, wn)
		var wg sync.WaitGroup
		for w := 0; w < wn; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for t := range work {
					if tctx.Err() != nil {
						continue
					}
					if err := run(w, t); err != nil && errs[w] == nil {
						errs[w] = err
						cancel()
					}
				}
			}(w)
		}
		for _, t := range tasks {
			work <- t
		}
		close(work)
		wg.Wait()
		// Prefer a real failure over the cancellations it caused.
		var firstErr error
		for _, err := range errs {
			if err == nil {
				continue
			}
			if firstErr == nil || errors.Is(firstErr, context.Canceled) {
				firstErr = err
			}
		}
		return firstErr
	}

	// Wave loop: a sweep deck is a single wave; a map deck follows the
	// coarse wave with one wave per refinement level until the planner
	// finds no more contrast (or Depth is reached).
	var fineXs, fineYs []float64
	if mp := spec.Map; mp != nil {
		fineXs = sweep.RefineAxis(mp.X.Values(), mp.Depth)
		fineYs = sweep.RefineAxis(mp.Y.Values(), mp.Depth)
	}
	for start, level := 0, 0; ; level++ {
		if err := runWave(start, level); err != nil {
			return nil, err
		}
		start = len(pts)
		next := planRefine(&spec, fineXs, fineYs, pts, results, level)
		if len(next) == 0 {
			break
		}
		if o != nil {
			o.Registry().Counter("jobs.refine_waves").Add(1)
		}
		pts = append(pts, next...)
	}
	if spec.Map != nil {
		o.SweepSkipped(len(fineXs)*len(fineYs) - len(pts))
	}

	if o != nil {
		o.Registry().Counter("jobs.decks_executed").Add(1)
	}
	if cfg.Dir != "" {
		// The whole deck folded: the per-task done markers (kept so a
		// resume after a partial interruption skips finished tasks) have
		// served their purpose. Best-effort removal.
		for _, p := range pts {
			for r := 0; r < runs; r++ {
				os.Remove(checkpointPath(cfg.Dir, key, p.Fine, r))
			}
		}
	}
	return foldResults(&spec, pts, results), nil
}
