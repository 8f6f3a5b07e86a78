package jobs

import (
	"context"
	"errors"
	"fmt"
	"os"

	"semsim/internal/netlist"
	"semsim/internal/noise"
	"semsim/internal/obs"
	"semsim/internal/rng"
	"semsim/internal/solver"
)

// Phase names stored in checkpoint envelopes. A deck run has two
// phases — the discarded warm-up transient and the measured window —
// and the phase must be part of the snapshot: resuming a warm-phase
// checkpoint replays the rest of the warm-up and the ResetMeasurement
// call before measuring, exactly as the uninterrupted run would.
const (
	phaseWarm    = "warm"
	phaseMeasure = "measure"
	phaseDone    = "done"   // task finished; the envelope carries its result, not solver state
	phaseSingle  = "single" // RunSim snapshots outside deck execution
)

// runResult is one (point, run) task's contribution before folding:
// raw measured currents (not yet divided by the run count) and, for
// noise-recording decks, the run's finalized noise statistics, both
// keyed by netlist junction id.
type runResult struct {
	Events    uint64
	Current   map[int]float64
	Blockaded bool
	Noise     map[int]noise.RunStats `json:",omitempty"`
}

// transientError marks failures worth retrying with backoff — so far,
// checkpoint I/O (a full disk or flaky NFS mount heals; a physics error
// does not).
type transientError struct{ err error }

func (e *transientError) Error() string { return e.err.Error() }
func (e *transientError) Unwrap() error { return e.err }

// isTransient reports whether err is worth a bounded retry.
func isTransient(err error) bool {
	var t *transientError
	return errors.As(err, &t)
}

// phaseRunner advances one simulation through budgeted, horizon-capped
// phases in refresh-period chunks, persisting aligned checkpoints. The
// chunking is invisible to the physics: Run's horizon is an absolute
// simulated-time cap, so re-issuing Run with the same horizon after
// every chunk computes the same event caps, draws the same random
// numbers and applies the same events as one monolithic call.
type phaseRunner struct {
	s     *solver.Sim
	ctx   context.Context
	stop  <-chan struct{}
	path  string // checkpoint file; "" disables persistence
	every uint64 // events between checkpoints (refresh-aligned)
	rp    uint64 // the solver's full-refresh period
	key   string
	point int
	run   int
	hooks *taskHooks    // nil-safe task telemetry (engine-run tasks only)
	o     *obs.Observer // counts checkpoint writes; nil counts nothing

	lastCk uint64 // Stats.Events at the last persisted checkpoint
}

func newPhaseRunner(ctx context.Context, s *solver.Sim, cfg RunConfig) *phaseRunner {
	rp := uint64(s.RefreshPeriod())
	if rp == 0 {
		rp = 1
	}
	every := uint64(cfg.Every)
	if every == 0 {
		every = defaultCheckpointEvery
	}
	// Round the cadence up to a whole number of refresh periods: those
	// are the only event counts where a snapshot resumes bit-identically
	// in every solver mode.
	every = (every + rp - 1) / rp * rp
	return &phaseRunner{
		s: s, ctx: ctx, stop: cfg.Stop, hooks: cfg.hooks, o: cfg.observer,
		every: every, rp: rp,
		lastCk: s.Stats().Events,
	}
}

func (p *phaseRunner) draining() bool {
	if p.stop == nil {
		return false
	}
	select {
	case <-p.stop:
		return true
	default:
		return false
	}
}

// save persists the current solver state under the given phase label.
// The caller must only invoke it on a refresh boundary.
func (p *phaseRunner) save(phase string, phaseStart uint64) error {
	cp, err := p.s.Checkpoint()
	if err != nil {
		return err
	}
	f := &runFile{
		Key: p.key, Point: p.point, Run: p.run,
		Phase: phase, PhaseStart: phaseStart, Solver: cp,
	}
	st, err := saveRunFileTimed(p.path, f)
	if err != nil {
		return &transientError{err}
	}
	p.lastCk = p.s.Stats().Events
	count(p.o, "jobs.checkpoints_written")
	p.hooks.checkpoint(st)
	return nil
}

// runPhase advances the simulation until it has applied budget events
// within the phase (counted from phaseStart; 0 = no event cap) or the
// simulated time reaches horizon (absolute; 0 = no time cap),
// checkpointing on the way. It returns ErrInterrupted after persisting
// a final snapshot when the stop channel closes, and the context error
// when ctx is canceled (hard stop, no snapshot).
func (p *phaseRunner) runPhase(phase string, phaseStart, budget uint64, horizon float64) error {
	if budget == 0 && horizon <= 0 {
		return nil // nothing bounds this phase; it is empty by construction
	}
	for {
		events := p.s.Stats().Events
		done := events - phaseStart
		if budget > 0 && done >= budget {
			return nil
		}
		if horizon > 0 && p.s.Time() >= horizon {
			return nil
		}
		// Persist when a cadence interval elapsed or a drain asked us to
		// stop — but only on a refresh boundary, where the snapshot is
		// provably bit-identical resumable. A drain observed between
		// boundaries lets the current period finish first (at most one
		// refresh period of extra work).
		if p.path != "" && events%p.rp == 0 && events > p.lastCk {
			draining := p.draining()
			if draining || events-p.lastCk >= p.every {
				if err := p.save(phase, phaseStart); err != nil {
					return err
				}
			}
			if draining {
				return ErrInterrupted
			}
		} else if p.path == "" && p.draining() {
			// Nothing to persist; honor the drain immediately.
			return ErrInterrupted
		}
		// The hard stop comes after the drain block so a runner whose
		// drain signal is the context (RunSim) still persists its final
		// snapshot before reporting.
		if err := p.ctx.Err(); err != nil {
			return err
		}
		// Advance to the next refresh boundary (or to the phase budget if
		// it lands earlier). Run returning short of the chunk means the
		// time horizon was reached.
		chunk := p.rp - events%p.rp
		if budget > 0 && done+chunk > budget {
			chunk = budget - done
		}
		n, err := p.s.Run(chunk, horizon)
		p.hooks.chunk(n)
		if err != nil {
			return err
		}
		if n < chunk {
			return nil
		}
	}
}

// deckSession is one worker's compile-once cache: the compiled circuit
// and solver of the most recent deck it executed. Sessions persist
// across tasks (and, in the Engine, across jobs) so a deck's topology,
// capacitance factorization, truncated C^-1 rows and rate tables are
// built once per worker instead of once per (point, run). Reuse is
// bit-identical to a fresh build — solver.Reset's contract — so the
// cache is purely an amortization.
type deckSession struct {
	key string
	cc  *netlist.Compiled
	sim *solver.Sim
}

// acquire returns a simulator ready to run at the given seed and DC
// bias (netlist node -> volts), reusing the cached build when the deck
// key matches and rebuilding otherwise. It counts builds and reuses on
// opt.Obs.
func (ds *deckSession) acquire(d *netlist.Deck, key string, opt solver.Options, over map[int]float64) (*solver.Sim, *netlist.Compiled, error) {
	if ds.sim == nil || ds.key != key {
		cc, err := d.Compile(nil)
		if err != nil {
			return nil, nil, err
		}
		s, err := solver.New(cc.Circuit, opt)
		if err != nil {
			return nil, nil, err
		}
		ds.key, ds.cc, ds.sim = key, cc, s
		count(opt.Obs, "jobs.session_builds")
	} else {
		count(opt.Obs, "jobs.session_reuses")
	}
	circOver := make(map[int]float64, len(over))
	for n, v := range over {
		cn, ok := ds.cc.Node[n]
		if !ok {
			return nil, nil, fmt.Errorf("jobs: DC override of unknown netlist node %d", n)
		}
		circOver[cn] = v
	}
	if err := ds.sim.Reset(opt.Seed, circOver); err != nil {
		return nil, nil, err
	}
	return ds.sim, ds.cc, nil
}

// noiseConfig translates the deck's noise records into a recorder
// configuration over circuit junction ids, one accumulator per record.
func noiseConfig(recs []netlist.NoiseRecord, cc *netlist.Compiled) noise.Config {
	var cfg noise.Config
	for _, r := range recs {
		cfg.Juncs = append(cfg.Juncs, noise.JuncConfig{
			Junc:   cc.Junc[r.Junc],
			Omegas: append([]float64(nil), r.Omegas...),
			Window: r.Window,
		})
	}
	return cfg
}

// runDeckPoint executes one (point, run) task of a deck: install the
// point's source values, run the warm-up transient, reset measurement,
// run the measured window, and report the recorded junction currents.
// The deck's spec sets the build, solver and noise options; the solver
// and the task's counters report to cfg.observer.
// With cfg.session set the worker's cached solver is re-seeded in place
// of a fresh compile — bit-identical either way.
// With cfg.Dir set it checkpoints periodically and, with cfg.Resume,
// continues from a valid matching checkpoint file; the file is removed
// once the task completes (or replaced by a done marker on the Resume
// path).
func runDeckPoint(ctx context.Context, d *netlist.Deck, key string, pt deckPoint, run int, cfg RunConfig) (runResult, error) {
	spec := d.Spec
	opt := solver.Options{
		Temp:         spec.Temp,
		Cotunneling:  spec.Cotunnel,
		Adaptive:     spec.Adaptive,
		Alpha:        spec.Alpha,
		RefreshEvery: spec.RefreshEvery,
		Seed:         rng.Derive(spec.Seed, uint64(pt.Fine), uint64(run)),
		RateTables:   spec.RateTables,
		Obs:          cfg.observer,
	}
	var (
		s   *solver.Sim
		cc  *netlist.Compiled
		err error
	)
	if cfg.session != nil {
		s, cc, err = cfg.session.acquire(d, key, opt, pt.over)
		if err != nil {
			return runResult{}, err
		}
	} else {
		cc, err = d.Compile(pt.over)
		if err != nil {
			return runResult{}, err
		}
		s, err = solver.New(cc.Circuit, opt)
		if err != nil {
			return runResult{}, err
		}
	}

	// Noise recording must be configured before any possible Restore:
	// checkpoints of noise-recording runs embed accumulator state and
	// refuse to load into a simulation without a matching recorder.
	recs := spec.NoiseRecords()
	if len(recs) > 0 {
		if err := s.EnableNoise(noiseConfig(recs, cc)); err != nil {
			return runResult{}, err
		}
	}

	p := newPhaseRunner(ctx, s, cfg)
	p.key, p.point, p.run = key, pt.Fine, run
	if cfg.Dir != "" {
		p.path = checkpointPath(cfg.Dir, key, pt.Fine, run)
	}

	phase := phaseWarm
	var phaseStart uint64
	if p.path != "" && cfg.Resume {
		switch f, err := loadRunFile(p.path); {
		case err == nil:
			if f.Key != key {
				return runResult{}, fmt.Errorf("jobs: checkpoint %s belongs to a different deck (key %s, want %s)", p.path, f.Key, key)
			}
			if f.Point != pt.Fine || f.Run != run {
				return runResult{}, fmt.Errorf("jobs: checkpoint %s is for point %d run %d, want point %d run %d", p.path, f.Point, f.Run, pt.Fine, run)
			}
			if f.Phase == phaseDone {
				// The task already completed in an earlier invocation whose
				// overall batch was interrupted later — or in a previous job
				// over the same deck whose markers were kept as a result
				// cache: reuse its result instead of re-simulating
				// (re-running would fold in the same numbers anyway —
				// determinism makes this purely a shortcut).
				count(cfg.observer, "jobs.runs_resumed")
				count(cfg.observer, "jobs.result_cache_hits")
				cfg.hooks.resumed(0)
				return *f.Result, nil
			}
			if err := s.Restore(f.Solver); err != nil {
				return runResult{}, fmt.Errorf("jobs: resume %s: %w", p.path, err)
			}
			phase, phaseStart = f.Phase, f.PhaseStart
			p.lastCk = s.Stats().Events
			count(cfg.observer, "jobs.runs_resumed")
			cfg.hooks.resumed(s.Stats().Events)
		case os.IsNotExist(err):
			// Fresh start.
			cfg.hooks.fresh()
		default:
			return runResult{}, err
		}
	}

	res := runResult{Current: map[int]float64{}}
	finish := func() (runResult, error) {
		if p.path != "" && cfg.Resume {
			// Replace the in-progress snapshot with a done marker carrying
			// the result, so a batch interrupted in a LATER task does not
			// re-simulate this one on resume. Best-effort: losing the marker
			// only costs a deterministic re-run. The batch driver removes
			// all markers once the whole deck completes.
			err := saveRunFile(p.path, &runFile{
				Key: key, Point: pt.Fine, Run: run, Phase: phaseDone, Result: &res,
			})
			if err != nil {
				count(cfg.observer, "jobs.done_marker_errors")
			}
		} else if p.path != "" {
			os.Remove(p.path)
		}
		return res, nil
	}

	if phase == phaseWarm {
		// Warm up for a fifth of the budget, then measure.
		err := p.runPhase(phaseWarm, 0, spec.Jumps/5, spec.MaxTime/5)
		if err == solver.ErrBlockaded {
			res.Blockaded = true
			return finish()
		}
		if err != nil {
			return runResult{}, err
		}
		// Calibrate auto counting windows from the warm-up rate before
		// the measurement window opens. Deterministic: the warm phase's
		// event count and elapsed time are trajectory state, identical on
		// an uninterrupted run and across any drain/resume of the warm
		// phase, so the derived τ — which then travels in checkpoints —
		// is too.
		s.AutoNoiseWindows()
		s.ResetMeasurement()
		phase, phaseStart = phaseMeasure, s.Stats().Events
	}
	if phase != phaseMeasure {
		return runResult{}, fmt.Errorf("jobs: checkpoint %s has unknown phase %q", p.path, phase)
	}
	err = p.runPhase(phaseMeasure, phaseStart, spec.Jumps, spec.MaxTime)
	if err == solver.ErrBlockaded {
		res.Blockaded = true
		return finish()
	}
	if err != nil {
		return runResult{}, err
	}

	res.Events = s.Stats().Events - phaseStart
	for _, j := range spec.RecordJuncs {
		res.Current[j] = s.JunctionCurrent(cc.Junc[j])
	}
	if len(recs) > 0 {
		res.Noise = make(map[int]noise.RunStats, len(recs))
		for _, r := range recs {
			if st, ok := s.NoiseStats(cc.Junc[r.Junc]); ok {
				res.Noise[r.Junc] = st
			}
		}
	}
	return finish()
}

// Checkpointer periodically persists a running simulation for RunSim.
type Checkpointer struct {
	// Path is the checkpoint file (written atomically).
	Path string
	// Every is the target events between snapshots; 0 uses the default
	// cadence. Either way the cadence is rounded up to the solver's
	// refresh period so every snapshot is bit-identical resumable.
	Every int
}

// RunSim advances a single simulation until its total event count
// (Stats().Events, which survives Restore) reaches maxEvents (0 = no
// event cap) or the simulated time reaches maxTime (0 = no time cap),
// checkpointing through ck when non-nil. Canceling ctx is a graceful
// stop: the simulation persists a final refresh-aligned snapshot and
// RunSim returns ErrInterrupted. It returns the number of events
// applied during this call.
//
// To resume, load the snapshot with LoadSim, Restore it into a freshly
// built Sim over the same circuit, and call RunSim again with the same
// bounds: the combined trajectory is bit-identical to an uninterrupted
// run.
func RunSim(ctx context.Context, s *solver.Sim, maxEvents uint64, maxTime float64, ck *Checkpointer) (uint64, error) {
	cfg := RunConfig{observer: obs.Global()}
	if ck != nil {
		cfg.Every = ck.Every
	}
	// Route cancellation exclusively through the drain channel so the
	// runner persists its final snapshot before stopping, instead of
	// aborting mid-period on the hard-cancel path.
	p := newPhaseRunner(context.Background(), s, cfg)
	if ck != nil {
		p.path = ck.Path
	}
	p.point, p.run = -1, -1
	p.stop = ctx.Done()
	start := s.Stats().Events
	err := p.runPhase(phaseSingle, 0, maxEvents, maxTime)
	return s.Stats().Events - start, err
}
