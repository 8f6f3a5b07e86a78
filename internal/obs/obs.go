// Package obs is the observability layer of the simulator: a metrics
// registry (counters, gauges, fixed-bucket histograms), a low-overhead
// structured run journal exportable to the Chrome trace_event format, a
// span API for phase timing, a periodic progress reporter, and an
// optional HTTP endpoint serving metric snapshots plus net/http/pprof
// for live profiling of long runs. Everything is standard library only.
//
// The design contract is that observability is free when off and
// passive when on:
//
//   - every recording method is declared on *Observer with a nil-receiver
//     fast path, so disabled code paths cost one predictable branch and
//     zero allocations (proved by the ObsDisabled benchmarks);
//   - recording never touches simulator state, random streams or
//     floating-point inputs, so instrumented trajectories are
//     bit-identical to uninstrumented ones (asserted by the solver's
//     determinism tests).
//
// One Observer may be shared by concurrent simulations (a sweep, a
// multi-seed delay measurement): counters and gauges are atomics, the
// journal and heatmap are lock-guarded. Tracing interleaves events from
// all sharers; per-run journals need per-run Observers.
package obs

import (
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Config selects the observability features of an Observer. The zero
// value enables metrics only.
type Config struct {
	// Trace enables the structured event journal, a ring of the newest
	// 1 << 16 events; older events are overwritten.
	Trace bool
	// TraceJSONL, when non-nil, additionally receives every journal
	// event as one JSON line (unbounded; the caller owns the writer).
	TraceJSONL io.Writer
}

// Observer is the per-process (or per-run) observability handle. A nil
// *Observer is valid and turns every method into a cheap no-op.
type Observer struct {
	reg     *Registry
	journal *Journal
	epoch   time.Time

	// Pre-resolved metric handles for the hot paths.
	events         *Counter
	cotunnelEvents *Counter
	cooperEvents   *Counter
	rateCalcs      *Counter
	refreshes      *Counter
	inputChanges   *Counter
	tested         *Counter
	flagged        *Counter
	recomputes     *Counter
	rebuilds       *Counter
	simTime        *Gauge
	dissipated     *Gauge
	spillHist      *Histogram
	flushHist      *Histogram
	touchedHist    *Histogram
	cinvBound      *Gauge
	cinvNNZ        *Gauge
	cinvTrunc      *Gauge
	cholFill       *Gauge
	sessionResets  *Counter
	pointsDone     *Counter
	pointsTotal    *Gauge
	pointsSkipped  *Gauge
	refineDepth    *Histogram
	noiseEvents    *Counter
	noiseWindows   *Counter

	heatMu sync.Mutex
	heat   []uint32
}

// traceCap is the journal ring's capacity in events (56 B each, so a
// full ring holds 3.7 MB).
const traceCap = 1 << 16

// New creates an Observer with a fresh registry.
func New(cfg Config) *Observer {
	o := &Observer{reg: NewRegistry(), epoch: time.Now()}
	if cfg.Trace {
		o.journal = NewJournal(traceCap, cfg.TraceJSONL)
		// Ring wraparound must never be silent: the registry counts every
		// overwritten event, and trace exports carry a journal_dropped note.
		o.journal.CountDrops(o.reg.Counter("obs.journal_dropped_events"))
	}
	o.events = o.reg.Counter("solver.events")
	o.cotunnelEvents = o.reg.Counter("solver.cotunnel_events")
	o.cooperEvents = o.reg.Counter("solver.cooper_events")
	o.rateCalcs = o.reg.Counter("solver.rate_calcs")
	o.refreshes = o.reg.Counter("solver.full_refreshes")
	o.inputChanges = o.reg.Counter("solver.input_changes")
	o.tested = o.reg.Counter("solver.adaptive_tested")
	o.flagged = o.reg.Counter("solver.adaptive_flagged")
	o.recomputes = o.reg.Counter("solver.adaptive_recomputes")
	o.rebuilds = o.reg.Counter("solver.fenwick_rebuilds")
	o.simTime = o.reg.Gauge("solver.sim_time_s")
	o.dissipated = o.reg.Gauge("solver.dissipated_j")
	// Fan-out sizes: 1 .. 32768 in powers of two.
	fanout := ExpBuckets(1, 2, 16)
	o.spillHist = o.reg.Histogram("solver.adaptive_spill_size", fanout)
	o.flushHist = o.reg.Histogram("solver.fenwick_flush_batch", fanout)
	o.touchedHist = o.reg.Histogram("solver.event_touched_nnz", fanout)
	o.cinvBound = o.reg.Gauge("solver.cinv_error_bound_v")
	o.cinvNNZ = o.reg.Gauge("circuit.cinv_nnz")
	o.cinvTrunc = o.reg.Gauge("circuit.cinv_truncation_ratio")
	o.cholFill = o.reg.Gauge("circuit.chol_fill_ratio")
	o.sessionResets = o.reg.Counter("solver.session_resets")
	o.pointsDone = o.reg.Counter("sweep.points_done")
	o.pointsTotal = o.reg.Gauge("sweep.points_total")
	o.pointsSkipped = o.reg.Gauge("sweep.points_skipped")
	// Refinement depths: small integers, so linear power-of-two bounds
	// up to 128 levels cover anything a sane map asks for.
	o.refineDepth = o.reg.Histogram("sweep.refine_depth", ExpBuckets(1, 2, 8))
	o.noiseEvents = o.reg.Counter("noise.events")
	o.noiseWindows = o.reg.Counter("noise.windows_closed")
	return o
}

// Registry exposes the observer's metric registry (nil-safe; returns
// nil when disabled).
func (o *Observer) Registry() *Registry {
	if o == nil {
		return nil
	}
	return o.reg
}

// Journal exposes the trace journal, or nil when tracing is off.
func (o *Observer) Journal() *Journal {
	if o == nil {
		return nil
	}
	return o.journal
}

// Tracing reports whether the event journal is enabled. Call sites that
// would compute trace-only detail (per-junction test decisions) guard
// on it.
func (o *Observer) Tracing() bool { return o != nil && o.journal != nil }

// wall returns nanoseconds since the observer was created.
func (o *Observer) wall() int64 { return int64(time.Since(o.epoch)) }

// --- Solver hot-path hooks (all nil-safe, allocation-free) ---

// Event records one applied tunnel event: kind is the journal kind
// (KindTunnel/KindCotunnel/KindCooper), junc the primary junction, simT
// the post-event simulated time, and dw the free-energy change (its
// negation accumulates into the dissipated-energy gauge).
func (o *Observer) Event(kind Kind, junc int, simT, dw float64) {
	if o == nil {
		return
	}
	o.events.Add(1)
	switch kind {
	case KindCotunnel:
		o.cotunnelEvents.Add(1)
	case KindCooper:
		o.cooperEvents.Add(1)
	}
	o.simTime.Set(simT)
	o.dissipated.Add(-dw)
	if o.journal != nil {
		o.journal.Record(Event{Kind: kind, Junc: int32(junc), Sim: simT, V1: dw, Wall: o.wall()})
	}
}

// RateCalcs accumulates a batch of channel-rate evaluations.
func (o *Observer) RateCalcs(n uint64) {
	if o == nil {
		return
	}
	o.rateCalcs.Add(n)
}

// AdaptiveTest records one testing-factor decision (journal only; the
// solver guards calls with Tracing so the detail is free when the
// journal is off). b is e*|b(i)| in joules, thr the recompute threshold
// alpha*min(|dW'|), depth the BFS spill depth of the tested junction.
func (o *Observer) AdaptiveTest(junc int, b, thr float64, flagged bool, depth int, simT float64) {
	if o == nil || o.journal == nil {
		return
	}
	a := int32(0)
	if flagged {
		a = 1
	}
	o.journal.Record(Event{Kind: KindAdaptiveTest, Junc: int32(junc), A: a, B: int32(depth),
		Sim: simT, V1: b, V2: thr, Wall: o.wall()})
}

// Adaptive summarizes one adaptive update after an event on junction
// junc: tested junctions reached by the spill, flagged junctions
// recomputed.
func (o *Observer) Adaptive(junc, tested, flagged int, simT float64) {
	if o == nil {
		return
	}
	o.tested.Add(uint64(tested))
	o.flagged.Add(uint64(flagged))
	o.spillHist.Observe(float64(tested))
	if o.journal != nil {
		o.journal.Record(Event{Kind: KindAdaptive, Junc: int32(junc),
			A: int32(tested), B: int32(flagged), Sim: simT, Wall: o.wall()})
	}
}

// Recomputed accumulates the per-junction recompute heatmap — the
// visual counterpart of the paper's adaptivity claim: recomputation
// should concentrate on the junctions near activity, not spread
// uniformly.
func (o *Observer) Recomputed(juncs []int) {
	if o == nil || len(juncs) == 0 {
		return
	}
	o.recomputes.Add(uint64(len(juncs)))
	o.heatMu.Lock()
	for _, j := range juncs {
		for j >= len(o.heat) {
			o.heat = append(o.heat, 0)
		}
		o.heat[j]++
	}
	o.heatMu.Unlock()
}

// FullRefresh records a periodic full-refresh boundary.
func (o *Observer) FullRefresh(simT float64) {
	if o == nil {
		return
	}
	o.refreshes.Add(1)
	o.simTime.Set(simT)
	if o.journal != nil {
		o.journal.Record(Event{Kind: KindRefresh, Sim: simT, Wall: o.wall()})
	}
}

// InputChange records a source-voltage change boundary: tested and
// flagged count the junctions the adaptive fold-in test read and
// flagged for recomputation, and feed the adaptive counters as
// Adaptive's do. A non-adaptive run tests nothing (it recomputes every
// junction) and passes zeros.
func (o *Observer) InputChange(tested, flagged int, simT float64) {
	if o == nil {
		return
	}
	o.inputChanges.Add(1)
	o.tested.Add(uint64(tested))
	o.flagged.Add(uint64(flagged))
	if o.journal != nil {
		o.journal.Record(Event{Kind: KindInputChange, A: int32(flagged), B: int32(tested), Sim: simT, Wall: o.wall()})
	}
}

// FenwickFlush records one selection-tree flush: the staged batch size
// and whether the flush chose a bulk rebuild over point updates.
func (o *Observer) FenwickFlush(batch int, rebuilt bool, simT float64) {
	if o == nil || batch == 0 {
		return
	}
	o.flushHist.Observe(float64(batch))
	if rebuilt {
		o.rebuilds.Add(1)
	}
	if o.journal != nil {
		b := int32(0)
		if rebuilt {
			b = 1
		}
		o.journal.Record(Event{Kind: KindFenwick, A: int32(batch), B: b, Sim: simT, Wall: o.wall()})
	}
}

// EventTouched records how many stored C^-1 nonzeros one applied event's
// potential shift walked: the lengths of its two truncated rows. The
// histogram makes the locality win of truncation directly visible on
// /metrics.
func (o *Observer) EventTouched(n int) {
	if o == nil {
		return
	}
	o.touchedHist.Observe(float64(n))
}

// NoiseEvent counts one tunnel event folded into a noise accumulator.
func (o *Observer) NoiseEvent() {
	if o == nil {
		return
	}
	o.noiseEvents.Add(1)
}

// NoiseWindow records a counting-window closure on a recorded
// junction: n windows completed at once (1 plus any empty windows the
// closing event skipped over), q the closing window's charge in units
// of e, simT the simulated time of the closing event.
func (o *Observer) NoiseWindow(junc int, n uint64, q, simT float64) {
	if o == nil {
		return
	}
	o.noiseWindows.Add(n)
	if o.journal != nil {
		o.journal.Record(Event{Kind: KindNoiseWindow, Junc: int32(junc), A: int32(n), Sim: simT, V1: q, Wall: o.wall()})
	}
}

// CinvBound publishes the solver's running truncation-error bound (volts)
// at refresh and input-change boundaries. Zero when the build dropped
// no C^-1 entry.
func (o *Observer) CinvBound(v float64) {
	if o == nil {
		return
	}
	o.cinvBound.Set(v)
}

// EngineShape publishes the static shape of the potential engine a
// solver runs on: stored C^-1 nonzeros, the fraction of the full
// inverse kept after truncation, and the Cholesky fill-in ratio
// nnz(L)/nnz(tril(C)) of the factorization its rows came from.
func (o *Observer) EngineShape(nnz int, truncRatio, fill float64) {
	if o == nil {
		return
	}
	o.cinvNNZ.Set(float64(nnz))
	o.cinvTrunc.Set(truncRatio)
	o.cholFill.Set(fill)
}

// SessionReset records one solver session reset: a reused Sim rewound
// onto a new seed and bias point instead of being rebuilt from scratch.
// The ratio of solver.session_resets to jobs.session_builds is the
// compile-once amortization deck execution achieves.
func (o *Observer) SessionReset() {
	if o == nil {
		return
	}
	o.sessionResets.Add(1)
}

// SweepTotal adds a batch of announced sweep points to the progress
// denominator (sweep.points_total). Sweeps announce their grid up
// front; adaptive refinement announces each level as it is planned, so
// the meter never shows a fraction over 1.
func (o *Observer) SweepTotal(n int) {
	if o == nil {
		return
	}
	o.pointsTotal.Add(float64(n))
}

// SweepPointDone records one completed sweep point.
func (o *Observer) SweepPointDone() {
	if o == nil {
		return
	}
	o.pointsDone.Add(1)
}

// SweepSkipped accumulates fine-lattice points an adaptive refinement
// run did NOT have to simulate (filled by interpolation instead) — the
// direct measure of the refinement saving.
func (o *Observer) SweepSkipped(n int) {
	if o == nil {
		return
	}
	o.pointsSkipped.Add(float64(n))
}

// RefineDepth records the refinement depth of one simulated map point
// (0 = coarse grid).
func (o *Observer) RefineDepth(depth int) {
	if o == nil {
		return
	}
	o.refineDepth.Observe(float64(depth))
}

// --- Global observer ---

// The process-wide observer: nil (disabled) unless a CLI or test
// installs one with SetGlobal. Subsystems without explicit plumbing
// (master solves, sweep drivers, solver runs whose Options carry no
// Observer) fall back to it, so `-obs-addr` on any CLI instruments the
// whole stack without threading a handle through every call.
var global atomic.Pointer[Observer]

// SetGlobal installs (or, with nil, removes) the process-wide observer.
func SetGlobal(o *Observer) { global.Store(o) }

// Global returns the process-wide observer, or nil when none is
// installed. The nil result is directly usable: every Observer method
// no-ops on a nil receiver.
func Global() *Observer { return global.Load() }
