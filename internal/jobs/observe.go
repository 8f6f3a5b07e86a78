package jobs

import (
	"errors"
	"time"

	"semsim/internal/obs"
)

// Job observability: every (point, run) task, checkpoint write, retry,
// resume and job state transition is (a) counted on the engine
// observer's registry and (b) appended once to the job's event log
// (eventlog.go), which feeds both GET /jobs/{id}/events and GET
// /jobs/{id}/trace. Both are passive — recording never touches
// simulator state or random streams — and the task hooks are nil-safe,
// so ExecuteDeck and RunSim pay one branch per hook.

// Each job's event log keeps its newest logPerWorker·Workers + logBase
// events: room for the task, checkpoint, retry and resume events of
// every worker plus the job's own state and progress events.
const (
	logPerWorker = 2048
	logBase      = 1024
)

// count adds one to the named counter of o (nil-safe).
func count(o *obs.Observer, name string) {
	if o != nil {
		o.Registry().Counter(name).Add(1)
	}
}

// taskOutcome classifies a task's end for task_done events.
func taskOutcome(err error) uint8 {
	switch {
	case err == nil:
		return outcomeDone
	case errors.Is(err, ErrInterrupted):
		return outcomeInterrupted
	}
	return outcomeFailed
}

// engineObs holds the engine's pre-resolved metric handles, so the
// per-task paths never hash metric names. A nil *engineObs (engine
// without an observer) turns every method into a cheap no-op.
type engineObs struct {
	tasksDone    *obs.Counter
	tasksFailed  *obs.Counter
	tasksRetried *obs.Counter
	tasksResumed *obs.Counter
	tasksFresh   *obs.Counter
	taskEvents   *obs.Counter
	ckptWriteNS  *obs.Histogram
	ckptFsyncNS  *obs.Histogram
	ckptBytes    *obs.Histogram
	published    *obs.Counter // events appended to job logs
	dropped      *obs.Counter // events SSE subscribers missed
}

// newEngineObs resolves the engine's metric handles on o's registry and
// installs the live queue/worker gauges (closures over e's atomics).
func newEngineObs(o *obs.Observer, e *Engine) *engineObs {
	if o == nil {
		return nil
	}
	r := o.Registry()
	ns := obs.ExpBuckets(1000, 4, 14)   // 1 us .. ~67 s in nanoseconds
	bytes := obs.ExpBuckets(256, 4, 12) // 256 B .. ~1 GiB
	m := &engineObs{
		tasksDone:    r.Counter("jobs.tasks_done"),
		tasksFailed:  r.Counter("jobs.tasks_failed"),
		tasksRetried: r.Counter("jobs.tasks_retried"),
		tasksResumed: r.Counter("jobs.tasks_resumed"),
		tasksFresh:   r.Counter("jobs.tasks_fresh"),
		taskEvents:   r.Counter("jobs.task_events_total"),
		ckptWriteNS:  r.Histogram("jobs.checkpoint_write_ns", ns),
		ckptFsyncNS:  r.Histogram("jobs.checkpoint_fsync_ns", ns),
		ckptBytes:    r.Histogram("jobs.checkpoint_bytes", bytes),
		published:    r.Counter("jobs.events_published"),
		dropped:      r.Counter("jobs.events_dropped"),
	}
	workers := float64(e.cfg.Workers)
	r.GaugeFunc("jobs.queue_depth", func() float64 { return float64(e.unstarted.Load()) })
	r.GaugeFunc("jobs.running_tasks", func() float64 { return float64(e.running.Load()) })
	r.GaugeFunc("jobs.worker_utilization", func() float64 {
		return float64(e.running.Load()) / workers
	})
	return m
}

func (m *engineObs) checkpoint(st ckptStats) {
	if m == nil {
		return
	}
	m.ckptWriteNS.Observe(float64(st.totalNS))
	m.ckptFsyncNS.Observe(float64(st.fsyncNS))
	m.ckptBytes.Observe(float64(st.bytes))
}

func (m *engineObs) finished(outcome uint8) {
	if m == nil {
		return
	}
	if outcome == outcomeDone {
		m.tasksDone.Add(1)
	} else {
		m.tasksFailed.Add(1)
	}
}

// taskHooks carries one task's observability context into the runner:
// its job, its worker's lane and the engine metrics. A nil *taskHooks
// (ExecuteDeck, RunSim, disabled engines) makes every method a no-op,
// keeping the library paths allocation-free.
type taskHooks struct {
	e      *Engine
	j      *Job
	worker int
	point  int
	run    int
}

// event starts an event of this task.
func (h *taskHooks) event(kind eventKind) jobEvent {
	return jobEvent{kind: kind, worker: int16(h.worker), point: int32(h.point), run: int32(h.run)}
}

// resumed records a task picking up a persisted checkpoint (events =
// solver events already applied; 0 when a done marker was reused).
func (h *taskHooks) resumed(events uint64) {
	if h == nil {
		return
	}
	h.e.mu.Lock()
	h.j.resumed++
	h.e.mu.Unlock()
	if m := h.e.eobs; m != nil {
		m.tasksResumed.Add(1)
	}
	ev := h.event(evResume)
	ev.wall, ev.n = h.j.wall(), events
	h.e.emit(h.j, ev)
}

// fresh records a task starting with no checkpoint to pick up.
func (h *taskHooks) fresh() {
	if h == nil {
		return
	}
	if m := h.e.eobs; m != nil {
		m.tasksFresh.Add(1)
	}
}

// checkpoint records one persisted snapshot: write latency, fsync
// latency and size on the registry and one checkpoint event.
func (h *taskHooks) checkpoint(st ckptStats) {
	if h == nil {
		return
	}
	h.e.eobs.checkpoint(st)
	ev := h.event(evCheckpoint)
	ev.wall, ev.dur = h.j.wall()-st.totalNS, st.totalNS
	ev.n, ev.ns = uint64(st.bytes), st.fsyncNS
	h.e.emit(h.j, ev)
}

// progressEvery rate-limits per-chunk progress events.
const progressEvery = 200 * time.Millisecond

// chunk accumulates solver events applied by one runner chunk and
// emits a rate-limited progress event.
//
//semsim:publish
func (h *taskHooks) chunk(events uint64) {
	if h == nil || events == 0 {
		return
	}
	h.j.events.Add(events)
	if m := h.e.eobs; m != nil {
		m.taskEvents.Add(events)
	}
	// Monotonic nanoseconds since the job's submission — a rate-limit
	// stamp, deliberately not wall-clock.
	now := h.j.wall()
	last := h.j.lastProgress.Load()
	if now-last < int64(progressEvery) || !h.j.lastProgress.CompareAndSwap(last, now) {
		return
	}
	h.e.emitProgress(h.j, now)
}

// emit appends one event to j's log and counts it.
//
//semsim:publish
//semsim:hot
func (e *Engine) emit(j *Job, ev jobEvent) {
	j.log.append(ev)
	if m := e.eobs; m != nil {
		m.published.Add(1)
	}
}

// emitProgress emits a progress event stamped now: tasks done and
// total, and the solver events applied so far.
//
//semsim:publish
func (e *Engine) emitProgress(j *Job, now int64) {
	e.mu.Lock()
	done, total := j.done, j.total
	e.mu.Unlock()
	e.emit(j, jobEvent{kind: evProgress, wall: now, n: j.events.Load(), done: int32(done), total: int32(total)})
}
