package jobs

import (
	"context"
	"errors"
	"fmt"
	"time"

	"semsim/internal/obs"
)

// Job observability: every (point, run) task, checkpoint write, retry,
// resume and job state transition is (a) counted on the engine
// observer's registry, (b) journaled into per-worker trace lanes merged
// by GET /jobs/{id}/trace, and (c) published on the engine's event bus
// feeding GET /jobs/{id}/events. All three are passive — recording
// never touches simulator state or random streams — and nil-safe, so an
// engine without an observer pays one branch per hook.

// jobTraceLaneCap bounds each per-worker journal ring of a job trace
// (the job lane uses jobTraceJobCap). Events are ~48 bytes, so a lane
// costs ~100 KiB; the ring overwrites its oldest events and the export
// carries a journal_dropped note when it does.
const (
	jobTraceLaneCap = 1 << 11
	jobTraceJobCap  = 1 << 10
)

// count adds one to the named counter of o (nil-safe).
func count(o *obs.Observer, name string) {
	if o != nil {
		o.Registry().Counter(name).Add(1)
	}
}

// jobStateCode maps an engine State to its journal code.
func jobStateCode(s State) int32 {
	switch s {
	case StateQueued:
		return obs.JobStateQueued
	case StateRunning:
		return obs.JobStateRunning
	case StateDone:
		return obs.JobStateDone
	case StateFailed:
		return obs.JobStateFailed
	case StateCanceled:
		return obs.JobStateCanceled
	case StateInterrupted:
		return obs.JobStateInterrupted
	}
	return obs.JobStateQueued
}

// errClass classifies a task error for retry events and SSE payloads.
func errClass(err error) int32 {
	switch {
	case err == nil:
		return obs.ErrClassOther
	case isTransient(err):
		return obs.ErrClassCheckpointIO
	case errors.Is(err, context.DeadlineExceeded):
		return obs.ErrClassTimeout
	case errors.Is(err, context.Canceled):
		return obs.ErrClassCanceled
	}
	return obs.ErrClassOther
}

// taskOutcome classifies a task's end for KindTaskRun events.
func taskOutcome(err error) int32 {
	switch {
	case err == nil:
		return obs.TaskOutcomeDone
	case errors.Is(err, ErrInterrupted):
		return obs.TaskOutcomeInterrupted
	}
	return obs.TaskOutcomeFailed
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

func (m *engineObs) finished(outcome int32) {
	if m == nil {
		return
	}
	if outcome == obs.TaskOutcomeDone {
		m.tasksDone.Add(1)
	} else {
		m.tasksFailed.Add(1)
	}
}

// jobTrace is one job's merged-trace material: a job lane for lifecycle
// transitions and progress, plus one lane per engine worker for task
// spans, checkpoint writes, retries and resumes. Lanes share the job's
// epoch so the merged export lines them up on one wall clock.
type jobTrace struct {
	epoch   time.Time
	job     *obs.Journal
	workers []*obs.Journal
}

func newJobTrace(workers int, epoch time.Time) *jobTrace {
	t := &jobTrace{epoch: epoch, job: obs.NewJournal(jobTraceJobCap, nil)}
	t.workers = make([]*obs.Journal, workers)
	for i := range t.workers {
		t.workers[i] = obs.NewJournal(jobTraceLaneCap, nil)
	}
	return t
}

// wall returns nanoseconds since the job's epoch (its submission).
func (t *jobTrace) wall() int64 { return int64(time.Since(t.epoch)) }

// lanes snapshots the trace for the merged Chrome export.
func (t *jobTrace) lanes() []obs.TraceLane {
	out := make([]obs.TraceLane, 0, 1+len(t.workers))
	out = append(out, t.job.Lane("job"))
	for i, w := range t.workers {
		out = append(out, w.Lane(fmt.Sprintf("worker %d", i)))
	}
	return out
}

// taskHooks carries one task's observability context into the runner:
// the worker's trace lane, the engine metrics, and the job's event bus
// topic. A nil *taskHooks (ExecuteDeck, RunSim, disabled engines) makes
// every method a no-op, keeping the library paths allocation-free.
type taskHooks struct {
	e     *Engine
	j     *Job
	lane  *obs.Journal
	point int
	run   int
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
	if tr := h.j.trace; tr != nil {
		h.lane.Record(obs.Event{Kind: obs.KindTaskResume, Junc: int32(h.point), A: int32(h.run),
			V1: float64(events), Wall: tr.wall()})
	}
	h.e.publish(h.j, "resume", fmt.Sprintf(`{"job":%q,"point":%d,"run":%d,"events_at_resume":%d}`,
		h.j.id, h.point, h.run, events))
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
// latency and size on the registry, a KindCkptWrite span in the worker
// lane, a checkpoint instant in the job lane, and a bus event.
func (h *taskHooks) checkpoint(st ckptStats) {
	if h == nil {
		return
	}
	h.e.eobs.checkpoint(st)
	if tr := h.j.trace; tr != nil {
		end := tr.wall()
		h.lane.Record(obs.Event{Kind: obs.KindCkptWrite, Junc: int32(h.point), A: int32(h.run),
			V1: float64(st.bytes), V2: float64(st.fsyncNS), Wall: end - st.totalNS, Dur: st.totalNS})
		tr.job.Record(obs.Event{Kind: obs.KindJobState, A: obs.JobStateCheckpoint, Wall: end})
	}
	h.e.publish(h.j, "checkpoint", fmt.Sprintf(`{"job":%q,"point":%d,"run":%d,"bytes":%d,"fsync_ns":%d,"write_ns":%d}`,
		h.j.id, h.point, h.run, st.bytes, st.fsyncNS, st.totalNS))
}

// progressEvery rate-limits per-chunk progress publishes.
const progressEvery = 200 * time.Millisecond

// chunk accumulates solver events applied by one runner chunk and
// publishes a rate-limited progress event (tasks done, events/s, ETA).
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
	now := h.j.trace.wall()
	last := h.j.lastProgress.Load()
	if now-last < int64(progressEvery) || !h.j.lastProgress.CompareAndSwap(last, now) {
		return
	}
	h.e.publishProgress(h.j)
}

// publish emits one bus event on the job's topic (nil-safe; the bus
// itself never blocks).
//
//semsim:publish
func (e *Engine) publish(j *Job, typ, data string) {
	if e == nil || e.bus == nil {
		return
	}
	e.bus.Publish(j.id, typ, data)
}

// publishProgress emits a progress event: tasks done/total, solver
// events applied, the job-wide event rate, and a task-count ETA. It also
// samples the job lane so the merged trace carries the progress curve.
//
//semsim:publish
func (e *Engine) publishProgress(j *Job) {
	e.mu.Lock()
	done, total := j.done, j.total
	created := j.created
	e.mu.Unlock()
	events := j.events.Load()
	elapsed := time.Since(created).Seconds()
	var rate float64
	if elapsed > 0 {
		rate = float64(events) / elapsed
	}
	eta := -1.0
	if done > 0 {
		eta = elapsed * float64(total-done) / float64(done)
	}
	if tr := j.trace; tr != nil {
		tr.job.Record(obs.Event{Kind: obs.KindProgress, V1: float64(done), V2: rate, Wall: tr.wall()})
	}
	e.publish(j, "progress", fmt.Sprintf(`{"job":%q,"done":%d,"total":%d,"events":%d,"events_per_sec":%.1f,"eta_sec":%.1f}`,
		j.id, done, total, events, rate, eta))
}
