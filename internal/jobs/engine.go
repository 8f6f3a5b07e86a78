package jobs

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"semsim/internal/netlist"
	"semsim/internal/obs"
)

// State is a job's lifecycle position.
type State string

// Job states. Queued jobs wait for a worker; running jobs have at
// least one task in flight; the terminal states are done, failed and
// canceled; interrupted jobs were drained mid-flight with their
// progress checkpointed — resubmitting the same deck resumes them.
const (
	StateQueued      State = "queued"
	StateRunning     State = "running"
	StateDone        State = "done"
	StateFailed      State = "failed"
	StateCanceled    State = "canceled"
	StateInterrupted State = "interrupted"
)

// EngineConfig tunes an Engine. The zero value is usable: GOMAXPROCS
// workers, no checkpointing, no timeout, two retries.
type EngineConfig struct {
	// Workers bounds how many (point, run) tasks run concurrently across
	// all jobs (0 = GOMAXPROCS). Each task runs serially on its worker.
	Workers int
	// CheckpointDir is where per-task checkpoint files live; empty
	// disables crash-safety (jobs restart from scratch after a crash).
	CheckpointDir string
	// CheckpointEvery is the target events between checkpoints (0 = the
	// package default; always rounded up to the solver refresh period).
	CheckpointEvery int
	// JobTimeout caps each job's wall-clock lifetime from submission
	// (0 = unlimited). Expired jobs fail with context.DeadlineExceeded.
	JobTimeout time.Duration
	// MaxRetries bounds per-task retries of transient failures
	// (checkpoint I/O); < 0 disables retries, 0 means the default of 2.
	MaxRetries int
	// Obs receives the engine's and its jobs' metrics (engine, runner,
	// solver and sweep); nil falls back to the process-global observer.
	Obs *obs.Observer
	// ResultCache keeps per-task done markers in CheckpointDir after a
	// job completes instead of deleting them. Markers are keyed by deck
	// content, so a later job over an identical deck reuses every
	// completed (point, run) result instead of re-simulating — a
	// daemon-scoped result cache, sound because trajectories are
	// deterministic.
	ResultCache bool
}

// Job is one submitted deck execution tracked by an Engine. All fields
// are managed by the engine; read them through Status and Result.
type Job struct {
	id  string
	run *deckRun // driven by the job's goroutine; others read key and runs

	// Mutable state, guarded by the engine mutex.
	state     State
	err       error
	created   time.Time
	started   time.Time // first task start (zero until running)
	finished  time.Time
	points    int // points planned so far; refinement waves add more
	begun     int // tasks started
	done      int // tasks finished
	total     int // tasks planned so far
	resumed   int // tasks that picked up a checkpoint
	result    []Point
	ctx       context.Context
	cancel    context.CancelFunc
	completed chan struct{} // closed when the job reaches a terminal state

	// Observability (see observe.go): the job's event log and the
	// atomics feeding progress events. All passive.
	log          *eventLog
	events       atomic.Uint64 // solver events applied across all tasks
	lastProgress atomic.Int64  // wall ns of the last progress event
}

// JobStatus is a JSON-friendly snapshot of a job's progress.
type JobStatus struct {
	ID         string  `json:"id"`
	State      State   `json:"state"`
	Error      string  `json:"error,omitempty"`
	Key        string  `json:"key"`
	Points     int     `json:"points"`
	RunsPer    int     `json:"runs_per_point"`
	TasksDone  int     `json:"tasks_done"`
	TasksTotal int     `json:"tasks_total"`
	Resumed    int     `json:"tasks_resumed,omitempty"`
	CreatedAt  string  `json:"created_at"`
	FinishedAt string  `json:"finished_at,omitempty"`
	RuntimeSec float64 `json:"runtime_sec"`
}

// Engine executes submitted decks with crash-safe checkpointing,
// per-job timeouts, bounded retry of transient failures, cancellation
// and graceful drain. Each job runs in its own goroutine through the
// deck executor ExecuteDeck uses, and all jobs borrow their workers
// from one pool of cfg.Workers. Create one with NewEngine and stop it
// with Shutdown (drain) or Close (abort).
type Engine struct {
	cfg   EngineConfig
	drain chan struct{}
	pool  chan *worker
	wg    sync.WaitGroup // one per unfinished job

	mu     sync.Mutex
	jobs   map[string]*Job
	seq    int
	closed bool

	// Observability (see observe.go): how many events each job's log
	// keeps, the pre-resolved engine metrics (nil without an observer),
	// and the atomics behind the queue/worker gauges.
	logKeep   int
	eobs      *engineObs
	unstarted atomic.Int64 // tasks of unfinished jobs not yet started
	running   atomic.Int64

	// runTask is the task executor; tests substitute a scripted one.
	runTask taskFunc
	// retryBackoff is the delay before a task's first retry, doubling
	// per attempt.
	retryBackoff time.Duration
}

// NewEngine starts an engine with a pool of cfg.Workers workers.
func NewEngine(cfg EngineConfig) *Engine {
	return newEngine(cfg, nil)
}

// newEngine is the real constructor; tests pass a scripted runTask to
// unit-test scheduling, retry and drain without running simulations.
func newEngine(cfg EngineConfig, runTask taskFunc) *Engine {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxRetries == 0 {
		cfg.MaxRetries = 2
	} else if cfg.MaxRetries < 0 {
		cfg.MaxRetries = 0
	}
	// The workers' compile-once sessions persist across tasks AND jobs:
	// later tasks of the same deck (and later jobs over the same deck)
	// re-seed the cached solver instead of rebuilding it.
	e := &Engine{
		cfg:          cfg,
		drain:        make(chan struct{}),
		pool:         newPool(cfg.Workers),
		jobs:         map[string]*Job{},
		logKeep:      logPerWorker*cfg.Workers + logBase,
		retryBackoff: 250 * time.Millisecond,
	}
	if o := e.observer(); o != nil {
		e.eobs = newEngineObs(o, e)
	}
	e.runTask = runTask
	if e.runTask == nil {
		e.runTask = simulate
	}
	return e
}

func (e *Engine) observer() *obs.Observer {
	if e.cfg.Obs != nil {
		return e.cfg.Obs
	}
	return obs.Global()
}

// Submit starts a deck's job and returns it. The deck is validated up
// front; execution is asynchronous. Submitting a deck whose previous
// job was interrupted (or crashed) resumes from the persisted
// checkpoints automatically — the checkpoint key is derived from the
// deck content, not the job id.
func (e *Engine) Submit(d *netlist.Deck) (*Job, error) {
	r, err := newDeckRun(d)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil, errors.New("jobs: engine is shut down")
	}
	e.seq++
	j := &Job{
		id:        fmt.Sprintf("j%06d", e.seq),
		run:       r,
		state:     StateQueued,
		created:   time.Now(),
		points:    len(r.pts),
		total:     len(r.pts) * r.runs,
		completed: make(chan struct{}),
		log:       newEventLog(e.logKeep),
	}
	base := context.Background()
	if e.cfg.JobTimeout > 0 {
		j.ctx, j.cancel = context.WithTimeout(base, e.cfg.JobTimeout)
	} else {
		j.ctx, j.cancel = context.WithCancel(base)
	}
	e.jobs[j.id] = j
	e.unstarted.Add(int64(j.total))
	count(e.observer(), "jobs.submitted")
	e.emit(j, jobEvent{kind: evState, code: stateCode(StateQueued), wall: j.wall(), total: int32(j.total)})
	e.wg.Add(1)
	go e.runJob(j)
	return j, nil
}

// Job returns the job with the given id, or nil.
func (e *Engine) Job(id string) *Job {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.jobs[id]
}

// Jobs returns a status snapshot of every known job, sorted by id.
func (e *Engine) Jobs() []JobStatus {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]JobStatus, 0, len(e.jobs))
	for _, j := range e.jobs {
		out = append(out, e.statusLocked(j))
	}
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	return out
}

// Cancel aborts a job: queued tasks are dropped and running tasks stop
// at their next chunk boundary without a final checkpoint. It reports
// whether the id was known.
func (e *Engine) Cancel(id string) bool {
	e.mu.Lock()
	j := e.jobs[id]
	e.mu.Unlock()
	if j == nil {
		return false
	}
	j.cancel()
	return true
}

// Status returns a snapshot of the job's progress.
func (e *Engine) Status(j *Job) JobStatus {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.statusLocked(j)
}

func (e *Engine) statusLocked(j *Job) JobStatus {
	st := JobStatus{
		ID: j.id, State: j.state, Key: j.run.key,
		Points: j.points, RunsPer: j.run.runs,
		TasksDone: j.done, TasksTotal: j.total, Resumed: j.resumed,
		CreatedAt: j.created.UTC().Format(time.RFC3339),
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	end := time.Now()
	if !j.finished.IsZero() {
		st.FinishedAt = j.finished.UTC().Format(time.RFC3339)
		end = j.finished
	}
	st.RuntimeSec = end.Sub(j.created).Seconds()
	return st
}

// errText returns the job's error message, "" while it has none.
func (e *Engine) errText(j *Job) string {
	e.mu.Lock()
	defer e.mu.Unlock()
	if j.err == nil {
		return ""
	}
	return j.err.Error()
}

// Result returns the folded points of a completed job. It errors until
// the job reaches StateDone.
func (e *Engine) Result(j *Job) ([]Point, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	switch j.state {
	case StateDone:
		return j.result, nil
	case StateFailed:
		return nil, fmt.Errorf("jobs: job %s failed: %w", j.id, j.err)
	case StateCanceled:
		return nil, fmt.Errorf("jobs: job %s was canceled", j.id)
	case StateInterrupted:
		return nil, fmt.Errorf("jobs: job %s was interrupted; resubmit the deck to resume", j.id)
	default:
		return nil, fmt.Errorf("jobs: job %s is %s (%d/%d tasks)", j.id, j.state, j.done, j.total)
	}
}

// ID returns the job's engine-assigned identifier.
func (j *Job) ID() string { return j.id }

// wall returns nanoseconds since the job's submission: the clock its
// events are stamped on.
func (j *Job) wall() int64 { return int64(time.Since(j.created)) }

// Wait blocks until the job reaches a terminal state or ctx is
// canceled.
func (j *Job) Wait(ctx context.Context) error {
	select {
	case <-j.completed:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (e *Engine) draining() bool {
	select {
	case <-e.drain:
		return true
	default:
		return false
	}
}

// runJob executes j's deck on the engine's pool and finalizes the job.
// Workers flow from one wave straight into the next, and a refinement
// wave grows the job's totals and emits a refine event before its
// tasks start.
func (e *Engine) runJob(j *Job) {
	defer e.wg.Done()
	cfg := RunConfig{
		Dir:      e.cfg.CheckpointDir,
		Every:    e.cfg.CheckpointEvery,
		Resume:   e.cfg.CheckpointDir != "",
		Stop:     e.drain,
		observer: e.observer(),
	}
	run := func(ctx context.Context, t task, cfg RunConfig) (runResult, error) {
		return e.runJobTask(ctx, j, t, cfg)
	}
	err := j.run.execute(j.ctx, e.pool, cfg, run, func(level, points int) {
		e.mu.Lock()
		defer e.mu.Unlock()
		j.points += points
		j.total += points * j.run.runs
		e.unstarted.Add(int64(points * j.run.runs))
		e.emit(j, jobEvent{kind: evRefine, wall: j.wall(), a: int32(level), n: uint64(points), total: int32(j.total)})
	})
	e.finish(j, err)
}

// runJobTask runs one task of j with the daemon's additions:
// the queued→running transition, no start once the engine drains,
// bounded retry of transient failures with exponential backoff (the
// task keeps its worker meanwhile), job events and engine metrics.
func (e *Engine) runJobTask(ctx context.Context, j *Job, t task, cfg RunConfig) (runResult, error) {
	if e.draining() {
		// A draining engine starts no new work; the job stays
		// resumable via its checkpoints.
		return runResult{}, ErrInterrupted
	}
	e.unstarted.Add(-1)
	e.mu.Lock()
	j.begun++
	if j.state == StateQueued {
		j.state, j.started = StateRunning, time.Now()
		e.emit(j, jobEvent{kind: evState, code: stateCode(StateRunning), wall: int64(j.started.Sub(j.created))})
	}
	e.mu.Unlock()

	h := &taskHooks{e: e, j: j, worker: t.w.id, point: t.point, run: t.run}
	cfg.hooks = h
	var (
		res runResult
		err error
		// span is the latest attempt: its start, length and events.
		span = h.event(evTaskDone)
	)
	for attempt := 0; ; attempt++ {
		e.running.Add(1)
		span.wall = j.wall()
		res, err = e.runTask(ctx, t, cfg)
		e.running.Add(-1)
		span.dur, span.n, span.a = j.wall()-span.wall, res.Events, int32(attempt+1)
		if err == nil || !isTransient(err) || attempt >= e.cfg.MaxRetries || ctx.Err() != nil || e.draining() {
			break
		}
		if m := e.eobs; m != nil {
			m.tasksRetried.Add(1)
		}
		delay := e.retryBackoff << uint(attempt)
		retry := span
		retry.kind, retry.ns = evRetry, int64(delay)
		e.emit(j, retry)
		select {
		case <-time.After(delay):
			continue
		case <-ctx.Done():
		case <-e.drain:
		}
		// Canceled or drained during the backoff: the error stands, and
		// the retry event already carried the attempt.
		span.a = 0
		break
	}

	e.mu.Lock()
	j.done++
	span.done, span.total = int32(j.done), int32(j.total)
	e.mu.Unlock()
	span.code = taskOutcome(err)
	e.eobs.finished(span.code)
	e.emit(j, span)
	return res, err
}

// finish records a job's outcome: the folded points of a completed run
// (whose done markers are then removed unless ResultCache keeps them
// for identical decks submitted later), or the terminal state the error
// implies. The terminal state event is emitted before completed is
// closed, so event streams always observe the final state.
func (e *Engine) finish(j *Job, err error) {
	var pts []Point
	if err == nil {
		pts = j.run.fold()
		if dir := e.cfg.CheckpointDir; dir != "" && !e.cfg.ResultCache {
			j.run.removeMarkers(dir)
		}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.unstarted.Add(-int64(j.total - j.begun))
	j.err, j.result, j.finished = err, pts, time.Now()
	switch {
	case err == nil:
		j.state = StateDone
		count(e.observer(), "jobs.done")
	case errors.Is(err, ErrInterrupted):
		j.state = StateInterrupted
		count(e.observer(), "jobs.interrupted")
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		j.state = StateCanceled
		count(e.observer(), "jobs.canceled")
	default:
		j.state = StateFailed
		count(e.observer(), "jobs.failed")
	}
	ev := jobEvent{kind: evState, code: stateCode(j.state), wall: int64(j.finished.Sub(j.created)),
		ns: -1, done: int32(j.done), total: int32(j.total)}
	if !j.started.IsZero() {
		ev.ns = int64(j.started.Sub(j.created))
	}
	e.emit(j, ev)
	j.cancel() // release the timeout timer
	close(j.completed)
}

// stopAccepting refuses further submissions and starts the drain.
func (e *Engine) stopAccepting() {
	e.mu.Lock()
	if !e.closed {
		e.closed = true
		close(e.drain)
	}
	e.mu.Unlock()
}

// Shutdown drains the engine gracefully: no new tasks start, in-flight
// runs persist a checkpoint at their next refresh boundary and finish
// as interrupted, and Shutdown returns when every job has reached a
// terminal state or ctx expires — in which case it hard-cancels
// everything still running and waits for the jobs to notice.
func (e *Engine) Shutdown(ctx context.Context) error {
	e.stopAccepting()

	done := make(chan struct{})
	go func() {
		e.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		e.cancelAll()
		<-done
		return ctx.Err()
	}
}

// Close aborts the engine: every job is canceled and ends as soon as
// its running tasks finish their current chunk. Prefer Shutdown.
func (e *Engine) Close() {
	e.stopAccepting()
	e.cancelAll()
	e.wg.Wait()
}

func (e *Engine) cancelAll() {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, j := range e.jobs {
		j.cancel()
	}
}
