package jobs

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"semsim/internal/netlist"
	"semsim/internal/obs"
	"semsim/internal/sweep"
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
	// RetryBackoff is the base delay before the first retry, doubling
	// per attempt (0 = 250ms).
	RetryBackoff time.Duration
	// Obs receives engine metrics (jobs submitted/done/failed, retries);
	// nil falls back to the process-global observer.
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
	id       string
	deck     *netlist.Deck
	deckText string
	key      string
	pts      []deckPoint
	runs     int

	// Refinement state of map decks: the fully refined fine-lattice
	// axes and the number of refinement levels already simulated.
	// finishTask plans the next level when a wave completes and appends
	// its points to pts (all nil/zero for sweep decks).
	fineXs, fineYs []float64
	level          int

	// Mutable state, guarded by the engine mutex.
	state     State
	err       error
	created   time.Time
	started   time.Time // first task start (zero until running)
	finished  time.Time
	done      int // completed tasks
	total     int
	resumed   int // tasks that picked up a checkpoint
	results   [][]runResult
	points    []Point
	ctx       context.Context
	cancel    context.CancelFunc
	completed chan struct{} // closed when the job reaches a terminal state

	// Observability (see observe.go): the per-job trace lanes and the
	// atomics feeding progress events. All passive.
	trace        *jobTrace
	events       atomic.Uint64 // solver events applied across all tasks
	lastProgress atomic.Int64  // wall ns of the last progress publish
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

// task is one schedulable unit: a (point, run) pair of a job.
type task struct {
	job     *Job
	point   int
	run     int
	attempt int
}

// Engine executes submitted decks on a bounded worker pool with
// crash-safe checkpointing, per-job timeouts, bounded retry of
// transient failures, cancellation and graceful drain. Create one with
// NewEngine and stop it with Shutdown (drain) or Close (abort).
type Engine struct {
	cfg   EngineConfig
	drain chan struct{}
	wg    sync.WaitGroup

	mu     sync.Mutex
	cond   *sync.Cond
	queue  []task
	jobs   map[string]*Job
	seq    int
	closed bool

	// Observability (see observe.go): the live-progress event bus, the
	// pre-resolved engine metrics (nil without an observer), and the
	// atomics behind the queue/worker gauges.
	bus      *obs.Bus
	eobs     *engineObs
	queueLen atomic.Int64
	running  atomic.Int64

	// runTask is the task executor; tests substitute a scripted one.
	runTask func(ctx context.Context, t task, cfg RunConfig) (runResult, error)
}

// NewEngine starts an engine with cfg.Workers worker goroutines.
func NewEngine(cfg EngineConfig) *Engine {
	return newEngine(cfg, nil)
}

// newEngine is the real constructor; tests pass a scripted runTask to
// unit-test scheduling, retry and drain without running simulations.
func newEngine(cfg EngineConfig, runTask func(ctx context.Context, t task, cfg RunConfig) (runResult, error)) *Engine {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxRetries == 0 {
		cfg.MaxRetries = 2
	} else if cfg.MaxRetries < 0 {
		cfg.MaxRetries = 0
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 250 * time.Millisecond
	}
	e := &Engine{
		cfg:   cfg,
		drain: make(chan struct{}),
		jobs:  map[string]*Job{},
		bus:   obs.NewBus(0, 0),
	}
	e.cond = sync.NewCond(&e.mu)
	if o := e.observer(); o != nil {
		e.eobs = newEngineObs(o, e)
		e.bus.CountOn(o.Registry().Counter("jobs.events_published"),
			o.Registry().Counter("jobs.events_dropped"))
	}
	e.runTask = runTask
	if e.runTask == nil {
		e.runTask = func(ctx context.Context, t task, cfg RunConfig) (runResult, error) {
			return runDeckPoint(ctx, t.job.deck, t.job.key, t.job.pts[t.point], t.run, cfg)
		}
	}
	for w := 0; w < cfg.Workers; w++ {
		e.wg.Add(1)
		go e.worker(w)
	}
	return e
}

func (e *Engine) observer() *obs.Observer {
	if e.cfg.Obs != nil {
		return e.cfg.Obs
	}
	return obs.Global()
}

func (e *Engine) count(name string) {
	if o := e.observer(); o != nil {
		o.Registry().Counter(name).Add(1)
	}
}

// Submit queues a deck for execution and returns its job id. The deck
// is validated up front; scheduling is asynchronous. Submitting a deck
// whose previous job was interrupted (or crashed) resumes from the
// persisted checkpoints automatically — the checkpoint key is derived
// from the deck content, not the job id.
func (e *Engine) Submit(d *netlist.Deck) (*Job, error) {
	if err := validateDeck(d); err != nil {
		return nil, err
	}
	key, err := deckKey(d)
	if err != nil {
		return nil, err
	}
	var text bytes.Buffer // canonical deck text, kept for status/debugging
	if err := d.Format(&text); err != nil {
		return nil, err
	}
	spec := d.Spec
	pts := deckPoints(&spec)
	runs := spec.Runs
	if runs < 1 {
		runs = 1
	}
	var fineXs, fineYs []float64
	if mp := spec.Map; mp != nil {
		fineXs = sweep.RefineAxis(mp.X.Values(), mp.Depth)
		fineYs = sweep.RefineAxis(mp.Y.Values(), mp.Depth)
	}

	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil, errors.New("jobs: engine is shut down")
	}
	e.seq++
	j := &Job{
		id:        fmt.Sprintf("j%06d", e.seq),
		deck:      d,
		deckText:  text.String(),
		key:       key,
		pts:       pts,
		runs:      runs,
		fineXs:    fineXs,
		fineYs:    fineYs,
		state:     StateQueued,
		created:   time.Now(),
		total:     len(pts) * runs,
		completed: make(chan struct{}),
	}
	j.results = make([][]runResult, len(pts))
	for i := range j.results {
		j.results[i] = make([]runResult, runs)
	}
	j.trace = newJobTrace(e.cfg.Workers, j.created)
	base := context.Background()
	if e.cfg.JobTimeout > 0 {
		j.ctx, j.cancel = context.WithTimeout(base, e.cfg.JobTimeout)
	} else {
		j.ctx, j.cancel = context.WithCancel(base)
	}
	e.jobs[j.id] = j
	for i := range pts {
		for r := 0; r < runs; r++ {
			e.queue = append(e.queue, task{job: j, point: i, run: r})
		}
	}
	e.queueLen.Add(int64(j.total))
	e.count("jobs.submitted")
	j.trace.job.Record(obs.Event{Kind: obs.KindJobState, A: obs.JobStateQueued, Wall: j.trace.wall()})
	e.publish(j, "state", fmt.Sprintf(`{"job":%q,"state":%q,"tasks_total":%d}`, j.id, StateQueued, j.total))
	e.cond.Broadcast()
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
		ID: j.id, State: j.state, Key: j.key,
		Points: len(j.pts), RunsPer: j.runs,
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

// Result returns the folded points of a completed job. It errors until
// the job reaches StateDone.
func (e *Engine) Result(j *Job) ([]Point, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	switch j.state {
	case StateDone:
		return j.points, nil
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

func (e *Engine) worker(id int) {
	defer e.wg.Done()
	// The worker's compile-once session persists across tasks AND jobs:
	// consecutive tasks of the same deck (and later jobs over the same
	// deck) re-seed the cached solver instead of rebuilding it.
	ds := &deckSession{}
	for {
		e.mu.Lock()
		for len(e.queue) == 0 && !e.closed {
			e.cond.Wait()
		}
		if len(e.queue) == 0 && e.closed {
			e.mu.Unlock()
			return
		}
		t := e.queue[0]
		e.queue = e.queue[1:]
		e.queueLen.Add(-1)
		first := false
		if t.job.state == StateQueued {
			t.job.state = StateRunning
			t.job.started = time.Now()
			first = true
		}
		e.mu.Unlock()
		if first {
			// The queued span closes when the first task starts.
			tr := t.job.trace
			now := tr.wall()
			tr.job.Record(obs.Event{Kind: obs.KindSpan, Junc: tr.job.InternName("queued"), Dur: now})
			tr.job.Record(obs.Event{Kind: obs.KindJobState, A: obs.JobStateRunning, Wall: now})
			e.publish(t.job, "state", fmt.Sprintf(`{"job":%q,"state":%q}`, t.job.id, StateRunning))
		}

		switch {
		case t.job.ctx.Err() != nil:
			// Canceled or timed out before this task started.
			e.finishTask(t, runResult{}, t.job.ctx.Err())
			continue
		case e.draining():
			// A draining engine starts no new work; the job stays
			// resumable via its checkpoints.
			e.finishTask(t, runResult{}, ErrInterrupted)
			continue
		}

		lane := t.job.trace.workers[id%len(t.job.trace.workers)]
		cfg := RunConfig{
			Dir:     e.cfg.CheckpointDir,
			Every:   e.cfg.CheckpointEvery,
			Resume:  e.cfg.CheckpointDir != "",
			Stop:    e.drain,
			hooks:   &taskHooks{e: e, j: t.job, lane: lane, point: t.point, run: t.run},
			session: ds,
		}
		e.running.Add(1)
		startWall := t.job.trace.wall()
		res, err := e.runTask(t.job.ctx, t, cfg)
		e.running.Add(-1)
		lane.Record(obs.Event{Kind: obs.KindTaskRun, Junc: int32(t.point), A: int32(t.run),
			B: taskOutcome(err), V1: float64(res.Events),
			Wall: startWall, Dur: t.job.trace.wall() - startWall})
		if err != nil && isTransient(err) && t.attempt < e.cfg.MaxRetries &&
			t.job.ctx.Err() == nil && !e.draining() {
			if m := e.eobs; m != nil {
				m.tasksRetried.Add(1)
			}
			delay := e.cfg.RetryBackoff << uint(t.attempt)
			lane.Record(obs.Event{Kind: obs.KindTaskRetry, Junc: int32(t.point), A: int32(t.run),
				B: int32(t.attempt + 1), V1: delay.Seconds(), V2: float64(errClass(err)),
				Wall: t.job.trace.wall()})
			e.publish(t.job, "retry", fmt.Sprintf(`{"job":%q,"point":%d,"run":%d,"attempt":%d,"delay_sec":%g,"error_class":%q}`,
				t.job.id, t.point, t.run, t.attempt+1, delay.Seconds(), obs.ErrClassName(int(errClass(err)))))
			if e.backoff(t) {
				continue // requeued
			}
		}
		e.finishTask(t, res, err)
	}
}

// backoff sleeps the task's exponential backoff delay and requeues it,
// unless the job is canceled or the engine drains first (then the
// task's error stands). It reports whether the task was requeued.
func (e *Engine) backoff(t task) bool {
	d := e.cfg.RetryBackoff << uint(t.attempt)
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
	case <-t.job.ctx.Done():
		return false
	case <-e.drain:
		return false
	}
	t.attempt++
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return false
	}
	e.queue = append(e.queue, t)
	e.queueLen.Add(1)
	e.cond.Broadcast()
	e.mu.Unlock()
	return true
}

// finishTask records a task outcome and finalizes the job when it was
// the last one. A task's permanent failure cancels its job, so queued
// tasks finish as canceled instead of running for a result the failed
// job would throw away; a drained job (ErrInterrupted) is not canceled
// and stays resumable. The terminal bus event is published before
// completed is closed, so event streams always observe the final state.
func (e *Engine) finishTask(t task, res runResult, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	j := t.job
	j.done++
	if err == nil {
		j.results[t.point][t.run] = res
	} else if j.err == nil || errors.Is(j.err, ErrInterrupted) || errors.Is(j.err, context.Canceled) {
		// Keep the most informative error: real failures trump the
		// interrupts/cancellations they trigger on sibling tasks.
		if j.err == nil || (!errors.Is(err, ErrInterrupted) && !errors.Is(err, context.Canceled)) {
			j.err = err
		}
	}
	if err != nil && !errors.Is(err, ErrInterrupted) &&
		!errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
		j.cancel()
	}
	outcome := taskOutcome(err)
	e.eobs.finished(outcome)
	e.publish(j, "task_done", fmt.Sprintf(`{"job":%q,"point":%d,"run":%d,"outcome":%q,"events":%d,"done":%d,"total":%d}`,
		j.id, t.point, t.run, obs.TaskOutcomeName(int(outcome)), res.Events, j.done, j.total))
	if j.done < j.total {
		return
	}
	if j.err == nil {
		// A completed wave of a map deck: plan the next refinement level
		// from the folded currents and fan its points out instead of
		// finalizing. The plan is pure arithmetic on completed results, so
		// the job's trajectory set is identical at any worker count — and
		// a resubmission after an interrupt replays earlier waves from
		// done markers and lands on the same plan.
		spec := j.deck.Spec
		if next := planRefine(&spec, j.fineXs, j.fineYs, j.pts, j.results, j.level); len(next) > 0 {
			j.level++
			start := len(j.pts)
			j.pts = append(j.pts, next...)
			for range next {
				j.results = append(j.results, make([]runResult, j.runs))
			}
			added := len(next) * j.runs
			j.total += added
			for i := start; i < len(j.pts); i++ {
				for r := 0; r < j.runs; r++ {
					e.queue = append(e.queue, task{job: j, point: i, run: r})
				}
			}
			e.queueLen.Add(int64(added))
			e.count("jobs.refine_waves")
			e.publish(j, "refine", fmt.Sprintf(`{"job":%q,"level":%d,"new_points":%d,"tasks_total":%d}`,
				j.id, j.level, len(next), j.total))
			e.cond.Broadcast()
			return
		}
	}
	j.finished = time.Now()
	switch {
	case j.err == nil:
		spec := j.deck.Spec
		j.points = foldResults(&spec, j.pts, j.results)
		j.state = StateDone
		e.count("jobs.done")
		if dir := e.cfg.CheckpointDir; dir != "" && !e.cfg.ResultCache {
			// The job folded; its per-task done markers are obsolete.
			// With ResultCache they stay behind so an identical deck
			// submitted later reuses every completed result.
			for _, p := range j.pts {
				for r := 0; r < j.runs; r++ {
					os.Remove(checkpointPath(dir, j.key, p.Fine, r))
				}
			}
		}
	case errors.Is(j.err, ErrInterrupted):
		j.state = StateInterrupted
		e.count("jobs.interrupted")
	case errors.Is(j.err, context.Canceled), errors.Is(j.err, context.DeadlineExceeded):
		j.state = StateCanceled
		e.count("jobs.canceled")
	default:
		j.state = StateFailed
		e.count("jobs.failed")
	}
	if tr := j.trace; tr != nil {
		now := tr.wall()
		if !j.started.IsZero() {
			// The running span covers first task start to job finish.
			start := int64(j.started.Sub(tr.epoch))
			tr.job.Record(obs.Event{Kind: obs.KindSpan, Junc: tr.job.InternName("running"),
				Wall: start, Dur: now - start})
		}
		tr.job.Record(obs.Event{Kind: obs.KindJobState, A: jobStateCode(j.state), Wall: now})
	}
	errText := ""
	if j.err != nil {
		errText = j.err.Error()
	}
	e.publish(j, "state", fmt.Sprintf(`{"job":%q,"state":%q,"done":%d,"total":%d,"error":%q}`,
		j.id, j.state, j.done, j.total, errText))
	j.cancel() // release the timeout timer
	close(j.completed)
}

// Shutdown drains the engine gracefully: no new tasks start, in-flight
// runs persist a checkpoint at their next refresh boundary and finish
// as interrupted, and Shutdown returns when every worker has stopped or
// ctx expires — in which case it hard-cancels everything still running
// and waits for the workers to notice.
func (e *Engine) Shutdown(ctx context.Context) error {
	e.mu.Lock()
	if !e.closed {
		e.closed = true
		close(e.drain)
	}
	e.cond.Broadcast()
	e.mu.Unlock()

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

// Close aborts the engine: every job is canceled and workers exit as
// soon as their current chunk completes. Prefer Shutdown.
func (e *Engine) Close() {
	e.mu.Lock()
	if !e.closed {
		e.closed = true
		close(e.drain)
	}
	e.cond.Broadcast()
	e.mu.Unlock()
	e.cancelAll()
	e.wg.Wait()
}

func (e *Engine) cancelAll() {
	e.mu.Lock()
	jobs := make([]*Job, 0, len(e.jobs))
	for _, j := range e.jobs {
		jobs = append(jobs, j)
	}
	e.mu.Unlock()
	for _, j := range jobs {
		j.cancel()
	}
}
