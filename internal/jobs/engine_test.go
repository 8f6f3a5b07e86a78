package jobs

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"semsim/internal/obs"
)

// scriptedEngine builds an engine whose tasks run the given function
// instead of a simulation.
func scriptedEngine(t *testing.T, cfg EngineConfig, fn func(ctx context.Context, tk task, rc RunConfig) (runResult, error)) *Engine {
	t.Helper()
	e := newEngine(cfg, fn)
	t.Cleanup(e.Close)
	return e
}

func submit(t *testing.T, e *Engine) *Job {
	t.Helper()
	j, err := e.Submit(parseDeck(t, testDeck))
	if err != nil {
		t.Fatal(err)
	}
	return j
}

func waitState(t *testing.T, e *Engine, j *Job, want State) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := j.Wait(ctx); err != nil {
		t.Fatalf("job stuck in %s: %v", e.Status(j).State, err)
	}
	if st := e.Status(j); st.State != want {
		t.Fatalf("job state %s (err %q), want %s", st.State, st.Error, want)
	}
}

// A transiently failing task must be retried with backoff and succeed
// within the retry budget. Each retry is counted once, as
// jobs.tasks_retried.
func TestEngineRetriesTransientFailures(t *testing.T) {
	var calls atomic.Int32
	o := obs.New(obs.Config{})
	e := scriptedEngine(t, EngineConfig{Workers: 2, MaxRetries: 2, RetryBackoff: time.Millisecond, Obs: o},
		func(ctx context.Context, tk task, rc RunConfig) (runResult, error) {
			if tk.point == 0 && tk.run == 0 && calls.Add(1) < 3 {
				return runResult{}, &transientError{errors.New("disk hiccup")}
			}
			return runResult{Current: map[int]float64{1: 1, 2: 1}}, nil
		})
	j := submit(t, e)
	waitState(t, e, j, StateDone)
	if got := calls.Load(); got != 3 {
		t.Fatalf("flaky task ran %d times, want 3 (two retries)", got)
	}
	if _, err := e.Result(j); err != nil {
		t.Fatal(err)
	}
	counters := o.Registry().Snapshot().Counters
	if got, ok := counters["jobs.tasks_retried"]; !ok || got != 2 {
		t.Errorf("jobs.tasks_retried = %d (present %v), want 2", got, ok)
	}
	if _, ok := counters["jobs.task_retries"]; ok {
		t.Error("the retry is also counted as jobs.task_retries")
	}
}

// Exhausting the retry budget fails the job with the underlying error.
func TestEngineRetryBudgetExhausted(t *testing.T) {
	e := scriptedEngine(t, EngineConfig{Workers: 1, MaxRetries: 1, RetryBackoff: time.Millisecond},
		func(ctx context.Context, tk task, rc RunConfig) (runResult, error) {
			return runResult{}, &transientError{errors.New("disk gone")}
		})
	j := submit(t, e)
	waitState(t, e, j, StateFailed)
	if _, err := e.Result(j); err == nil || !strings.Contains(err.Error(), "disk gone") {
		t.Fatalf("failed job error %v does not carry the cause", err)
	}
}

// Permanent (non-transient) failures must not be retried at all, and
// the first one stops its job: the other tasks never run, and the job
// fails with the task's error, named by its point and run.
func TestEngineDoesNotRetryPermanentFailures(t *testing.T) {
	var calls atomic.Int32
	broke := errors.New("physics broke")
	e := scriptedEngine(t, EngineConfig{Workers: 1, MaxRetries: 3, RetryBackoff: time.Millisecond},
		func(ctx context.Context, tk task, rc RunConfig) (runResult, error) {
			calls.Add(1)
			return runResult{}, broke
		})
	j := submit(t, e)
	waitState(t, e, j, StateFailed)
	// 6 tasks (3 points x 2 runs): the first runs once, unretried, and
	// no other starts.
	if got := calls.Load(); got != 1 {
		t.Fatalf("permanent failures ran %d tasks, want 1 (no retries, job stopped)", got)
	}
	if st, want := e.Status(j), "point 0 (v=-0.02) run 0: physics broke"; st.Error != want {
		t.Errorf("job error %q, want %q", st.Error, want)
	}
	if _, err := e.Result(j); !errors.Is(err, broke) {
		t.Errorf("failed job result error %v, want the task's", err)
	}
}

// Cancel must abort running tasks (via their context) and drop queued
// ones, landing the job in StateCanceled.
func TestEngineCancel(t *testing.T) {
	started := make(chan string, 16)
	e := scriptedEngine(t, EngineConfig{Workers: 1},
		func(ctx context.Context, tk task, rc RunConfig) (runResult, error) {
			started <- fmt.Sprintf("p%dr%d", tk.point, tk.run)
			<-ctx.Done()
			return runResult{}, ctx.Err()
		})
	j := submit(t, e)
	<-started // first task is in flight and blocked on its context
	if !e.Cancel(j.ID()) {
		t.Fatal("Cancel did not find the job")
	}
	waitState(t, e, j, StateCanceled)
	if e.Cancel("j999999") {
		t.Fatal("Cancel invented a job")
	}
	if _, err := e.Result(j); err == nil {
		t.Fatal("canceled job handed out a result")
	}
}

// A job timeout cancels the job the same way an explicit Cancel does.
func TestEngineJobTimeout(t *testing.T) {
	e := scriptedEngine(t, EngineConfig{Workers: 1, JobTimeout: 5 * time.Millisecond},
		func(ctx context.Context, tk task, rc RunConfig) (runResult, error) {
			<-ctx.Done()
			return runResult{}, ctx.Err()
		})
	j := submit(t, e)
	waitState(t, e, j, StateCanceled)
}

// Shutdown drains: running tasks get the drain signal (and report
// ErrInterrupted, as a real run would after its final checkpoint),
// queued tasks never start — of either job — and both jobs land in
// StateInterrupted.
func TestEngineShutdownDrains(t *testing.T) {
	started := make(chan struct{}, 16)
	var calls atomic.Int32
	e := scriptedEngine(t, EngineConfig{Workers: 1},
		func(ctx context.Context, tk task, rc RunConfig) (runResult, error) {
			calls.Add(1)
			started <- struct{}{}
			select {
			case <-rc.Stop:
				return runResult{}, ErrInterrupted
			case <-ctx.Done():
				return runResult{}, ctx.Err()
			}
		})
	j := submit(t, e)
	queued := submit(t, e)
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := e.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("%d tasks reached runTask, want only the 1 in flight at the drain", got)
	}
	for _, dj := range []*Job{j, queued} {
		if st := e.Status(dj); st.State != StateInterrupted {
			t.Fatalf("drained job %s is %s, want %s", st.ID, st.State, StateInterrupted)
		}
	}
	if _, err := e.Result(j); err == nil || !strings.Contains(err.Error(), "resubmit") {
		t.Fatalf("interrupted job error %v does not point at resume", err)
	}
	if _, err := e.Submit(parseDeck(t, testDeck)); err == nil {
		t.Fatal("shut-down engine accepted a submission")
	}
}

// An expired Shutdown context hard-cancels what is still running.
func TestEngineShutdownHardCancel(t *testing.T) {
	started := make(chan struct{}, 16)
	e := scriptedEngine(t, EngineConfig{Workers: 1},
		func(ctx context.Context, tk task, rc RunConfig) (runResult, error) {
			started <- struct{}{}
			<-ctx.Done() // ignores the drain: only a hard cancel stops it
			return runResult{}, ctx.Err()
		})
	j := submit(t, e)
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := e.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown returned %v, want deadline exceeded", err)
	}
	if st := e.Status(j); st.State != StateCanceled && st.State != StateInterrupted {
		t.Fatalf("hard-canceled job is %s", st.State)
	}
}

// The jobs share one pool: with Workers 2, the tasks of three jobs run
// at most two at a time, two do overlap, and every task completes.
func TestEngineJobsShareOnePool(t *testing.T) {
	var calls, inflight, peak atomic.Int32
	overlap := make(chan struct{})
	var once sync.Once
	e := scriptedEngine(t, EngineConfig{Workers: 2},
		func(ctx context.Context, tk task, rc RunConfig) (runResult, error) {
			calls.Add(1)
			n := inflight.Add(1)
			defer inflight.Add(-1)
			for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
			}
			if n == 2 {
				once.Do(func() { close(overlap) })
			}
			// Hold the first task until a second one runs beside it.
			select {
			case <-overlap:
			case <-time.After(5 * time.Second):
			}
			return runResult{Current: map[int]float64{1: 1, 2: 1}}, nil
		})
	js := []*Job{submit(t, e), submit(t, e), submit(t, e)}
	for _, j := range js {
		waitState(t, e, j, StateDone)
		if st := e.Status(j); st.TasksDone != 6 || st.TasksTotal != 6 {
			t.Fatalf("job %s finished %d of %d tasks, want 6 of 6", st.ID, st.TasksDone, st.TasksTotal)
		}
	}
	if got := calls.Load(); got != 18 {
		t.Fatalf("runTask ran %d times, want 18 (3 jobs x 6 tasks)", got)
	}
	if got := peak.Load(); got != 2 {
		t.Fatalf("at most %d tasks ran at once, want 2 (the pool size)", got)
	}
}

// An engine with its own observer counts everything on it, with no
// global observer installed: the runner's checkpoint and session
// counters, and the solver's events, which match the events the task
// hooks saw (6 tasks of 800 warm-up + 4000 measured events).
func TestEngineCountsOnItsOwnObserver(t *testing.T) {
	if obs.Global() != nil {
		t.Fatal("a global observer is installed")
	}
	o := obs.New(obs.Config{})
	e := NewEngine(EngineConfig{Workers: 2, CheckpointDir: t.TempDir(), CheckpointEvery: 1, Obs: o})
	t.Cleanup(e.Close)
	j := submit(t, e)
	waitState(t, e, j, StateDone)
	c := o.Registry().Snapshot().Counters
	for _, name := range []string{"jobs.checkpoints_written", "jobs.session_builds", "jobs.session_reuses"} {
		if c[name] == 0 {
			t.Errorf("%s = 0 on the engine's observer", name)
		}
	}
	if builds, reuses := c["jobs.session_builds"], c["jobs.session_reuses"]; builds > 2 || builds+reuses != 6 {
		t.Errorf("session builds %d, reuses %d: want builds <= 2 and builds+reuses = 6", builds, reuses)
	}
	if ev, task := c["solver.events"], c["jobs.task_events_total"]; ev != 28800 || task != 28800 {
		t.Errorf("solver.events = %d, jobs.task_events_total = %d, want 28800 each", ev, task)
	}
}

// Submission validation rejects broken decks and a malformed deck never
// starts a job.
func TestEngineSubmitValidates(t *testing.T) {
	e := scriptedEngine(t, EngineConfig{Workers: 1},
		func(ctx context.Context, tk task, rc RunConfig) (runResult, error) {
			return runResult{Current: map[int]float64{}}, nil
		})
	bad := parseDeck(t, strings.Replace(testDeck, "record 1 2", "", 1))
	if _, err := e.Submit(bad); err == nil {
		t.Fatal("deck without record lines accepted")
	}
	if len(e.Jobs()) != 0 {
		t.Fatal("rejected submission left a job behind")
	}
}

// End-to-end on real simulations: several jobs in flight on a shared
// pool, with the engine's metrics and journal on, produce exactly what
// a direct, unobserved ExecuteDeck of the same deck does — the task
// telemetry is passive.
func TestEngineRealRunsMatchExecuteDeck(t *testing.T) {
	decks := []string{
		testDeck,
		strings.Replace(testDeck, "seed 11", "seed 21", 1),
		strings.Replace(testDeck, "seed 11", "seed 31", 1),
		strings.Replace(testDeck, "seed 11", "seed 41", 1),
	}
	o := obs.New(obs.Config{Trace: true, TraceCap: 1 << 12})
	e := NewEngine(EngineConfig{Workers: 4, CheckpointDir: t.TempDir(), CheckpointEvery: 1, Obs: o})
	t.Cleanup(e.Close)

	jobsList := make([]*Job, len(decks))
	for i, src := range decks {
		j, err := e.Submit(parseDeck(t, src))
		if err != nil {
			t.Fatal(err)
		}
		jobsList[i] = j
	}
	for i, j := range jobsList {
		waitState(t, e, j, StateDone)
		got, err := e.Result(j)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ExecuteDeck(context.Background(), parseDeck(t, decks[i]), Overrides{}, RunConfig{})
		if err != nil {
			t.Fatal(err)
		}
		samePoints(t, want, got, fmt.Sprintf("engine job %d", i))
	}
	if o.Registry().Snapshot().Counters["solver.events"] == 0 || o.Journal().Total() == 0 {
		t.Error("the engine's observer recorded nothing")
	}
}
