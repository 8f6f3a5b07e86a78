package jobs

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
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
// within the retry budget.
func TestEngineRetriesTransientFailures(t *testing.T) {
	var calls atomic.Int32
	e := scriptedEngine(t, EngineConfig{Workers: 2, MaxRetries: 2, RetryBackoff: time.Millisecond},
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

// Permanent (non-transient) failures must not be retried at all.
func TestEngineDoesNotRetryPermanentFailures(t *testing.T) {
	var calls atomic.Int32
	e := scriptedEngine(t, EngineConfig{Workers: 1, MaxRetries: 3, RetryBackoff: time.Millisecond},
		func(ctx context.Context, tk task, rc RunConfig) (runResult, error) {
			calls.Add(1)
			return runResult{}, errors.New("physics broke")
		})
	j := submit(t, e)
	waitState(t, e, j, StateFailed)
	// 6 tasks (3 points x 2 runs), one call each, no retries.
	if got := calls.Load(); got != 6 {
		t.Fatalf("permanent failures ran %d tasks, want 6 (no retries)", got)
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
// queued tasks never start, and the job lands in StateInterrupted.
func TestEngineShutdownDrains(t *testing.T) {
	started := make(chan struct{}, 16)
	e := scriptedEngine(t, EngineConfig{Workers: 1},
		func(ctx context.Context, tk task, rc RunConfig) (runResult, error) {
			started <- struct{}{}
			select {
			case <-rc.Stop:
				return runResult{}, ErrInterrupted
			case <-ctx.Done():
				return runResult{}, ctx.Err()
			}
		})
	j := submit(t, e)
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := e.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if st := e.Status(j); st.State != StateInterrupted {
		t.Fatalf("drained job is %s, want %s", st.State, StateInterrupted)
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

// Submission validation rejects broken decks and a malformed deck never
// reaches the queue.
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
// pool produce exactly what a direct ExecuteDeck of the same deck does.
func TestEngineRealRunsMatchExecuteDeck(t *testing.T) {
	decks := []string{
		testDeck,
		strings.Replace(testDeck, "seed 11", "seed 21", 1),
		strings.Replace(testDeck, "seed 11", "seed 31", 1),
		strings.Replace(testDeck, "seed 11", "seed 41", 1),
	}
	e := NewEngine(EngineConfig{Workers: 4, CheckpointDir: t.TempDir(), CheckpointEvery: 1})
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
}
