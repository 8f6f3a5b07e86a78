package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"
)

// readAll reads every retained event after after.
func readAll(l *eventLog, after uint64) (evs []jobEvent, first uint64) {
	buf := make([]jobEvent, l.keep)
	n, first, _ := l.read(after, buf)
	return buf[:n], first
}

// Events arrive in order, numbered from 1, and every subscriber sees
// all of them; one append wakes every waiting subscriber.
func TestEventLogOrderedToSeveralSubscribers(t *testing.T) {
	l := newEventLog(16)
	_, _, wake1 := l.read(0, nil)
	_, _, wake2 := l.read(0, nil)
	for i := 0; i < 5; i++ {
		l.append(jobEvent{kind: evProgress, n: uint64(i)})
	}
	for _, wake := range []<-chan struct{}{wake1, wake2} {
		select {
		case <-wake:
		default:
			t.Fatal("an append left a waiting subscriber asleep")
		}
	}
	for sub := 0; sub < 2; sub++ {
		evs, first := readAll(l, 0)
		if first != 1 || len(evs) != 5 {
			t.Fatalf("subscriber %d read %d events from %d, want 5 from 1", sub, len(evs), first)
		}
		for i, ev := range evs {
			if ev.n != uint64(i) {
				t.Fatalf("subscriber %d: event %d carries %d", sub, i+1, ev.n)
			}
		}
	}
}

// A subscriber resuming after a sequence number gets exactly the
// retained events after it, then the live ones.
func TestEventLogReplayAfter(t *testing.T) {
	l := newEventLog(4)
	for i := 1; i <= 10; i++ {
		l.append(jobEvent{kind: evProgress, n: uint64(i)})
	}
	if len(l.ring) != 4 || cap(l.ring) != 4 {
		t.Fatalf("log of 4 holds len %d cap %d", len(l.ring), cap(l.ring))
	}
	evs, first := readAll(l, 8)
	if first != 9 || len(evs) != 2 || evs[0].n != 9 || evs[1].n != 10 {
		t.Fatalf("replay after 8 = %+v from %d, want events 9, 10", evs, first)
	}
	l.append(jobEvent{kind: evProgress, n: 11})
	evs, first = readAll(l, 10)
	if first != 11 || len(evs) != 1 || evs[0].n != 11 {
		t.Fatalf("live event after replay = %+v from %d, want event 11", evs, first)
	}
	if evs, _ := readAll(l, 11); len(evs) != 0 {
		t.Fatalf("read past the newest event returned %+v", evs)
	}
}

// A subscriber that falls further behind than the log keeps learns the
// exact number of events it missed, then reads the newest ones.
func TestEventLogGapCount(t *testing.T) {
	l := newEventLog(4)
	for i := 1; i <= 3; i++ {
		l.append(jobEvent{kind: evProgress, n: uint64(i)})
	}
	evs, _ := readAll(l, 0)
	next := uint64(len(evs)) // the subscriber has events 1..3
	for i := 4; i <= 20; i++ {
		l.append(jobEvent{kind: evProgress, n: uint64(i)})
	}
	evs, first := readAll(l, next)
	if missed := first - next - 1; missed != 13 {
		t.Fatalf("subscriber at 3 missed %d events, want 13 (4..16)", missed)
	}
	if len(evs) != 4 || evs[0].n != 17 || evs[3].n != 20 {
		t.Fatalf("after the gap the subscriber read %+v, want events 17..20", evs)
	}
}

// A subscriber unsubscribes by no longer reading: the log keeps nothing
// for it. Its wake channel closes once, later appends find no channel
// to close, and the log keeps wrapping without waiting.
func TestEventLogUnsubscribeLeavesNothing(t *testing.T) {
	l := newEventLog(8)
	_, _, wake := l.read(0, nil)
	for i := 0; i < 30; i++ {
		l.append(jobEvent{kind: evProgress})
	}
	select {
	case <-wake:
	default:
		t.Fatal("the departed subscriber was never woken")
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.wake != nil {
		t.Fatal("the log holds a wake channel with no subscriber waiting")
	}
	if l.last != 30 || len(l.ring) != 8 {
		t.Fatalf("log at event %d holds %d, want 30 and 8", l.last, len(l.ring))
	}
}

// Appends from several workers and reads from several subscribers run
// concurrently (run under -race): every subscriber sees every event
// once, in numbered order, and each worker's events in its own order.
func TestEventLogConcurrentAppendRead(t *testing.T) {
	const workers, per = 2, 500
	l := newEventLog(workers * per)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				l.append(jobEvent{kind: evTaskDone, worker: int16(w), n: uint64(i)})
			}
		}()
	}
	errs := make(chan error, 2)
	for r := 0; r < 2; r++ {
		go func() {
			buf := make([]jobEvent, 16)
			var next uint64
			seen := make([]uint64, workers)
			for next < workers*per {
				n, first, wake := l.read(next, buf)
				if n == 0 {
					<-wake
					continue
				}
				if first != next+1 {
					errs <- errors.New("subscriber skipped events with ample retention")
					return
				}
				for _, ev := range buf[:n] {
					if ev.n != seen[ev.worker] {
						errs <- errors.New("a worker's events arrived out of order")
						return
					}
					seen[ev.worker]++
				}
				next += uint64(n)
			}
			errs <- nil
		}()
	}
	wg.Wait()
	for r := 0; r < 2; r++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// Each SSE event renders byte for byte as the format the daemon has
// always streamed (the strings below are that format's output for the
// same values), and a dropped record carries the subscriber's gap.
func TestSSEPayloadsKeepTheirFormat(t *testing.T) {
	e := &Engine{}
	j := &Job{id: "j000007", err: errors.New("point 0 (v=-0.02) run 0: physics broke")}
	done := &Job{id: "j000007"}
	for i, c := range []struct {
		j    *Job
		ev   jobEvent
		want string
	}{
		{j, jobEvent{kind: evState, code: stateCode(StateQueued), total: 6},
			"id: 1\nevent: state\ndata: {\"job\":\"j000007\",\"state\":\"queued\",\"tasks_total\":6}\n\n"},
		{j, jobEvent{kind: evState, code: stateCode(StateRunning), wall: 5000},
			"id: 2\nevent: state\ndata: {\"job\":\"j000007\",\"state\":\"running\"}\n\n"},
		{j, jobEvent{kind: evRefine, a: 1, n: 5, total: 16},
			"id: 3\nevent: refine\ndata: {\"job\":\"j000007\",\"level\":1,\"new_points\":5,\"tasks_total\":16}\n\n"},
		{j, jobEvent{kind: evRetry, point: 2, a: 2, ns: int64(500 * time.Millisecond), n: 7},
			"id: 4\nevent: retry\ndata: {\"job\":\"j000007\",\"point\":2,\"run\":0,\"attempt\":2,\"delay_sec\":0.5,\"error_class\":\"checkpoint-io\"}\n\n"},
		{j, jobEvent{kind: evTaskDone, point: 3, run: 1, code: outcomeDone, n: 12000, done: 4, total: 6, a: 1},
			"id: 5\nevent: task_done\ndata: {\"job\":\"j000007\",\"point\":3,\"run\":1,\"outcome\":\"done\",\"events\":12000,\"done\":4,\"total\":6}\n\n"},
		{j, jobEvent{kind: evResume, point: 1, run: 1, n: 800},
			"id: 6\nevent: resume\ndata: {\"job\":\"j000007\",\"point\":1,\"run\":1,\"events_at_resume\":800}\n\n"},
		{j, jobEvent{kind: evCheckpoint, point: 3, run: 1, n: 2048, ns: 1200, dur: 5300},
			"id: 7\nevent: checkpoint\ndata: {\"job\":\"j000007\",\"point\":3,\"run\":1,\"bytes\":2048,\"fsync_ns\":1200,\"write_ns\":5300}\n\n"},
		{j, jobEvent{kind: evProgress, wall: int64(2500 * time.Millisecond), n: 48001, done: 4, total: 6},
			"id: 8\nevent: progress\ndata: {\"job\":\"j000007\",\"done\":4,\"total\":6,\"events\":48001,\"events_per_sec\":19200.4,\"eta_sec\":1.2}\n\n"},
		{j, jobEvent{kind: evProgress, total: 6},
			"id: 9\nevent: progress\ndata: {\"job\":\"j000007\",\"done\":0,\"total\":6,\"events\":0,\"events_per_sec\":0.0,\"eta_sec\":-1.0}\n\n"},
		{j, jobEvent{kind: evState, code: stateCode(StateFailed), done: 6, total: 6, ns: -1},
			"id: 10\nevent: state\ndata: {\"job\":\"j000007\",\"state\":\"failed\",\"done\":6,\"total\":6,\"error\":\"point 0 (v=-0.02) run 0: physics broke\"}\n\n"},
		{done, jobEvent{kind: evState, code: stateCode(StateDone), done: 6, total: 6, ns: 5000},
			"id: 11\nevent: state\ndata: {\"job\":\"j000007\",\"state\":\"done\",\"done\":6,\"total\":6,\"error\":\"\"}\n\n"},
	} {
		var got bytes.Buffer
		if err := e.writeSSE(&got, c.j, uint64(i+1), &c.ev); err != nil {
			t.Fatal(err)
		}
		if got.String() != c.want {
			t.Errorf("event %s renders\n%q\nwant\n%q", eventNames[c.ev.kind], got.String(), c.want)
		}
	}
	var got bytes.Buffer
	if err := writeSSEDropped(&got, "j000007", 17); err != nil {
		t.Fatal(err)
	}
	if want := "event: dropped\ndata: {\"job\":\"j000007\",\"dropped\":17}\n\n"; got.String() != want {
		t.Errorf("dropped record renders %q, want %q", got.String(), want)
	}
}

// traceEvent is one record of a job's Chrome trace.
type traceEvent struct {
	Ph   string         `json:"ph"`
	Tid  int            `json:"tid"`
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Dur  float64        `json:"dur"`
	Args map[string]any `json:"args"`
}

// jobTrace renders j's trace and parses it.
func jobTrace(t *testing.T, e *Engine, j *Job) []traceEvent {
	t.Helper()
	evs, dropped := j.log.snapshot()
	var buf bytes.Buffer
	if err := writeTrace(&buf, e.cfg.Workers, evs, dropped); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, buf.String())
	}
	return doc.TraceEvents
}

// The trace draws one task span per attempt (a retried task shows
// two), a checkpoint span with its bytes per write, the job's queued
// and running spans and the retry instant, on the lanes named job and
// worker 0..N-1; once the log wraps, a note says how many events it
// dropped.
func TestJobTraceSpansAttemptsCheckpointsAndDrops(t *testing.T) {
	var calls atomic.Int32
	e := scriptedEngine(t, EngineConfig{Workers: 2, MaxRetries: 2},
		func(ctx context.Context, tk task, rc RunConfig) (runResult, error) {
			rc.hooks.checkpoint(ckptStats{bytes: 4096, fsyncNS: 700, totalNS: 2000})
			if tk.point == 0 && tk.run == 0 && calls.Add(1) == 1 {
				return runResult{Events: 5}, &transientError{errors.New("disk hiccup")}
			}
			return runResult{Events: 100, Current: map[int]float64{1: 1, 2: 1}}, nil
		})
	j := submit(t, e)
	waitState(t, e, j, StateDone)

	lanes := map[string]int{}
	var tasks, retried, failed, ckpts, retries, drops int
	spans := map[string]int{}
	for _, ev := range jobTrace(t, e, j) {
		switch {
		case ev.Name == "thread_name":
			lanes[ev.Args["name"].(string)] = ev.Tid
		case ev.Ph == "X" && ev.Cat == "task":
			tasks++
			if ev.Name == "task p0 r0" {
				retried++
				if ev.Args["outcome"] == "failed" {
					failed++
				}
			}
		case ev.Ph == "X" && ev.Cat == "checkpoint":
			ckpts++
			if ev.Args["bytes"] != 4096.0 || ev.Tid < 2 {
				t.Errorf("checkpoint span %+v: want bytes 4096 on a worker lane", ev)
			}
		case ev.Ph == "X" && ev.Cat == "span":
			spans[ev.Name]++
			if ev.Tid != 1 {
				t.Errorf("span %q on lane %d, want the job lane", ev.Name, ev.Tid)
			}
		case ev.Cat == "retry":
			retries++
		case ev.Name == "events_dropped":
			drops++
		}
	}
	for i, name := range []string{"job", "worker 0", "worker 1"} {
		if lanes[name] != i+1 {
			t.Errorf("lane %q has tid %d, want %d (lanes %v)", name, lanes[name], i+1, lanes)
		}
	}
	// 6 tasks, one of them attempted twice; every attempt checkpointed.
	if tasks != 7 || retried != 2 || failed != 1 || ckpts != 7 || retries != 1 {
		t.Errorf("trace has %d task spans (%d for p0 r0, %d failed), %d checkpoint spans, %d retries; want 7 (2, 1), 7, 1",
			tasks, retried, failed, ckpts, retries)
	}
	if spans["queued"] != 1 || spans["running"] != 1 {
		t.Errorf("job lane spans %v, want one queued and one running", spans)
	}
	if drops != 0 {
		t.Error("a log that kept every event notes drops")
	}

	// A log of 4 events wraps, and the trace says by how much.
	e.logKeep = 4
	j2 := submit(t, e)
	waitState(t, e, j2, StateDone)
	j2.log.mu.Lock()
	want := float64(j2.log.last - 4)
	j2.log.mu.Unlock()
	note := 0
	for _, ev := range jobTrace(t, e, j2) {
		if ev.Name == "events_dropped" {
			note++
			if ev.Args["dropped_events"] != want {
				t.Errorf("drop note says %v events, want %v", ev.Args["dropped_events"], want)
			}
		}
	}
	if note != 1 {
		t.Errorf("wrapped log's trace carries %d drop notes, want 1", note)
	}
}

// The trace loads in chrome://tracing: valid JSON, one thread_name
// record per lane, each span on its lane, the args of every kind, and
// the same bytes for the same events.
func TestJobTraceWellFormed(t *testing.T) {
	evs := []jobEvent{
		{kind: evState, code: stateCode(StateQueued), total: 2},
		{kind: evState, code: stateCode(StateRunning), wall: 100},
		{kind: evResume, point: 0, run: 0, n: 500, wall: 150},
		{kind: evRetry, worker: 1, point: 1, run: 0, a: 1, wall: 2100, dur: 3000, n: 900, ns: int64(50 * time.Millisecond)},
		{kind: evCheckpoint, point: 0, run: 0, wall: 3000, dur: 2000, n: 2048, ns: 1200},
		{kind: evTaskDone, point: 0, run: 0, code: outcomeDone, a: 1, wall: 150, dur: 4000, n: 1500, done: 1, total: 2},
		{kind: evProgress, wall: 5000, n: 125000, done: 1, total: 2},
		{kind: evTaskDone, worker: 1, point: 1, run: 0, code: outcomeDone, a: 2, wall: 5200, dur: 3000, n: 1400, done: 2, total: 2},
		{kind: evState, code: stateCode(StateDone), wall: 9000, ns: 100, done: 2, total: 2},
	}
	var buf bytes.Buffer
	if err := writeTrace(&buf, 2, evs, 0); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, buf.String())
	}

	lanes := map[string]int{}
	spans := map[string]int{} // "name@tid" -> count
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			lanes[ev.Args["name"].(string)] = ev.Tid
		case "X":
			spans[fmt.Sprintf("%s@%d", ev.Name, ev.Tid)]++
		}
	}
	if len(lanes) != 3 {
		t.Fatalf("thread_name records %v, want 3", lanes)
	}
	for name, tid := range map[string]int{"job": 1, "worker 0": 2, "worker 1": 3} {
		if lanes[name] != tid {
			t.Errorf("lane %q has tid %d, want %d (lanes %v)", name, lanes[name], tid, lanes)
		}
	}
	// queued and running on the job lane; task and checkpoint on worker
	// 0; the failed and the finished attempt of p1 r0 on worker 1.
	want := map[string]int{"queued@1": 1, "running@1": 1, "task p0 r0@2": 1, "checkpoint p0 r0@2": 1, "task p1 r0@3": 2}
	if fmt.Sprint(spans) != fmt.Sprint(want) {
		t.Errorf("X spans %v, want %v", spans, want)
	}
	for _, s := range []string{
		`"state":"queued"`, `"state":"done"`,
		`"outcome":"done"`, `"outcome":"failed"`,
		`"error_class":"checkpoint-io"`,
		`"events_at_resume":500`,
		`"bytes":2048`,
		`"name":"tasks_done"`,
	} {
		if !strings.Contains(buf.String(), s) {
			t.Errorf("trace missing %s:\n%s", s, buf.String())
		}
	}
	if strings.Contains(buf.String(), "events_dropped") {
		t.Error("a trace of a log that dropped nothing carries a drop note")
	}

	var buf2 bytes.Buffer
	if err := writeTrace(&buf2, 2, evs, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("the trace is not deterministic")
	}
}

// A log that overwrote events gives its trace one events_dropped note
// with the count; a worker with no retained events, and a job with no
// events at all, still render as named, empty lanes.
func TestJobTraceDroppedNoteAndIdleLanes(t *testing.T) {
	l := newEventLog(2)
	for i := 0; i < 5; i++ {
		l.append(jobEvent{kind: evCheckpoint, point: int32(i), wall: int64(i), n: 64})
	}
	evs, dropped := l.snapshot()
	if len(evs) != 2 || dropped != 3 {
		t.Fatalf("snapshot kept %d events and dropped %d, want 2 and 3", len(evs), dropped)
	}
	var buf bytes.Buffer
	if err := writeTrace(&buf, 2, evs, dropped); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("invalid JSON:\n%s", buf.String())
	}
	if n := strings.Count(buf.String(), `"name":"events_dropped"`); n != 1 {
		t.Fatalf("%d drop notes, want 1:\n%s", n, buf.String())
	}
	if !strings.Contains(buf.String(), `"dropped_events":3`) {
		t.Fatalf("drop note does not say 3 events:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), `"args":{"name":"worker 1"}`) {
		t.Fatalf("idle worker lane missing:\n%s", buf.String())
	}
	if strings.Contains(buf.String(), `"tid":3,"name":"checkpoint`) {
		t.Fatalf("worker 0's checkpoints drawn on the idle lane:\n%s", buf.String())
	}

	buf.Reset()
	if err := writeTrace(&buf, 1, nil, 0); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("invalid JSON for a job with no events:\n%s", buf.String())
	}
	if n := strings.Count(buf.String(), `"name":"thread_name"`); n != 2 {
		t.Fatalf("a job with no events renders %d lanes, want 2:\n%s", n, buf.String())
	}
}

// A new job's telemetry storage does not scale with the worker count:
// its event log grows as events arrive, so a Submit allocates the same
// at 1 and at 8 workers. A full log costs 56 bytes an event.
func TestSubmitTelemetryIndependentOfWorkers(t *testing.T) {
	if size := unsafe.Sizeof(jobEvent{}); size != 56 {
		t.Fatalf("a job event takes %d bytes, want 56", size)
	}
	submitBytes := func(workers int) uint64 {
		block := make(chan struct{})
		e := scriptedEngine(t, EngineConfig{Workers: workers},
			func(ctx context.Context, tk task, rc RunConfig) (runResult, error) {
				select {
				case <-block:
				case <-ctx.Done():
				}
				return runResult{Current: map[int]float64{1: 0, 2: 0}}, nil
			})
		defer close(block)
		d := parseDeck(t, testDeck)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if _, err := e.Submit(d); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	one, eight := submitBytes(1), submitBytes(8)
	if eight > one+64<<10 {
		t.Fatalf("Submit allocates %d B at 8 workers and %d B at 1: job telemetry grows with Workers", eight, one)
	}
}
