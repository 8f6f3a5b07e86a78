package jobs

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"semsim/internal/obs"
)

// sseEvent is one parsed Server-Sent Events frame.
type sseEvent struct {
	id   uint64
	typ  string
	data string
}

// openSSE starts a GET on the job's event stream and returns the
// response body (caller closes). lastID, when non-empty, is sent as the
// standard Last-Event-ID header.
func openSSE(t *testing.T, ctx context.Context, url, lastID string) io.ReadCloser {
	t.Helper()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lastID != "" {
		req.Header.Set("Last-Event-ID", lastID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		t.Fatalf("event stream: HTTP %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		resp.Body.Close()
		t.Fatalf("event stream Content-Type %q", ct)
	}
	return resp.Body
}

// scanSSE parses frames from r, calling each per frame, until EOF or
// each returns false. It returns the scanner error (nil on EOF).
func scanSSE(r io.Reader, each func(ev sseEvent) bool) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var ev sseEvent
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if ev.typ != "" || ev.data != "" {
				if !each(ev) {
					return nil
				}
			}
			ev = sseEvent{}
		case strings.HasPrefix(line, "id:"):
			ev.id, _ = strconv.ParseUint(strings.TrimSpace(line[len("id:"):]), 10, 64)
		case strings.HasPrefix(line, "event:"):
			ev.typ = strings.TrimSpace(line[len("event:"):])
		case strings.HasPrefix(line, "data:"):
			ev.data = strings.TrimSpace(line[len("data:"):])
		}
	}
	return sc.Err()
}

// collectSSE reads the stream to its end and returns every frame.
func collectSSE(t *testing.T, r io.Reader) []sseEvent {
	t.Helper()
	var out []sseEvent
	if err := scanSSE(r, func(ev sseEvent) bool { out = append(out, ev); return true }); err != nil {
		t.Fatalf("reading event stream: %v", err)
	}
	return out
}

// stateOf decodes the "state" field of an event payload.
func stateOf(t *testing.T, ev sseEvent) string {
	t.Helper()
	var f struct {
		State string `json:"state"`
	}
	if err := json.Unmarshal([]byte(ev.data), &f); err != nil {
		t.Fatalf("event %q payload %q: %v", ev.typ, ev.data, err)
	}
	return f.State
}

// A full lifecycle over a real simulation: the stream replays the
// queued state, carries every task completion and checkpoint, ends with
// the terminal state, and sequence ids are strictly increasing.
func TestSSELifecycleToCompletion(t *testing.T) {
	e := NewEngine(EngineConfig{Workers: 2, CheckpointDir: t.TempDir(), CheckpointEvery: 1})
	t.Cleanup(e.Close)
	srv := httptest.NewServer(NewHandler(e, nil))
	t.Cleanup(srv.Close)

	j, err := e.Submit(parseDeck(t, testDeck))
	if err != nil {
		t.Fatal(err)
	}
	body := openSSE(t, context.Background(), srv.URL+"/api/v1/jobs/"+j.ID()+"/events", "")
	defer body.Close()
	events := collectSSE(t, body)
	if len(events) == 0 {
		t.Fatal("stream delivered no events")
	}

	var lastID uint64
	states := map[string]bool{}
	tasksDone := 0
	for _, ev := range events {
		if ev.typ != "dropped" { // gap records carry no sequence id
			if ev.id <= lastID {
				t.Fatalf("event ids not strictly increasing: %d after %d (%+v)", ev.id, lastID, ev)
			}
			lastID = ev.id
		}
		if ev.typ == "state" {
			states[stateOf(t, ev)] = true
		}
		if ev.typ == "task_done" {
			tasksDone++
		}
	}
	last := events[len(events)-1]
	if last.typ != "state" || stateOf(t, last) != string(StateDone) {
		t.Fatalf("stream ended with %q %q, want terminal state done", last.typ, last.data)
	}
	for _, want := range []string{string(StateQueued), string(StateRunning), string(StateDone)} {
		if !states[want] {
			t.Fatalf("stream never announced state %q (saw %v)", want, states)
		}
	}
	if tasksDone != 6 {
		t.Fatalf("stream carried %d task_done events, want 6 (3 points x 2 runs)", tasksDone)
	}
	waitState(t, e, j, StateDone)
}

// A client that disconnects mid-stream must not disturb the engine: the
// handler returns (srv.Close in cleanup would hang forever on a leaked
// handler) and the job still runs to completion.
func TestSSEClientDisconnectMidStream(t *testing.T) {
	block := make(chan struct{})
	e := scriptedEngine(t, EngineConfig{Workers: 1},
		func(ctx context.Context, tk task, rc RunConfig) (runResult, error) {
			select {
			case <-block:
			case <-ctx.Done():
			}
			return runResult{Current: map[int]float64{1: 0, 2: 0}}, nil
		})
	srv := httptest.NewServer(NewHandler(e, nil))
	t.Cleanup(srv.Close)

	j := submit(t, e)
	ctx, cancel := context.WithCancel(context.Background())
	body := openSSE(t, ctx, srv.URL+"/api/v1/jobs/"+j.ID()+"/events", "")
	defer body.Close()

	// Read one frame (the replayed queued state), then hang up.
	got := false
	_ = scanSSE(body, func(ev sseEvent) bool { got = true; return false })
	if !got {
		t.Fatal("no event arrived before the disconnect")
	}
	cancel()

	// The engine never noticed: tasks unblock and the job completes.
	close(block)
	waitState(t, e, j, StateDone)
}

// Last-Event-ID reconnection replays exactly the retained events after
// the given sequence number — no duplicates, no holes — and still ends
// with the terminal state.
func TestSSELastEventIDReplay(t *testing.T) {
	e := scriptedEngine(t, EngineConfig{Workers: 2},
		func(ctx context.Context, tk task, rc RunConfig) (runResult, error) {
			return runResult{Current: map[int]float64{1: 1, 2: 1}}, nil
		})
	srv := httptest.NewServer(NewHandler(e, nil))
	t.Cleanup(srv.Close)

	j := submit(t, e)
	waitState(t, e, j, StateDone)
	url := srv.URL + "/api/v1/jobs/" + j.ID() + "/events"

	body := openSSE(t, context.Background(), url, "")
	full := collectSSE(t, body)
	body.Close()
	if len(full) < 4 {
		t.Fatalf("completed job replayed only %d events", len(full))
	}

	// Reconnect from the midpoint, as a real client would after losing
	// its connection: the tail must match the full stream exactly.
	mid := full[len(full)/2]
	body = openSSE(t, context.Background(), url, strconv.FormatUint(mid.id, 10))
	tail := collectSSE(t, body)
	body.Close()
	want := full[len(full)/2+1:]
	if len(tail) != len(want) {
		t.Fatalf("replay after id %d returned %d events, want %d", mid.id, len(tail), len(want))
	}
	for i := range want {
		if tail[i] != want[i] {
			t.Fatalf("replayed event %d differs:\n got %+v\nwant %+v", i, tail[i], want[i])
		}
	}
	if last := tail[len(tail)-1]; last.typ != "state" || stateOf(t, last) != string(StateDone) {
		t.Fatalf("replayed stream ended with %+v, want terminal state", last)
	}

	// The ?after=N query form behaves identically (for clients that
	// cannot set headers).
	resp, err := http.Get(url + "?after=" + strconv.FormatUint(mid.id, 10))
	if err != nil {
		t.Fatal(err)
	}
	qtail := collectSSE(t, resp.Body)
	resp.Body.Close()
	if len(qtail) != len(want) {
		t.Fatalf("?after replay returned %d events, want %d", len(qtail), len(want))
	}
}

// A subscriber ring smaller than the retained history forces drops, and
// the stream accounts for them: an `event: dropped` record reports the
// gap before the surviving (newest) events, which still end terminal.
func TestSSESlowSubscriberDropAccounting(t *testing.T) {
	e := scriptedEngine(t, EngineConfig{Workers: 1},
		func(ctx context.Context, tk task, rc RunConfig) (runResult, error) {
			return runResult{Current: map[int]float64{1: 1, 2: 1}}, nil
		})
	// Tiny per-subscriber rings (the engine default is 256) so replaying
	// the job's history overflows them. Set before Submit: the workers
	// observe the field through the queue's happens-before edge.
	e.bus = obs.NewBus(1024, 2)
	srv := httptest.NewServer(NewHandler(e, nil))
	t.Cleanup(srv.Close)

	j := submit(t, e)
	waitState(t, e, j, StateDone)
	published := e.bus.Last(j.ID())
	if published <= 2 {
		t.Fatalf("job published only %d events", published)
	}

	body := openSSE(t, context.Background(), srv.URL+"/api/v1/jobs/"+j.ID()+"/events", "")
	events := collectSSE(t, body)
	body.Close()

	if len(events) != 3 { // one gap record + the two ring survivors
		t.Fatalf("slow subscriber got %d events, want 3: %+v", len(events), events)
	}
	if events[0].typ != "dropped" {
		t.Fatalf("gap record not first: %+v", events[0])
	}
	var gap struct {
		Dropped uint64 `json:"dropped"`
	}
	if err := json.Unmarshal([]byte(events[0].data), &gap); err != nil {
		t.Fatal(err)
	}
	if gap.Dropped != published-2 {
		t.Fatalf("gap record reports %d dropped, want %d", gap.Dropped, published-2)
	}
	if events[1].id != published-1 || events[2].id != published {
		t.Fatalf("survivors are %d,%d, want the newest %d,%d", events[1].id, events[2].id, published-1, published)
	}
	if last := events[2]; last.typ != "state" || stateOf(t, last) != string(StateDone) {
		t.Fatalf("stream ended with %+v, want terminal state", last)
	}
}

// Stream correctness across an engine restart: draining the first
// engine ends the stream with the interrupted terminal state, and the
// resubmission's stream on a fresh engine over the same checkpoint
// directory announces the resumed tasks before finishing.
func TestSSEStreamAcrossEngineRestartResume(t *testing.T) {
	dir := t.TempDir()
	e1 := NewEngine(EngineConfig{Workers: 2, CheckpointDir: dir, CheckpointEvery: 1})
	srv1 := httptest.NewServer(NewHandler(e1, nil))
	t.Cleanup(srv1.Close)

	j1, err := e1.Submit(parseDeck(t, testDeck))
	if err != nil {
		t.Fatal(err)
	}
	body := openSSE(t, context.Background(), srv1.URL+"/api/v1/jobs/"+j1.ID()+"/events", "")

	// Drain immediately: in-flight tasks checkpoint and stop, and the
	// stream must deliver the terminal state before ending.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := e1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	events := collectSSE(t, body)
	body.Close()
	if len(events) == 0 {
		t.Fatal("drained stream delivered no events")
	}
	last := events[len(events)-1]
	if last.typ != "state" {
		t.Fatalf("drained stream ended with %q, want a state event", last.typ)
	}
	switch stateOf(t, last) {
	case string(StateDone):
		t.Skip("job finished before the drain; nothing to resume")
	case string(StateInterrupted):
	default:
		t.Fatalf("drained stream ended in state %q", stateOf(t, last))
	}

	e2 := NewEngine(EngineConfig{Workers: 2, CheckpointDir: dir, CheckpointEvery: 1})
	t.Cleanup(e2.Close)
	srv2 := httptest.NewServer(NewHandler(e2, nil))
	t.Cleanup(srv2.Close)
	j2, err := e2.Submit(parseDeck(t, testDeck))
	if err != nil {
		t.Fatal(err)
	}
	body = openSSE(t, context.Background(), srv2.URL+"/api/v1/jobs/"+j2.ID()+"/events", "")
	events = collectSSE(t, body)
	body.Close()

	resumes := 0
	for _, ev := range events {
		if ev.typ == "resume" {
			resumes++
		}
	}
	if resumes == 0 {
		t.Fatal("resubmitted job's stream announced no resumed tasks")
	}
	if last := events[len(events)-1]; last.typ != "state" || stateOf(t, last) != string(StateDone) {
		t.Fatalf("resumed stream ended with %+v, want terminal done", last)
	}
	waitState(t, e2, j2, StateDone)
}

// The semsim -follow client renders the stream and exits on the
// terminal state.
func TestFollowClientRendersStream(t *testing.T) {
	e := NewEngine(EngineConfig{Workers: 2, CheckpointDir: t.TempDir(), CheckpointEvery: 1})
	t.Cleanup(e.Close)
	srv := httptest.NewServer(NewHandler(e, nil))
	t.Cleanup(srv.Close)

	j, err := e.Submit(parseDeck(t, testDeck))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := Follow(ctx, srv.URL+"/api/v1/jobs/"+j.ID(), &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, fmt.Sprintf("%s: done", j.ID())) {
		t.Fatalf("follow output missing terminal line:\n%s", out)
	}
	if !strings.Contains(out, "task p") {
		t.Fatalf("follow output missing task lines:\n%s", out)
	}
}

// The merged trace endpoint serves valid Chrome trace JSON with one
// lane per worker plus the job lane.
func TestHTTPMergedTrace(t *testing.T) {
	e := NewEngine(EngineConfig{Workers: 2, CheckpointDir: t.TempDir(), CheckpointEvery: 1})
	t.Cleanup(e.Close)
	srv := httptest.NewServer(NewHandler(e, nil))
	t.Cleanup(srv.Close)

	j, err := e.Submit(parseDeck(t, testDeck))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, e, j, StateDone)

	for _, path := range []string{"/api/v1/jobs/" + j.ID() + "/trace", "/jobs/" + j.ID() + "/trace"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		blob, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: HTTP %d", path, resp.StatusCode)
		}
		var doc struct {
			TraceEvents []map[string]any `json:"traceEvents"`
		}
		if err := json.Unmarshal(blob, &doc); err != nil {
			t.Fatalf("%s: trace is not valid JSON: %v", path, err)
		}
		names := map[string]bool{}
		spans := 0
		for _, ev := range doc.TraceEvents {
			if ev["name"] == "thread_name" {
				args := ev["args"].(map[string]any)
				names[args["name"].(string)] = true
			}
			if ev["ph"] == "X" {
				spans++
			}
		}
		for _, lane := range []string{"job", "worker 0", "worker 1"} {
			if !names[lane] {
				t.Fatalf("%s: trace missing lane %q (have %v)", path, lane, names)
			}
		}
		// 6 task spans at minimum (plus queued/running/checkpoint spans).
		if spans < 6 {
			t.Fatalf("%s: trace has %d complete spans, want >= 6", path, spans)
		}
	}
}
