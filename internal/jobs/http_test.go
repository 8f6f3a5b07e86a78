package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"semsim/internal/obs"
)

func startServer(t *testing.T, cfg EngineConfig, o *obs.Observer) (*Engine, *httptest.Server) {
	t.Helper()
	e := NewEngine(cfg)
	t.Cleanup(e.Close)
	srv := httptest.NewServer(NewHandler(e, o))
	t.Cleanup(srv.Close)
	return e, srv
}

func doJSON(t *testing.T, method, url string, body, out any) int {
	t.Helper()
	var rd io.Reader
	if body != nil {
		blob, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(blob)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: bad JSON response: %v", method, url, err)
		}
	}
	return resp.StatusCode
}

// TestHTTPSubmitPollResult drives the full semsimd API flow with four
// concurrent sweep jobs — the acceptance bar for the daemon — and
// checks every result against a direct in-process execution.
func TestHTTPSubmitPollResult(t *testing.T) {
	_, srv := startServer(t, EngineConfig{Workers: 4, CheckpointDir: t.TempDir()}, nil)

	decks := []string{
		testDeck,
		strings.Replace(testDeck, "seed 11", "seed 21", 1),
		strings.Replace(testDeck, "seed 11", "seed 31", 1),
		strings.Replace(testDeck, "seed 11", "seed 41", 1),
	}
	ids := make([]string, len(decks))
	for i, d := range decks {
		var sub SubmitResponse
		code := doJSON(t, "POST", srv.URL+"/api/v1/jobs", SubmitRequest{Deck: d}, &sub)
		if code != http.StatusAccepted {
			t.Fatalf("submit %d: status %d", i, code)
		}
		if sub.Points != 3 || sub.RunsPerPoint != 2 {
			t.Fatalf("submit %d expanded to %d points x %d runs, want 3 x 2", i, sub.Points, sub.RunsPerPoint)
		}
		ids[i] = sub.ID
	}

	// Poll each job to completion.
	deadline := time.Now().Add(30 * time.Second)
	for i, id := range ids {
		for {
			var st JobStatus
			if code := doJSON(t, "GET", srv.URL+"/api/v1/jobs/"+id, nil, &st); code != http.StatusOK {
				t.Fatalf("status %s: HTTP %d", id, code)
			}
			if st.State == StateDone {
				break
			}
			if st.State == StateFailed || st.State == StateCanceled {
				t.Fatalf("job %s ended %s: %s", id, st.State, st.Error)
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %s still %s (%d/%d tasks)", id, st.State, st.TasksDone, st.TasksTotal)
			}
			time.Sleep(5 * time.Millisecond)
		}

		var res ResultResponse
		if code := doJSON(t, "GET", srv.URL+"/api/v1/jobs/"+id+"/result", nil, &res); code != http.StatusOK {
			t.Fatalf("result %s: HTTP %d", id, code)
		}
		want, err := ExecuteDeck(context.Background(), parseDeck(t, decks[i]), Overrides{}, RunConfig{})
		if err != nil {
			t.Fatal(err)
		}
		samePoints(t, want, res.Points, fmt.Sprintf("http job %s", id))
	}

	// The list endpoint sees all four, done.
	var all []JobStatus
	if code := doJSON(t, "GET", srv.URL+"/api/v1/jobs", nil, &all); code != http.StatusOK {
		t.Fatalf("list: HTTP %d", code)
	}
	if len(all) != len(ids) {
		t.Fatalf("list has %d jobs, want %d", len(all), len(ids))
	}
	for _, st := range all {
		if st.State != StateDone {
			t.Fatalf("listed job %s is %s", st.ID, st.State)
		}
	}
}

// Error paths: malformed bodies, unparseable decks, unknown ids, and a
// result requested before the job is done.
func TestHTTPErrorPaths(t *testing.T) {
	block := make(chan struct{})
	e := newEngine(EngineConfig{Workers: 1},
		func(ctx context.Context, tk task, rc RunConfig) (runResult, error) {
			select {
			case <-block:
			case <-ctx.Done():
			}
			return runResult{Current: map[int]float64{1: 0, 2: 0}}, nil
		})
	t.Cleanup(e.Close)
	srv := httptest.NewServer(NewHandler(e, nil))
	t.Cleanup(srv.Close)
	defer close(block)

	if code := doJSON(t, "GET", srv.URL+"/healthz", nil, nil); code != http.StatusOK {
		t.Fatalf("healthz: HTTP %d", code)
	}

	resp, err := http.Post(srv.URL+"/api/v1/jobs", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body: HTTP %d, want 400", resp.StatusCode)
	}

	if code := doJSON(t, "POST", srv.URL+"/api/v1/jobs", SubmitRequest{Deck: "junc bogus"}, nil); code != http.StatusUnprocessableEntity {
		t.Fatalf("unparseable deck: HTTP %d, want 422", code)
	}
	// Parses but fails validation (records nothing).
	noRecord := strings.Replace(testDeck, "record 1 2\n", "", 1)
	if code := doJSON(t, "POST", srv.URL+"/api/v1/jobs", SubmitRequest{Deck: noRecord}, nil); code != http.StatusUnprocessableEntity {
		t.Fatalf("invalid deck: HTTP %d, want 422", code)
	}

	if code := doJSON(t, "GET", srv.URL+"/api/v1/jobs/j999999", nil, nil); code != http.StatusNotFound {
		t.Fatalf("unknown id: HTTP %d, want 404", code)
	}
	if code := doJSON(t, "GET", srv.URL+"/api/v1/jobs/j999999/result", nil, nil); code != http.StatusNotFound {
		t.Fatalf("unknown id result: HTTP %d, want 404", code)
	}
	if code := doJSON(t, "POST", srv.URL+"/api/v1/jobs/j999999/cancel", nil, nil); code != http.StatusNotFound {
		t.Fatalf("unknown id cancel: HTTP %d, want 404", code)
	}

	var sub SubmitResponse
	if code := doJSON(t, "POST", srv.URL+"/api/v1/jobs", SubmitRequest{Deck: testDeck}, &sub); code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	// The scripted task blocks, so the result is not ready.
	if code := doJSON(t, "GET", srv.URL+"/api/v1/jobs/"+sub.ID+"/result", nil, nil); code != http.StatusConflict {
		t.Fatalf("early result: HTTP %d, want 409", code)
	}
}

// A submission naming a field the API does not know — a misspelt
// override, or one that no longer exists — is refused with a 400 that
// names the field, instead of running with the field dropped.
func TestHTTPRejectsUnknownFields(t *testing.T) {
	e := newEngine(EngineConfig{Workers: 1},
		func(ctx context.Context, tk task, rc RunConfig) (runResult, error) {
			return runResult{Current: map[int]float64{1: 0, 2: 0}}, nil
		})
	t.Cleanup(e.Close)
	srv := httptest.NewServer(NewHandler(e, nil))
	t.Cleanup(srv.Close)

	deck, err := json.Marshal(testDeck)
	if err != nil {
		t.Fatal(err)
	}
	post := func(body string) (int, string) {
		t.Helper()
		resp, err := http.Post(srv.URL+"/api/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		blob, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(blob)
	}
	for _, field := range []string{"cinv-eps", "rate-tables", "parallel"} {
		code, msg := post(fmt.Sprintf(`{"deck": %s, "overrides": {%q: 1}}`, deck, field))
		if code != http.StatusBadRequest || !strings.Contains(msg, field) {
			t.Errorf("override %q: HTTP %d %s, want 400 naming the field", field, code, msg)
		}
	}
	if code, msg := post(fmt.Sprintf(`{"dek": %s}`, deck)); code != http.StatusBadRequest || !strings.Contains(msg, "dek") {
		t.Errorf("top-level typo: HTTP %d %s, want 400 naming the field", code, msg)
	}
	valid := fmt.Sprintf(`{"deck": %s, "overrides": {"rate_tables": true, "cinv_eps": 1e-9, "fano_window": 1e-9}}`, deck)
	if code, msg := post(valid); code != http.StatusAccepted {
		t.Errorf("valid overrides: HTTP %d %s, want 202", code, msg)
	}
}

// A cinv_eps override outside [0, 1) is refused with a 400 before any
// work is queued: 2 would drop all of C^-1, and a negative value used
// to be dropped silently.
func TestHTTPRejectsCinvEpsOutOfRange(t *testing.T) {
	e := newEngine(EngineConfig{Workers: 1},
		func(ctx context.Context, tk task, rc RunConfig) (runResult, error) {
			return runResult{Current: map[int]float64{1: 0, 2: 0}}, nil
		})
	t.Cleanup(e.Close)
	srv := httptest.NewServer(NewHandler(e, nil))
	t.Cleanup(srv.Close)

	deck, err := json.Marshal(testDeck)
	if err != nil {
		t.Fatal(err)
	}
	for _, eps := range []string{"2", "-1", "1"} {
		body := fmt.Sprintf(`{"deck": %s, "overrides": {"cinv_eps": %s}}`, deck, eps)
		resp, err := http.Post(srv.URL+"/api/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), "cinv_eps") {
			t.Errorf("cinv_eps %s: HTTP %d %s, want 400 naming cinv_eps", eps, resp.StatusCode, msg)
		}
	}
	if jobs := e.Jobs(); len(jobs) != 0 {
		t.Fatalf("rejected submissions queued %d jobs", len(jobs))
	}
	if _, err := ExecuteDeck(context.Background(), parseDeck(t, testDeck), Overrides{CinvEps: -1}, RunConfig{}); err == nil {
		t.Fatal("ExecuteDeck accepted a negative cinv_eps override")
	}
}

// Cancel over HTTP lands the job in canceled and the result endpoint
// reports it.
func TestHTTPCancel(t *testing.T) {
	e := newEngine(EngineConfig{Workers: 1},
		func(ctx context.Context, tk task, rc RunConfig) (runResult, error) {
			<-ctx.Done()
			return runResult{}, ctx.Err()
		})
	t.Cleanup(e.Close)
	srv := httptest.NewServer(NewHandler(e, nil))
	t.Cleanup(srv.Close)

	var sub SubmitResponse
	if code := doJSON(t, "POST", srv.URL+"/api/v1/jobs", SubmitRequest{Deck: testDeck}, &sub); code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	if code := doJSON(t, "POST", srv.URL+"/api/v1/jobs/"+sub.ID+"/cancel", nil, nil); code != http.StatusOK {
		t.Fatalf("cancel: HTTP %d", code)
	}
	j := e.Job(sub.ID)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := j.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	var st JobStatus
	doJSON(t, "GET", srv.URL+"/api/v1/jobs/"+sub.ID, nil, &st)
	if st.State != StateCanceled {
		t.Fatalf("canceled job is %s", st.State)
	}
}

// The obs routes mount beside the API when an observer is supplied.
func TestHTTPObsRoutesMounted(t *testing.T) {
	o := obs.New(obs.Config{})
	_, srv := startServer(t, EngineConfig{Workers: 1}, o)
	for _, path := range []string{"/metrics", "/healthz"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: HTTP %d", path, resp.StatusCode)
		}
	}
}

// An interrupted job resumes across engine restarts purely through the
// checkpoint directory: drain one engine mid-job, start a fresh one
// over the same directory, resubmit the same deck, and the finished
// tasks are reused while the rest complete — bit-identical.
func TestHTTPResumeAcrossEngineRestart(t *testing.T) {
	dir := t.TempDir()
	want, err := ExecuteDeck(context.Background(), parseDeck(t, testDeck), Overrides{}, RunConfig{})
	if err != nil {
		t.Fatal(err)
	}

	e1 := NewEngine(EngineConfig{Workers: 2, CheckpointDir: dir, CheckpointEvery: 1})
	j1, err := e1.Submit(parseDeck(t, testDeck), Overrides{})
	if err != nil {
		t.Fatal(err)
	}
	// Drain immediately: whatever is in flight checkpoints and stops.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := e1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	st := e1.Status(j1)
	if st.State != StateInterrupted && st.State != StateDone {
		t.Fatalf("drained job is %s", st.State)
	}
	if st.State == StateDone {
		t.Skip("job finished before the drain; nothing to resume")
	}

	e2 := NewEngine(EngineConfig{Workers: 2, CheckpointDir: dir, CheckpointEvery: 1})
	t.Cleanup(e2.Close)
	j2, err := e2.Submit(parseDeck(t, testDeck), Overrides{})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, e2, j2, StateDone)
	got, err := e2.Result(j2)
	if err != nil {
		t.Fatal(err)
	}
	samePoints(t, want, got, "after engine restart")
}
