package jobs

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"semsim/internal/netlist"
	"semsim/internal/obs"
)

// SubmitRequest is the POST /api/v1/jobs body: the deck text (the
// SPICE-like input-file dialect, see docs/DECK.md) plus optional engine
// overrides.
type SubmitRequest struct {
	// Deck is the full input deck as text.
	Deck string `json:"deck"`
	// Overrides are engine knobs applied on top of the deck.
	Overrides Overrides `json:"overrides"`
}

// SubmitResponse answers a job submission.
type SubmitResponse struct {
	// ID identifies the job for the status/result/cancel endpoints.
	ID string `json:"id"`
	// Points and RunsPerPoint size the work the deck expanded into.
	Points       int `json:"points"`
	RunsPerPoint int `json:"runs_per_point"`
}

// ResultResponse answers GET /api/v1/jobs/{id}/result.
type ResultResponse struct {
	// ID echoes the job id.
	ID string `json:"id"`
	// Points are the folded operating points in sweep order.
	Points []Point `json:"points"`
}

// NewHandler exposes an Engine over HTTP as a JSON API, with the
// observability routes of o (when non-nil) mounted beside it:
//
//	POST /api/v1/jobs             submit a deck        (SubmitRequest)
//	GET  /api/v1/jobs             list job statuses    ([]JobStatus)
//	GET  /api/v1/jobs/{id}        one job's status     (JobStatus)
//	GET  /api/v1/jobs/{id}/result completed points     (ResultResponse)
//	POST /api/v1/jobs/{id}/cancel abort a job
//	GET  /api/v1/jobs/{id}/events live progress stream (Server-Sent Events)
//	GET  /api/v1/jobs/{id}/trace  merged per-worker Chrome trace
//	GET  /healthz                 liveness probe
//	/metrics /trace /heatmap /debug/pprof/   obs routes (o != nil)
//
// The events and trace routes are also reachable at the short aliases
// /jobs/{id}/events and /jobs/{id}/trace (curl-friendly).
//
// The event stream replays from the job's retained ring: a reconnecting
// client sends the standard Last-Event-ID header (or ?after=N) and
// receives every retained event with a greater sequence number. A slow
// client never stalls the engine — its per-subscriber ring drops oldest
// events instead, and the stream reports the gap as an
// `event: dropped` record.
func NewHandler(e *Engine, o *obs.Observer) http.Handler {
	mux := http.NewServeMux()

	writeJSON := func(w http.ResponseWriter, status int, v any) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		if err := json.NewEncoder(w).Encode(v); err != nil {
			// The client hung up mid-response; nothing to clean up.
			return
		}
	}
	writeErr := func(w http.ResponseWriter, status int, format string, args ...any) {
		writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
	}
	jobOr404 := func(w http.ResponseWriter, r *http.Request) *Job {
		j := e.Job(r.PathValue("id"))
		if j == nil {
			writeErr(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		}
		return j
	}

	mux.HandleFunc("POST /api/v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		var req SubmitRequest
		dec := json.NewDecoder(r.Body)
		// A misspelt override must not be dropped silently: the job
		// would run other work than the client asked for.
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			writeErr(w, http.StatusBadRequest, "malformed request body: %v", err)
			return
		}
		if err := req.Overrides.check(); err != nil {
			writeErr(w, http.StatusBadRequest, "%v", err)
			return
		}
		d, err := netlist.Parse(strings.NewReader(req.Deck))
		if err != nil {
			writeErr(w, http.StatusUnprocessableEntity, "deck does not parse: %v", err)
			return
		}
		j, err := e.Submit(d, req.Overrides)
		if err != nil {
			writeErr(w, http.StatusUnprocessableEntity, "%v", err)
			return
		}
		st := e.Status(j)
		writeJSON(w, http.StatusAccepted, SubmitResponse{
			ID: j.ID(), Points: st.Points, RunsPerPoint: st.RunsPer,
		})
	})

	mux.HandleFunc("GET /api/v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, e.Jobs())
	})

	mux.HandleFunc("GET /api/v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		if j := jobOr404(w, r); j != nil {
			writeJSON(w, http.StatusOK, e.Status(j))
		}
	})

	mux.HandleFunc("GET /api/v1/jobs/{id}/result", func(w http.ResponseWriter, r *http.Request) {
		j := jobOr404(w, r)
		if j == nil {
			return
		}
		pts, err := e.Result(j)
		if err != nil {
			// 409: the resource exists but is not in a state to serve this.
			writeErr(w, http.StatusConflict, "%v", err)
			return
		}
		writeJSON(w, http.StatusOK, ResultResponse{ID: j.ID(), Points: pts})
	})

	mux.HandleFunc("POST /api/v1/jobs/{id}/cancel", func(w http.ResponseWriter, r *http.Request) {
		if j := jobOr404(w, r); j != nil {
			e.Cancel(j.ID())
			writeJSON(w, http.StatusOK, e.Status(j))
		}
	})

	events := func(w http.ResponseWriter, r *http.Request) {
		if j := jobOr404(w, r); j != nil {
			serveJobEvents(e, j, w, r)
		}
	}
	trace := func(w http.ResponseWriter, r *http.Request) {
		j := jobOr404(w, r)
		if j == nil {
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if err := obs.WriteMergedChromeTrace(w, j.trace.lanes()); err != nil {
			// The client hung up mid-response; nothing to clean up.
			return
		}
	}
	mux.HandleFunc("GET /api/v1/jobs/{id}/events", events)
	mux.HandleFunc("GET /jobs/{id}/events", events)
	mux.HandleFunc("GET /api/v1/jobs/{id}/trace", trace)
	mux.HandleFunc("GET /jobs/{id}/trace", trace)

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})

	if o != nil {
		mux.Handle("/", obs.Handler(o))
	}
	return mux
}

// serveJobEvents streams one job's bus topic as Server-Sent Events
// until the job reaches a terminal state (the terminal state event is
// always delivered first) or the client disconnects. Replay honors the
// Last-Event-ID header and the ?after=N query; ring overwrites on a
// slow connection surface as `event: dropped` records carrying the gap
// size, never as a stalled engine.
func serveJobEvents(e *Engine, j *Job, w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "jobs: event streaming needs a flushable connection", http.StatusInternalServerError)
		return
	}
	var after uint64
	if v := r.Header.Get("Last-Event-ID"); v != "" {
		after, _ = strconv.ParseUint(v, 10, 64)
	}
	if v := r.URL.Query().Get("after"); v != "" {
		after, _ = strconv.ParseUint(v, 10, 64)
	}
	sub := e.bus.Subscribe(j.id, after)
	defer sub.Close()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	var reported uint64 // subscriber drops already told to this client
	drain := func() bool {
		wrote := false
		for {
			if d := sub.Dropped(); d > reported {
				fmt.Fprintf(w, "event: dropped\ndata: {\"job\":%q,\"dropped\":%d}\n\n", j.id, d-reported)
				reported = d
				wrote = true
			}
			ev, ok := sub.Next()
			if !ok {
				break
			}
			if _, err := fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Type, ev.Data); err != nil {
				return false
			}
			wrote = true
		}
		if wrote {
			fl.Flush()
		}
		return true
	}
	for {
		if !drain() {
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-j.completed:
			// The terminal state event was published before completed
			// closed, so one final drain delivers it.
			drain()
			return
		case <-sub.Ready():
		}
	}
}
