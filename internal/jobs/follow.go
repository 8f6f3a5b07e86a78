package jobs

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// followRetries bounds reconnect attempts after transport errors before
// Follow gives up (a clean end-of-stream with a terminal state returns
// nil regardless).
const followRetries = 5

// Follow connects to a job's live event stream (GET {jobURL}/events)
// and renders each event as one human-readable line on out, until the
// job reaches a terminal state (done, failed, canceled or interrupted)
// or ctx is canceled. Transport failures reconnect with the standard
// Last-Event-ID header, so the job's event log replays whatever the
// client missed; after followRetries consecutive failures the last
// error is returned. The first failed write to out ends the follow and
// is returned. jobURL is the job resource, e.g.
// http://host:8080/api/v1/jobs/j000001.
func Follow(ctx context.Context, jobURL string, out io.Writer) error {
	url := strings.TrimSuffix(jobURL, "/") + "/events"
	lastID := ""
	for attempt := 0; ; {
		stop, err := followOnce(ctx, url, &lastID, out)
		switch {
		case stop:
			return err
		case ctx.Err() != nil:
			return ctx.Err()
		case err == nil:
			// The server ended the stream without a terminal state (e.g. a
			// daemon drain closed the listener between events): reconnect
			// and replay from the last seen id.
			attempt = 0
		default:
			attempt++
			if attempt >= followRetries {
				return fmt.Errorf("jobs: follow %s: %w", jobURL, err)
			}
		}
		select {
		case <-time.After(time.Second):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// followOnce runs one SSE connection: it reports stop=true when a state
// event carried a terminal job state or a write to out failed (err is
// then the write error), and otherwise err for transport-level failures
// worth a reconnect.
func followOnce(ctx context.Context, url string, lastID *string, out io.Writer) (bool, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return false, err
	}
	req.Header.Set("Accept", "text/event-stream")
	if *lastID != "" {
		req.Header.Set("Last-Event-ID", *lastID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return false, fmt.Errorf("server returned %s: %s", resp.Status, strings.TrimSpace(string(body)))
	}

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var id, typ, data string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if typ != "" || data != "" {
				if id != "" {
					*lastID = id
				}
				if terminal, err := renderEvent(out, typ, data); terminal || err != nil {
					return true, err
				}
			}
			id, typ, data = "", "", ""
		case strings.HasPrefix(line, "id:"):
			id = strings.TrimSpace(line[len("id:"):])
		case strings.HasPrefix(line, "event:"):
			typ = strings.TrimSpace(line[len("event:"):])
		case strings.HasPrefix(line, "data:"):
			data = strings.TrimSpace(line[len("data:"):])
		}
	}
	return false, sc.Err()
}

// renderEvent prints one event as a progress line and reports whether
// it announced a terminal job state, and the write error.
func renderEvent(out io.Writer, typ, data string) (terminal bool, err error) {
	var f struct {
		Job      string  `json:"job"`
		State    string  `json:"state"`
		Point    int     `json:"point"`
		Run      int     `json:"run"`
		Outcome  string  `json:"outcome"`
		Done     int     `json:"done"`
		Total    int     `json:"total"`
		Events   uint64  `json:"events"`
		Rate     float64 `json:"events_per_sec"`
		ETA      float64 `json:"eta_sec"`
		Attempt  int     `json:"attempt"`
		Delay    float64 `json:"delay_sec"`
		ErrClass string  `json:"error_class"`
		Error    string  `json:"error"`
		Dropped  uint64  `json:"dropped"`
		Bytes    int     `json:"bytes"`
	}
	// Unparseable payloads still print raw — the stream is diagnostic.
	if json.Unmarshal([]byte(data), &f) != nil {
		_, err = fmt.Fprintf(out, "%s %s\n", typ, data)
		return false, err
	}
	switch typ {
	case "state":
		line := fmt.Sprintf("%s: %s", f.Job, f.State)
		if f.Error != "" {
			line += " (" + f.Error + ")"
		}
		_, err = fmt.Fprintln(out, line)
		switch State(f.State) {
		case StateDone, StateFailed, StateCanceled, StateInterrupted:
			terminal = true
		}
	case "progress":
		eta := "?"
		if f.ETA >= 0 {
			eta = fmt.Sprintf("%.0fs", f.ETA)
		}
		_, err = fmt.Fprintf(out, "%s: %d/%d tasks, %.3g events/s, eta %s\n", f.Job, f.Done, f.Total, f.Rate, eta)
	case "task_done":
		_, err = fmt.Fprintf(out, "%s: task p%d r%d %s (%d/%d)\n", f.Job, f.Point, f.Run, f.Outcome, f.Done, f.Total)
	case "checkpoint":
		_, err = fmt.Fprintf(out, "%s: checkpoint p%d r%d (%d bytes)\n", f.Job, f.Point, f.Run, f.Bytes)
	case "retry":
		_, err = fmt.Fprintf(out, "%s: retry p%d r%d attempt %d in %gs (%s)\n", f.Job, f.Point, f.Run, f.Attempt, f.Delay, f.ErrClass)
	case "resume":
		_, err = fmt.Fprintf(out, "%s: resumed p%d r%d from checkpoint\n", f.Job, f.Point, f.Run)
	case "dropped":
		_, err = fmt.Fprintf(out, "%s: warning: %d events dropped (slow consumer)\n", f.Job, f.Dropped)
	default:
		_, err = fmt.Fprintf(out, "%s %s\n", typ, data)
	}
	return terminal, err
}
