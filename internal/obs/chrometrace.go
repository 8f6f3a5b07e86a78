package obs

import (
	"bufio"
	"fmt"
	"io"
)

// Chrome trace_event export: the journal serializes to the JSON Array
// Format consumed by chrome://tracing, Perfetto and speedscope, so a
// whole Monte Carlo run — every tunnel event, adaptive recompute
// decision, refresh boundary and timed phase — opens in a standard
// trace viewer.
//
// Two timelines coexist in one trace, as separate named threads:
//
//   - tid 1 ("simulated time"): instant events placed at simulated time
//     (1 sim-ns renders as 1 trace-us, so nanosecond device dynamics are
//     comfortably zoomable);
//   - tid 2 ("wall clock"): spans (full refreshes, sweep points, master
//     solves) as complete "X" events at their wall-clock offsets.
//
// The writer is deterministic: identical journals produce identical
// bytes (timestamps come from the events themselves, not the clock).

const (
	chromePID     = 1
	chromeSimTID  = 1
	chromeWallTID = 2
)

// simTS converts simulated seconds to trace microseconds at the 1e3
// zoom (1 ns of device time = 1 us of trace time).
func simTS(simSeconds float64) float64 { return simSeconds * 1e12 }

// WriteChromeTrace writes the journal's retained events in the Chrome
// trace_event JSON array format.
func (j *Journal) WriteChromeTrace(w io.Writer) error {
	if j == nil {
		return fmt.Errorf("obs: tracing was not enabled (Config.Trace)")
	}
	j.mu.Lock()
	names := append([]string(nil), j.names...)
	dropped := j.dropped
	j.mu.Unlock()
	return writeChromeTrace(w, j.Events(), names, dropped)
}

// writeChromeTrace is the pure core (unit-tested against a golden
// file): it depends only on its inputs. A non-zero dropped count — the
// ring overwrote that many events before this export — is surfaced as a
// journal_dropped instant so a truncated trace can never pass for a
// complete one.
func writeChromeTrace(w io.Writer, events []Event, spanNames []string, dropped uint64) error {
	bw := bufio.NewWriter(w)
	io.WriteString(bw, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n")
	fmt.Fprintf(bw, `{"ph":"M","pid":%d,"tid":%d,"name":"thread_name","args":{"name":"simulated time (1 ns = 1 us shown)"}}`,
		chromePID, chromeSimTID)
	fmt.Fprintf(bw, ",\n{\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\"name\":\"thread_name\",\"args\":{\"name\":\"wall clock\"}}",
		chromePID, chromeWallTID)
	if dropped > 0 {
		fmt.Fprintf(bw, ",\n{\"ph\":\"i\",\"pid\":%d,\"tid\":%d,\"name\":\"journal_dropped\",\"cat\":\"meta\",\"s\":\"g\",\"ts\":0,\"args\":{\"dropped_events\":%d,\"note\":\"ring overwrote oldest events; this trace is the most recent window\"}}",
			chromePID, chromeWallTID, dropped)
	}
	for i := range events {
		io.WriteString(bw, ",\n")
		writeChromeEvent(bw, &events[i], spanNames)
	}
	io.WriteString(bw, "\n]}\n")
	return bw.Flush()
}

func writeChromeEvent(w io.Writer, e *Event, spanNames []string) {
	switch e.Kind {
	case KindSpan:
		name := fmt.Sprintf("span#%d", e.Junc)
		if int(e.Junc) >= 0 && int(e.Junc) < len(spanNames) {
			name = spanNames[e.Junc]
		}
		fmt.Fprintf(w, `{"ph":"X","pid":%d,"tid":%d,"name":%q,"cat":"span","ts":%.3f,"dur":%.3f,"args":{"sim_s":%g}}`,
			chromePID, chromeWallTID, name, float64(e.Wall)/1e3, float64(e.Dur)/1e3, e.Sim)
	case KindTunnel, KindCotunnel, KindCooper:
		fmt.Fprintf(w, `{"ph":"i","pid":%d,"tid":%d,"name":%q,"cat":"event","s":"t","ts":%.6f,"args":{"junction":%d,"dw_j":%g}}`,
			chromePID, chromeSimTID, e.Kind.String(), simTS(e.Sim), e.Junc, e.V1)
	case KindAdaptiveTest:
		verdict := "kept"
		if e.A != 0 {
			verdict = "recomputed"
		}
		fmt.Fprintf(w, `{"ph":"i","pid":%d,"tid":%d,"name":"test j%d: %s","cat":"adaptive","s":"t","ts":%.6f,"args":{"junction":%d,"e_abs_b":%g,"threshold":%g,"spill_depth":%d}}`,
			chromePID, chromeSimTID, e.Junc, verdict, simTS(e.Sim), e.Junc, e.V1, e.V2, e.B)
	case KindAdaptive:
		fmt.Fprintf(w, `{"ph":"i","pid":%d,"tid":%d,"name":"adaptive update","cat":"adaptive","s":"t","ts":%.6f,"args":{"seed_junction":%d,"tested":%d,"flagged":%d}}`,
			chromePID, chromeSimTID, simTS(e.Sim), e.Junc, e.A, e.B)
	case KindRefresh:
		fmt.Fprintf(w, `{"ph":"i","pid":%d,"tid":%d,"name":"full refresh","cat":"refresh","s":"p","ts":%.6f,"args":{}}`,
			chromePID, chromeSimTID, simTS(e.Sim))
	case KindInputChange:
		fmt.Fprintf(w, `{"ph":"i","pid":%d,"tid":%d,"name":"input change","cat":"input","s":"p","ts":%.6f,"args":{"tested":%d,"flagged":%d}}`,
			chromePID, chromeSimTID, simTS(e.Sim), e.B, e.A)
	case KindFenwick:
		fmt.Fprintf(w, `{"ph":"i","pid":%d,"tid":%d,"name":"fenwick flush","cat":"fenwick","s":"t","ts":%.6f,"args":{"batch":%d,"rebuilt":%d}}`,
			chromePID, chromeSimTID, simTS(e.Sim), e.A, e.B)
	case KindNoiseWindow:
		fmt.Fprintf(w, `{"ph":"i","pid":%d,"tid":%d,"name":"noise window","cat":"noise","s":"t","ts":%.6f,"args":{"junction":%d,"windows":%d,"charge_e":%g}}`,
			chromePID, chromeSimTID, simTS(e.Sim), e.Junc, e.A, e.V1)
	case KindProgress:
		fmt.Fprintf(w, `{"ph":"C","pid":%d,"name":"events_per_sec","ts":%.3f,"args":{"rate":%g}}`,
			chromePID, float64(e.Wall)/1e3, e.V2)
	default:
		fmt.Fprintf(w, `{"ph":"i","pid":%d,"tid":%d,"name":"unknown","s":"t","ts":%.6f,"args":{}}`,
			chromePID, chromeSimTID, simTS(e.Sim))
	}
}
