package jobs

import (
	"bufio"
	"fmt"
	"io"
	"sync"
	"time"
)

// The job event log: each Engine job keeps one bounded log of typed
// events, numbered from 1 in the order they happened. Every job event
// site appends to it once, and both views render from it: GET
// /jobs/{id}/events streams it as Server-Sent Events, and GET
// /jobs/{id}/trace draws it as a Chrome trace with one lane for the job
// and one per engine worker. A subscriber is only a position in the
// log, so an append copies nothing per subscriber and never waits on
// one.

// eventKind tags a jobEvent. Each kind is one SSE event name.
type eventKind uint8

const (
	evState eventKind = iota + 1
	evTaskDone
	evCheckpoint
	evRetry
	evResume
	evProgress
	evRefine
)

// eventNames are the SSE event names, indexed by kind.
var eventNames = [...]string{
	evState:      "state",
	evTaskDone:   "task_done",
	evCheckpoint: "checkpoint",
	evRetry:      "retry",
	evResume:     "resume",
	evProgress:   "progress",
	evRefine:     "refine",
}

// stateCodes are the states a state event carries, by code.
var stateCodes = [...]State{StateQueued, StateRunning, StateDone, StateFailed, StateCanceled, StateInterrupted}

// stateCode is the code of one of the State constants.
func stateCode(s State) uint8 {
	for i, c := range stateCodes {
		if c == s {
			return uint8(i)
		}
	}
	panic("jobs: no code for state " + string(s))
}

// Task outcome codes (task_done events and retried attempts), and the
// names they render by.
const (
	outcomeDone = iota
	outcomeFailed
	outcomeInterrupted
)

var outcomeNames = [...]string{"done", "failed", "interrupted"}

// retryClass is the error class of every retry: only transient errors,
// which so far are checkpoint I/O, are retried.
const retryClass = "checkpoint-io"

// jobEvent is one typed job event: 56 bytes, no pointers. Times are
// nanoseconds since the job's submission. Fields are kind-specific and
// unused ones are zero:
//
//   - state: code the state; done and total the tasks (total alone for
//     queued); ns the start of the running span on a terminal state, or
//     -1 when no task started.
//   - task_done: worker, point and run the task; code its outcome;
//     done and total the job's tasks; wall, dur and n the final
//     attempt's span and solver events; a that attempt's number, or 0
//     when a drain or cancel cut a retry's backoff and the retry event
//     already carried the attempt.
//   - retry: the task; a the failed attempt's number, wall, dur and n
//     its span and events; ns the backoff.
//   - checkpoint: the task; wall and dur the write, n the bytes, ns the
//     fsync.
//   - resume: the task; n the events the checkpoint had applied.
//   - progress: done and total the tasks, n the solver events so far.
//   - refine: a the level, n the new points, total the tasks planned.
type jobEvent struct {
	wall   int64
	dur    int64
	n      uint64
	ns     int64
	point  int32
	run    int32
	a      int32
	done   int32
	total  int32
	worker int16
	kind   eventKind
	code   uint8 // state or task outcome
}

// eventLog is one job's bounded event log. It keeps the newest keep
// events: the ring grows as events arrive, doubling up to keep, then
// overwrites its oldest event. Event number s sits at ring[(s-1)%keep].
type eventLog struct {
	keep int

	mu   sync.Mutex
	ring []jobEvent
	last uint64        // the newest event's number: how many were appended
	wake chan struct{} // closed by the next append; nil while no reader waits
}

func newEventLog(keep int) *eventLog { return &eventLog{keep: max(keep, 1)} }

// append numbers ev as the next event and wakes every waiting reader by
// closing one channel. It never blocks on a reader.
//
//semsim:publish
//semsim:hot
func (l *eventLog) append(ev jobEvent) {
	l.mu.Lock()
	if n := len(l.ring); n < l.keep {
		if n == cap(l.ring) {
			grown := make([]jobEvent, n, min(max(2*n, 64), l.keep)) //hotalloc:ok the ring doubles up to its retention once, then overwrites in place
			copy(grown, l.ring)
			l.ring = grown
		}
		l.ring = l.ring[:n+1]
		l.ring[n] = ev
	} else {
		l.ring[l.last%uint64(l.keep)] = ev
	}
	l.last++
	if l.wake != nil {
		close(l.wake)
		l.wake = nil
	}
	l.mu.Unlock()
}

// read copies into buf, oldest first, the retained events numbered
// after after, and returns how many it copied and the number of the
// first. When first > after+1 the events in between were overwritten
// before this reader got to them. wake is closed by the next append.
func (l *eventLog) read(after uint64, buf []jobEvent) (n int, first uint64, wake <-chan struct{}) {
	l.mu.Lock()
	defer l.mu.Unlock()
	first = max(after+1, l.last-uint64(len(l.ring))+1)
	for s := first; s <= l.last && n < len(buf); s++ {
		buf[n] = l.ring[(s-1)%uint64(l.keep)]
		n++
	}
	if l.wake == nil {
		l.wake = make(chan struct{})
	}
	return n, first, l.wake
}

// snapshot copies every retained event, oldest first, and reports how
// many older events the log has overwritten.
func (l *eventLog) snapshot() (evs []jobEvent, dropped uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	dropped = l.last - uint64(len(l.ring))
	evs = make([]jobEvent, 0, len(l.ring))
	for s := dropped + 1; s <= l.last; s++ {
		evs = append(evs, l.ring[(s-1)%uint64(l.keep)])
	}
	return evs, dropped
}

// progress is a progress event's job-wide event rate and task-count ETA
// (-1 before the first task is done).
func (ev *jobEvent) progress() (rate, eta float64) {
	elapsed := time.Duration(ev.wall).Seconds()
	if elapsed > 0 {
		rate = float64(ev.n) / elapsed
	}
	eta = -1
	if ev.done > 0 {
		eta = elapsed * float64(ev.total-ev.done) / float64(ev.done)
	}
	return rate, eta
}

// writeSSE writes j's event number seq as one Server-Sent Events frame:
// the number as the id, the kind as the event name, and the kind's
// JSON payload. A terminal state carries the job's error.
func (e *Engine) writeSSE(w io.Writer, j *Job, seq uint64, ev *jobEvent) error {
	job := j.id
	fmt.Fprintf(w, "id: %d\nevent: %s\ndata: ", seq, eventNames[ev.kind])
	switch ev.kind {
	case evState:
		switch st := stateCodes[ev.code]; st {
		case StateQueued:
			fmt.Fprintf(w, `{"job":%q,"state":%q,"tasks_total":%d}`, job, st, ev.total)
		case StateRunning:
			fmt.Fprintf(w, `{"job":%q,"state":%q}`, job, st)
		default:
			fmt.Fprintf(w, `{"job":%q,"state":%q,"done":%d,"total":%d,"error":%q}`, job, st, ev.done, ev.total, e.errText(j))
		}
	case evTaskDone:
		fmt.Fprintf(w, `{"job":%q,"point":%d,"run":%d,"outcome":%q,"events":%d,"done":%d,"total":%d}`,
			job, ev.point, ev.run, outcomeNames[ev.code], ev.n, ev.done, ev.total)
	case evCheckpoint:
		fmt.Fprintf(w, `{"job":%q,"point":%d,"run":%d,"bytes":%d,"fsync_ns":%d,"write_ns":%d}`,
			job, ev.point, ev.run, ev.n, ev.ns, ev.dur)
	case evRetry:
		fmt.Fprintf(w, `{"job":%q,"point":%d,"run":%d,"attempt":%d,"delay_sec":%g,"error_class":%q}`,
			job, ev.point, ev.run, ev.a, time.Duration(ev.ns).Seconds(), retryClass)
	case evResume:
		fmt.Fprintf(w, `{"job":%q,"point":%d,"run":%d,"events_at_resume":%d}`, job, ev.point, ev.run, ev.n)
	case evProgress:
		rate, eta := ev.progress()
		fmt.Fprintf(w, `{"job":%q,"done":%d,"total":%d,"events":%d,"events_per_sec":%.1f,"eta_sec":%.1f}`,
			job, ev.done, ev.total, ev.n, rate, eta)
	case evRefine:
		fmt.Fprintf(w, `{"job":%q,"level":%d,"new_points":%d,"tasks_total":%d}`, job, ev.a, ev.n, ev.total)
	}
	_, err := io.WriteString(w, "\n\n")
	return err
}

// writeSSEDropped writes the record that tells one subscriber how many
// events it missed.
func writeSSEDropped(w io.Writer, job string, missed uint64) error {
	_, err := fmt.Fprintf(w, "event: dropped\ndata: {\"job\":%q,\"dropped\":%d}\n\n", job, missed)
	return err
}

// writeTrace renders a job's retained events as one Chrome trace_event
// document on the job's wall clock: lane "job" (tid 1) carries the
// queued and running spans, state instants and progress counters, and
// lanes "worker 0".."worker N-1" (tids 2..N+1) carry each task
// attempt's span, checkpoint writes, retries and resumes. dropped > 0
// adds a note that the log overwrote its oldest events.
func writeTrace(w io.Writer, workers int, evs []jobEvent, dropped uint64) error {
	bw := bufio.NewWriter(w)
	io.WriteString(bw, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n")
	io.WriteString(bw, `{"ph":"M","pid":1,"tid":1,"name":"thread_name","args":{"name":"job"}}`)
	for i := 0; i < workers; i++ {
		fmt.Fprintf(bw, ",\n"+`{"ph":"M","pid":1,"tid":%d,"name":"thread_name","args":{"name":"worker %d"}}`, i+2, i)
	}
	if dropped > 0 {
		fmt.Fprintf(bw, ",\n"+`{"ph":"i","pid":1,"tid":1,"name":"events_dropped","cat":"meta","s":"g","ts":0,"args":{"dropped_events":%d,"note":"the job's event log overwrote its oldest events; this trace is the newest window"}}`, dropped)
	}
	for i := range evs {
		writeTraceEvent(bw, &evs[i])
	}
	io.WriteString(bw, "\n]}\n")
	return bw.Flush()
}

// us converts nanoseconds to trace microseconds.
func us(ns int64) float64 { return float64(ns) / 1e3 }

// writeTraceEvent renders one event, each trace record preceded by a
// separator. Refine events have no trace record: the tasks they add
// show as spans.
func writeTraceEvent(w io.Writer, ev *jobEvent) {
	tid := int(ev.worker) + 2
	switch ev.kind {
	case evState:
		st := stateCodes[ev.code]
		switch {
		case st == StateRunning:
			// The queued span closes when the first task starts.
			fmt.Fprintf(w, ",\n"+`{"ph":"X","pid":1,"tid":1,"name":"queued","cat":"span","ts":0.000,"dur":%.3f,"args":{"sim_s":0}}`, us(ev.wall))
		case st != StateQueued && ev.ns >= 0:
			// The running span covers first task start to job finish.
			fmt.Fprintf(w, ",\n"+`{"ph":"X","pid":1,"tid":1,"name":"running","cat":"span","ts":%.3f,"dur":%.3f,"args":{"sim_s":0}}`, us(ev.ns), us(ev.wall-ev.ns))
		}
		fmt.Fprintf(w, ",\n"+`{"ph":"i","pid":1,"tid":1,"name":"state: %s","cat":"job","s":"t","ts":%.3f,"args":{"state":%q}}`, st, us(ev.wall), st)
	case evTaskDone:
		if ev.a > 0 {
			writeAttempt(w, tid, ev, outcomeNames[ev.code])
		}
	case evRetry:
		// A transient error ended the attempt, so it failed.
		writeAttempt(w, tid, ev, outcomeNames[outcomeFailed])
		fmt.Fprintf(w, ",\n"+`{"ph":"i","pid":1,"tid":%d,"name":"retry p%d r%d","cat":"retry","s":"t","ts":%.3f,"args":{"point":%d,"run":%d,"attempt":%d,"delay_s":%g,"error_class":%q}}`,
			tid, ev.point, ev.run, us(ev.wall+ev.dur), ev.point, ev.run, ev.a, time.Duration(ev.ns).Seconds(), retryClass)
	case evCheckpoint:
		fmt.Fprintf(w, ",\n"+`{"ph":"X","pid":1,"tid":%d,"name":"checkpoint p%d r%d","cat":"checkpoint","ts":%.3f,"dur":%.3f,"args":{"point":%d,"run":%d,"bytes":%g,"fsync_ns":%g}}`,
			tid, ev.point, ev.run, us(ev.wall), us(ev.dur), ev.point, ev.run, float64(ev.n), float64(ev.ns))
	case evResume:
		fmt.Fprintf(w, ",\n"+`{"ph":"i","pid":1,"tid":%d,"name":"resume p%d r%d","cat":"resume","s":"t","ts":%.3f,"args":{"point":%d,"run":%d,"events_at_resume":%g}}`,
			tid, ev.point, ev.run, us(ev.wall), ev.point, ev.run, float64(ev.n))
	case evProgress:
		rate, _ := ev.progress()
		fmt.Fprintf(w, ",\n"+`{"ph":"C","pid":1,"name":"tasks_done","ts":%.3f,"args":{"done":%g}}`, us(ev.wall), float64(ev.done))
		fmt.Fprintf(w, ",\n"+`{"ph":"C","pid":1,"name":"events_per_sec","ts":%.3f,"args":{"rate":%g}}`, us(ev.wall), rate)
	}
}

// writeAttempt renders one task attempt as an X span on its worker's
// lane.
func writeAttempt(w io.Writer, tid int, ev *jobEvent, outcome string) {
	fmt.Fprintf(w, ",\n"+`{"ph":"X","pid":1,"tid":%d,"name":"task p%d r%d","cat":"task","ts":%.3f,"dur":%.3f,"args":{"point":%d,"run":%d,"outcome":%q,"events":%g}}`,
		tid, ev.point, ev.run, us(ev.wall), us(ev.dur), ev.point, ev.run, outcome, float64(ev.n))
}
