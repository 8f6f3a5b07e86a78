package obs

import (
	"bufio"
	"fmt"
	"io"
	"sync"
)

// Kind tags one journal event.
type Kind uint8

// Journal event kinds.
const (
	// KindTunnel is an applied first-order tunnel event (quasi-particle
	// in superconducting circuits).
	KindTunnel Kind = iota + 1
	// KindCotunnel is an applied second-order cotunneling event.
	KindCotunnel
	// KindCooper is an applied Cooper-pair event.
	KindCooper
	// KindAdaptiveTest is one adaptive testing-factor decision:
	// Junc is the tested junction, V1 the accumulated factor e*|b(i)|,
	// V2 the threshold alpha*min(|dW'fw|,|dW'bw|), A is 1 when flagged
	// for recomputation, B the BFS spill depth at which it was reached.
	KindAdaptiveTest
	// KindAdaptive summarizes one adaptive update: A junctions tested,
	// B junctions flagged, Junc the seed junction.
	KindAdaptive
	// KindRefresh is a periodic full refresh boundary.
	KindRefresh
	// KindInputChange is a source-voltage change boundary; A is the
	// number of junctions flagged by the fold-in test.
	KindInputChange
	// KindFenwick is a selection-tree flush: A the staged batch size,
	// B 1 when the flush chose a bulk rebuild over point updates.
	KindFenwick
	// KindSpan is a completed span: Junc is the interned name id (an
	// index into the journal's name table, which the exports read),
	// Wall/Dur the start offset and duration in nanoseconds.
	KindSpan
	// KindProgress is a periodic progress sample emitted by a Progress
	// reporter: V1 events so far, V2 events/s.
	KindProgress
	// KindNoiseWindow is a noise-accumulator counting-window closure:
	// Junc the recorded junction, A the number of windows completed at
	// once (1 plus any empty windows the closing event skipped), V1 the
	// closing window's charge in units of e.
	KindNoiseWindow
)

// String names the kind for exports.
func (k Kind) String() string {
	switch k {
	case KindTunnel:
		return "tunnel"
	case KindCotunnel:
		return "cotunnel"
	case KindCooper:
		return "cooper"
	case KindAdaptiveTest:
		return "adaptiveTest"
	case KindAdaptive:
		return "adaptiveUpdate"
	case KindRefresh:
		return "fullRefresh"
	case KindInputChange:
		return "inputChange"
	case KindFenwick:
		return "fenwickFlush"
	case KindSpan:
		return "span"
	case KindProgress:
		return "progress"
	case KindNoiseWindow:
		return "noiseWindow"
	}
	return "unknown"
}

// Event is one fixed-size journal record. Fields are kind-specific (see
// the Kind constants); unused fields are zero. The struct holds no
// pointers, so a full ring costs one allocation for the lifetime of the
// journal and recording is copy-only.
type Event struct {
	Kind Kind
	Junc int32   // junction id / span name id
	A, B int32   // kind-specific small integers
	Sim  float64 // simulated time (seconds)
	V1   float64 // kind-specific values
	V2   float64
	Wall int64 // wall-clock offset since journal start (ns)
	Dur  int64 // span duration (ns); 0 otherwise
}

// Journal is a bounded in-memory event stream: a ring buffer that
// overwrites its oldest events once full, plus an optional JSONL sink
// that receives every event as it is recorded (unbounded, for offline
// analysis). All methods are safe for concurrent use.
type Journal struct {
	mu      sync.Mutex
	ring    []Event
	total   uint64 // events ever recorded
	dropped uint64 // events the ring has overwritten (total - retained)
	dropCtr *Counter
	names   []string
	sink    *bufio.Writer
}

// NewJournal creates a journal holding the most recent cap events
// (minimum 1). sink, when non-nil, receives every event as one JSON
// line; call Flush before reading the sink's destination.
func NewJournal(cap int, sink io.Writer) *Journal {
	if cap < 1 {
		cap = 1
	}
	j := &Journal{ring: make([]Event, 0, cap)}
	if sink != nil {
		j.sink = bufio.NewWriter(sink)
	}
	return j
}

// CountDrops mirrors the journal's dropped-event count into a registry
// counter, so silent ring truncation shows up on /metrics (nil-safe).
func (j *Journal) CountDrops(c *Counter) {
	if j == nil {
		return
	}
	j.mu.Lock()
	j.dropCtr = c
	j.mu.Unlock()
}

// Record appends one event, overwriting the oldest once the ring is
// full. Overwrites are never silent: they accumulate in Dropped (and
// the CountDrops registry counter), and trace exports carry a
// journal_dropped note when any occurred.
func (j *Journal) Record(e Event) {
	j.mu.Lock()
	if len(j.ring) < cap(j.ring) {
		j.ring = append(j.ring, e)
	} else {
		j.ring[int(j.total)%cap(j.ring)] = e
		j.dropped++
		if j.dropCtr != nil {
			j.dropCtr.Add(1)
		}
	}
	j.total++
	if j.sink != nil {
		writeEventJSON(j.sink, &e, j.names)
		j.sink.WriteByte('\n')
	}
	j.mu.Unlock()
}

// internName maps a span name to a stable small id.
func (j *Journal) internName(name string) int32 {
	j.mu.Lock()
	defer j.mu.Unlock()
	for i, n := range j.names {
		if n == name {
			return int32(i)
		}
	}
	j.names = append(j.names, name)
	return int32(len(j.names) - 1)
}

// Total returns how many events were ever recorded (including ones the
// ring has since overwritten).
func (j *Journal) Total() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.total
}

// Dropped returns how many recorded events the bounded ring has
// overwritten — events absent from Events and every export built on it.
func (j *Journal) Dropped() uint64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.dropped
}

// Events returns the retained events in recording order (oldest first).
func (j *Journal) Events() []Event {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]Event, 0, len(j.ring))
	if len(j.ring) < cap(j.ring) {
		return append(out, j.ring...)
	}
	head := int(j.total) % cap(j.ring) // oldest retained event
	out = append(out, j.ring[head:]...)
	return append(out, j.ring[:head]...)
}

// Flush drains the buffered JSONL sink, if any.
func (j *Journal) Flush() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.sink == nil {
		return nil
	}
	return j.sink.Flush()
}

// writeEventJSON emits one event as a single JSON object without
// reflection (the JSONL sink sits on the tracing hot path).
func writeEventJSON(w io.Writer, e *Event, names []string) {
	fmt.Fprintf(w, `{"kind":%q,"sim":%.12e,"wall_ns":%d`, e.Kind.String(), e.Sim, e.Wall)
	if e.Kind == KindSpan {
		name := fmt.Sprintf("span#%d", e.Junc)
		if int(e.Junc) >= 0 && int(e.Junc) < len(names) {
			name = names[e.Junc]
		}
		fmt.Fprintf(w, `,"name":%q,"dur_ns":%d`, name, e.Dur)
	} else if e.Junc != 0 || e.Kind == KindTunnel || e.Kind == KindAdaptiveTest {
		fmt.Fprintf(w, `,"junc":%d`, e.Junc)
	}
	if e.A != 0 || e.B != 0 {
		fmt.Fprintf(w, `,"a":%d,"b":%d`, e.A, e.B)
	}
	if e.V1 != 0 || e.V2 != 0 {
		fmt.Fprintf(w, `,"v1":%g,"v2":%g`, e.V1, e.V2)
	}
	io.WriteString(w, "}")
}
