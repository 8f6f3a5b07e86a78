package main

import (
	"encoding/json"
	"os"
	"strings"
	"time"
)

// tracer keeps the benchmark's own spans — one around each call into a
// layer of the program — in memory, and writes them as a Chrome trace
// when the run ends. A nil *tracer still measures, because the untraced
// run needs the durations too, but records nothing.
type tracer struct {
	epoch time.Time
	rep   int // repetition the next spans belong to
	spans []span
	open  []int // indices of the spans currently running, innermost last
}

// span is one timed call: parent is the index of the enclosing span
// (-1 at top level), so a layer's self time is its duration minus its
// children's.
type span struct {
	name       string
	rep        int
	parent     int
	start, dur time.Duration
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// timed runs fn as the span name and returns its duration in seconds.
func (t *tracer) timed(name string, fn func() error) (float64, error) {
	id := -1
	if t != nil {
		parent := -1
		if n := len(t.open); n > 0 {
			parent = t.open[n-1]
		}
		id = len(t.spans)
		t.spans = append(t.spans, span{name: name, rep: t.rep, parent: parent})
		t.open = append(t.open, id)
	}
	start := time.Now()
	err := fn()
	d := time.Since(start)
	if t != nil {
		t.spans[id].start = start.Sub(t.epoch)
		t.spans[id].dur = d
		t.open = t.open[:len(t.open)-1]
	}
	return d.Seconds(), err
}

// write stores the spans as a Chrome trace_event document: one complete
// event per span, categorized by the layer (the name up to the first
// dot), with the repetition and the parent span in args.
func (t *tracer) write(path string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	evs := make([]event, 0, len(t.spans))
	for i, s := range t.spans {
		layer, _, _ := strings.Cut(s.name, ".")
		evs = append(evs, event{
			Name: s.name, Cat: layer, Ph: "X",
			TS:  float64(s.start) / 1e3,
			Dur: float64(s.dur) / 1e3,
			PID: 1, TID: 1,
			Args: map[string]any{"rep": s.rep, "span": i, "parent": s.parent},
		})
	}
	blob, err := json.Marshal(map[string]any{"displayTimeUnit": "ms", "traceEvents": evs})
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}
