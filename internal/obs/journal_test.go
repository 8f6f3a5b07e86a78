package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestJournalRetainsAll(t *testing.T) {
	j := NewJournal(8, nil)
	for i := 0; i < 5; i++ {
		j.Record(Event{Kind: KindTunnel, Junc: int32(i)})
	}
	ev := j.Events()
	if len(ev) != 5 || j.Total() != 5 {
		t.Fatalf("len=%d total=%d, want 5/5", len(ev), j.Total())
	}
	for i, e := range ev {
		if e.Junc != int32(i) {
			t.Fatalf("event %d has junc %d", i, e.Junc)
		}
	}
}

func TestJournalWraparound(t *testing.T) {
	const capN = 8
	j := NewJournal(capN, nil)
	// Record 3 full rings plus a remainder; only the newest capN survive,
	// in recording order.
	const total = 3*capN + 5
	for i := 0; i < total; i++ {
		j.Record(Event{Kind: KindTunnel, Junc: int32(i)})
	}
	if j.Total() != total {
		t.Fatalf("total = %d, want %d", j.Total(), total)
	}
	ev := j.Events()
	if len(ev) != capN {
		t.Fatalf("retained = %d, want %d", len(ev), capN)
	}
	for i, e := range ev {
		want := int32(total - capN + i)
		if e.Junc != want {
			t.Fatalf("retained[%d].Junc = %d, want %d (ordering broken across wrap)", i, e.Junc, want)
		}
	}
}

func TestJournalWraparoundExactBoundary(t *testing.T) {
	const capN = 4
	j := NewJournal(capN, nil)
	for i := 0; i < 2*capN; i++ { // lands exactly on a ring boundary
		j.Record(Event{Junc: int32(i)})
	}
	ev := j.Events()
	for i, e := range ev {
		if want := int32(capN + i); e.Junc != want {
			t.Fatalf("retained[%d].Junc = %d, want %d", i, e.Junc, want)
		}
	}
}

func TestJournalMinCapacity(t *testing.T) {
	j := NewJournal(0, nil) // clamped to 1
	j.Record(Event{Junc: 1})
	j.Record(Event{Junc: 2})
	ev := j.Events()
	if len(ev) != 1 || ev[0].Junc != 2 {
		t.Fatalf("cap-1 ring retained %+v, want just junc 2", ev)
	}
}

func TestJournalJSONLSink(t *testing.T) {
	var sb strings.Builder
	j := NewJournal(2, &sb)
	id := j.internName("refresh")
	j.Record(Event{Kind: KindTunnel, Junc: 3, Sim: 1e-9, V1: -2e-21})
	j.Record(Event{Kind: KindSpan, Junc: id, Wall: 100, Dur: 50})
	j.Record(Event{Kind: KindAdaptive, Junc: 1, A: 7, B: 2, Sim: 2e-9})
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("sink lines = %d, want 3 (ring overwrites must not drop sink lines):\n%s", len(lines), sb.String())
	}
	if !strings.Contains(lines[0], `"kind":"tunnel"`) || !strings.Contains(lines[0], `"junc":3`) {
		t.Fatalf("line 0 = %s", lines[0])
	}
	if !strings.Contains(lines[1], `"name":"refresh"`) || !strings.Contains(lines[1], `"dur_ns":50`) {
		t.Fatalf("line 1 = %s", lines[1])
	}
	if !strings.Contains(lines[2], `"a":7,"b":2`) {
		t.Fatalf("line 2 = %s", lines[2])
	}
}

func TestSpanNameInterning(t *testing.T) {
	j := NewJournal(4, nil)
	a := j.internName("alpha")
	b := j.internName("beta")
	if a2 := j.internName("alpha"); a2 != a {
		t.Fatalf("re-intern gave %d, want %d", a2, a)
	}
	if len(j.names) != 2 || j.names[a] != "alpha" || j.names[b] != "beta" {
		t.Fatalf("name table %q, want alpha at %d and beta at %d", j.names, a, b)
	}
}

// Drop accounting flows into the registry counter and the single-run
// Chrome export's note.
func TestJournalDropAccounting(t *testing.T) {
	r := NewRegistry()
	j := NewJournal(4, nil)
	j.CountDrops(r.Counter("obs.journal_dropped_events"))
	for i := 0; i < 10; i++ {
		j.Record(Event{Kind: KindTunnel, Junc: 1, Wall: int64(i)})
	}
	if got := j.Dropped(); got != 6 {
		t.Fatalf("Dropped = %d, want 6", got)
	}
	if got := r.Snapshot().Counters["obs.journal_dropped_events"]; got != 6 {
		t.Fatalf("registry dropped counter = %d, want 6", got)
	}
	var buf bytes.Buffer
	if err := j.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"journal_dropped"`) ||
		!strings.Contains(buf.String(), `"dropped_events":6`) {
		t.Fatalf("chrome export missing dropped note:\n%s", buf.String())
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("invalid JSON with dropped note:\n%s", buf.String())
	}
}
