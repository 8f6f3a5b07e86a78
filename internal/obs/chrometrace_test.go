package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// fixedTraceEvents is a hand-built journal slice covering every event
// kind, with fixed timestamps so the export is reproducible.
func fixedTraceEvents() ([]Event, []string) {
	names := []string{"fullRefresh", "sweep.point"}
	events := []Event{
		{Kind: KindRefresh, Sim: 0, Wall: 10},
		{Kind: KindTunnel, Junc: 3, Sim: 1.25e-9, V1: -3.2e-21, Wall: 1200},
		{Kind: KindAdaptiveTest, Junc: 4, A: 1, B: 0, Sim: 1.25e-9, V1: 2.5e-22, V2: 1.1e-22, Wall: 1300},
		{Kind: KindAdaptiveTest, Junc: 5, A: 0, B: 1, Sim: 1.25e-9, V1: 0.4e-22, V2: 1.3e-22, Wall: 1350},
		{Kind: KindAdaptive, Junc: 3, A: 5, B: 1, Sim: 1.25e-9, Wall: 1400},
		{Kind: KindFenwick, A: 6, B: 0, Sim: 1.25e-9, Wall: 1500},
		{Kind: KindCotunnel, Junc: 7, Sim: 2.5e-9, V1: -1e-21, Wall: 2600},
		{Kind: KindCooper, Junc: 2, Sim: 3e-9, V1: -5e-22, Wall: 3100},
		{Kind: KindInputChange, A: 12, B: 40, Sim: 4e-9, Wall: 4100},
		{Kind: KindFenwick, A: 40, B: 1, Sim: 4e-9, Wall: 4200},
		{Kind: KindSpan, Junc: 0, Sim: 5e-9, Wall: 5000, Dur: 750},
		{Kind: KindNoiseWindow, Junc: 3, A: 2, Sim: 5.5e-9, V1: 1.5, Wall: 5600},
		{Kind: KindProgress, Sim: 5e-9, V1: 1000, V2: 250000, Wall: 6000},
		{Kind: KindSpan, Junc: 1, Sim: 0, Wall: 100, Dur: 9000},
	}
	return events, names
}

func TestChromeTraceGolden(t *testing.T) {
	events, names := fixedTraceEvents()
	var buf bytes.Buffer
	if err := writeChromeTrace(&buf, events, names, 0); err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "chrome_trace.golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("chrome trace drifted from golden (run with -update if intentional)\ngot:\n%s", buf.String())
	}
}

// TestChromeTraceWellFormed parses the export as JSON and checks the
// trace_event schema essentials, independent of the golden bytes.
func TestChromeTraceWellFormed(t *testing.T) {
	events, names := fixedTraceEvents()
	var buf bytes.Buffer
	if err := writeChromeTrace(&buf, events, names, 0); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	// 2 thread_name metadata records + one record per journal event.
	if want := 2 + len(events); len(doc.TraceEvents) != want {
		t.Fatalf("traceEvents = %d, want %d", len(doc.TraceEvents), want)
	}
	seen := map[Kind]bool{}
	for _, e := range events {
		seen[e.Kind] = true
	}
	for k := KindTunnel; k <= KindNoiseWindow; k++ {
		if !seen[k] {
			t.Errorf("fixedTraceEvents omits kind %v", k)
		}
	}
	phases := map[string]int{}
	for _, ev := range doc.TraceEvents {
		ph, _ := ev["ph"].(string)
		phases[ph]++
		if ph == "" || ev["pid"] == nil {
			t.Fatalf("malformed record: %v", ev)
		}
		if ev["name"] == "unknown" {
			t.Errorf("record exported without a name: %v", ev)
		}
	}
	if phases["M"] != 2 {
		t.Fatalf("metadata records = %d, want 2", phases["M"])
	}
	if phases["X"] != 2 {
		t.Fatalf("span (X) records = %d, want 2", phases["X"])
	}
	if phases["C"] != 1 {
		t.Fatalf("counter (C) records = %d, want 1", phases["C"])
	}
}

func TestChromeTraceFromJournal(t *testing.T) {
	o := New(Config{Trace: true})
	o.Event(KindTunnel, 2, 1e-9, -1e-21)
	sp := o.Span("fullRefresh", 1e-9)
	sp.End()
	var buf bytes.Buffer
	if err := o.Journal().WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"name":"fullRefresh"`)) {
		t.Fatalf("span name not resolved in export:\n%s", buf.String())
	}
	var j *Journal
	if err := j.WriteChromeTrace(&buf); err == nil {
		t.Fatal("nil journal export should error")
	}
}
