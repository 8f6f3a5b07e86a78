package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

func TestObserverNilSafety(t *testing.T) {
	var o *Observer
	// Every hook and accessor must be a no-op on a nil receiver.
	o.Event(KindTunnel, 1, 1e-9, -1e-21)
	o.RateCalcs(10)
	o.AdaptiveTest(1, 1, 2, true, 0, 0)
	o.Adaptive(1, 3, 1, 0)
	o.Recomputed([]int{1, 2})
	o.FullRefresh(0)
	o.InputChange(2, 1, 0)
	o.FenwickFlush(5, true, 0)
	o.Span("x", 0).End()
	if o.Registry() != nil || o.Journal() != nil || o.Tracing() || o.Heatmap() != nil {
		t.Fatal("nil observer leaked non-nil state")
	}
}

func TestObserverCounters(t *testing.T) {
	o := New(Config{})
	o.Event(KindTunnel, 1, 1e-9, -0.5)
	o.Event(KindCotunnel, 2, 2e-9, -0.25)
	o.Event(KindCooper, 3, 3e-9, -0.125)
	o.RateCalcs(100)
	o.Adaptive(1, 5, 2, 3e-9)
	o.Recomputed([]int{4, 4, 9})
	o.FullRefresh(3e-9)
	o.InputChange(7, 3, 3e-9)
	o.FenwickFlush(12, true, 3e-9)
	o.FenwickFlush(0, false, 3e-9) // empty flush: not recorded

	s := o.Registry().Snapshot()
	checks := map[string]uint64{
		"solver.events":              3,
		"solver.cotunnel_events":     1,
		"solver.cooper_events":       1,
		"solver.rate_calcs":          100,
		"solver.adaptive_tested":     12, // 5 by the spill, 7 by the input-change fold
		"solver.adaptive_flagged":    5,
		"solver.adaptive_recomputes": 3,
		"solver.full_refreshes":      1,
		"solver.input_changes":       1,
		"solver.fenwick_rebuilds":    1,
	}
	for name, want := range checks {
		if got := s.Counters[name]; got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if got := s.Gauges["solver.sim_time_s"]; got != 3e-9 {
		t.Errorf("sim_time = %v", got)
	}
	if got := s.Gauges["solver.dissipated_j"]; got != 0.875 {
		t.Errorf("dissipated = %v, want 0.875", got)
	}
	if got := s.Histograms["solver.fenwick_flush_batch"].Count; got != 1 {
		t.Errorf("flush hist count = %d, want 1 (empty flush must not count)", got)
	}

	heat := o.Heatmap()
	if len(heat) != 10 || heat[4] != 2 || heat[9] != 1 {
		t.Errorf("heatmap = %v", heat)
	}
}

func TestObserverTracingJournal(t *testing.T) {
	o := New(Config{Trace: true})
	if !o.Tracing() {
		t.Fatal("Tracing() false with journal on")
	}
	o.Event(KindTunnel, 1, 1e-9, 0)
	o.AdaptiveTest(2, 1e-22, 2e-22, false, 1, 1e-9)
	o.Adaptive(1, 4, 1, 1e-9)
	o.FullRefresh(2e-9)
	kinds := []Kind{}
	for _, e := range o.Journal().Events() {
		kinds = append(kinds, e.Kind)
	}
	want := []Kind{KindTunnel, KindAdaptiveTest, KindAdaptive, KindRefresh}
	if len(kinds) != len(want) {
		t.Fatalf("journal kinds = %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("journal kinds = %v, want %v", kinds, want)
		}
	}
}

func TestGlobalObserver(t *testing.T) {
	if Global() != nil {
		t.Fatal("global observer should start nil")
	}
	o := New(Config{})
	SetGlobal(o)
	defer SetGlobal(nil)
	if Global() != o {
		t.Fatal("SetGlobal/Global mismatch")
	}
	GlobalSpan("x").End()
	if o.reg.Histogram("span.x.ns", spanBuckets).Count() != 1 {
		t.Fatal("GlobalSpan did not record on installed observer")
	}
	SetGlobal(nil)
	GlobalSpan("x").End() // must not panic
}

func TestSpanTiming(t *testing.T) {
	o := New(Config{Trace: true})
	sp := o.Span("phase", 1e-9)
	time.Sleep(2 * time.Millisecond)
	sp.End()
	h := o.reg.Histogram("span.phase.ns", spanBuckets)
	if h.Count() != 1 || h.Sum() < float64(time.Millisecond) {
		t.Fatalf("span histogram count=%d sum=%v", h.Count(), h.Sum())
	}
	ev := o.Journal().Events()
	if len(ev) != 1 || ev[0].Kind != KindSpan || ev[0].Dur <= 0 {
		t.Fatalf("span journal event = %+v", ev)
	}
	if names := o.Journal().names; names[ev[0].Junc] != "phase" {
		t.Fatalf("span name = %q", names[ev[0].Junc])
	}
}

func TestHeatmapSummary(t *testing.T) {
	heat := make([]uint32, 20)
	heat[3] = 90
	heat[4] = 8
	heat[11] = 2
	s := SummarizeHeatmap(heat)
	if s.Junctions != 20 || s.Total != 100 || s.Max != 90 || s.MaxJunc != 3 || s.NonZero != 3 {
		t.Fatalf("summary = %+v", s)
	}
	// Hottest 10% (2 junctions: 90+8) carry 98% of recomputes.
	if s.Top10Share != 0.98 {
		t.Fatalf("Top10Share = %v, want 0.98", s.Top10Share)
	}
	empty := SummarizeHeatmap(nil)
	if empty.Junctions != 0 || empty.Total != 0 || empty.MaxJunc != -1 {
		t.Fatalf("empty summary = %+v", empty)
	}
}

func TestServeEndpoints(t *testing.T) {
	o := New(Config{Trace: true})
	o.Event(KindTunnel, 1, 1e-9, -1e-21)
	o.Recomputed([]int{0, 1, 1})
	srv, err := Serve("127.0.0.1:0", o)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) string {
		resp, err := http.Get("http://" + srv.Addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	var snap Snapshot
	if err := json.Unmarshal([]byte(get("/metrics")), &snap); err != nil {
		t.Fatalf("/metrics not JSON: %v", err)
	}
	if snap.Counters["solver.events"] != 1 {
		t.Fatalf("/metrics events = %d", snap.Counters["solver.events"])
	}
	if _, ok := snap.Gauges["runtime.goroutines"]; !ok {
		t.Fatal("/metrics missing runtime.goroutines gauge func")
	}

	trace := get("/trace")
	if !strings.Contains(trace, `"traceEvents"`) {
		t.Fatalf("/trace = %s", trace)
	}

	var heat struct {
		Summary HeatmapSummary `json:"summary"`
		Counts  []uint32       `json:"counts"`
	}
	if err := json.Unmarshal([]byte(get("/heatmap")), &heat); err != nil {
		t.Fatalf("/heatmap not JSON: %v", err)
	}
	if heat.Summary.Total != 3 || len(heat.Counts) != 2 || heat.Counts[1] != 2 {
		t.Fatalf("/heatmap = %+v", heat)
	}

	if !strings.Contains(get("/debug/pprof/"), "profile") {
		t.Fatal("/debug/pprof/ index missing")
	}
	if !strings.Contains(get("/"), "/metrics") {
		t.Fatal("index page missing links")
	}

	if _, err := Serve("127.0.0.1:0", nil); err == nil {
		t.Fatal("Serve(nil observer) should error")
	}
}

func TestProgressReporter(t *testing.T) {
	o := New(Config{Trace: true})
	var buf bytes.Buffer
	p := StartProgress(o, &buf, 5*time.Millisecond, 2e-6)
	o.Event(KindTunnel, 0, 1e-6, 0) // 50% of target
	time.Sleep(25 * time.Millisecond)
	p.Stop()
	out := buf.String()
	if !strings.Contains(out, "ev/s") || !strings.Contains(out, "sim 1e-06 s") {
		t.Fatalf("progress output missing fields:\n%s", out)
	}
	if !strings.Contains(out, "50.0%") {
		t.Fatalf("progress output missing percentage:\n%s", out)
	}
	if !strings.Contains(out, "eta ") {
		t.Fatalf("progress output missing eta:\n%s", out)
	}
	found := false
	for _, e := range o.Journal().Events() {
		if e.Kind == KindProgress {
			found = true
		}
	}
	if !found {
		t.Fatal("progress samples not journaled")
	}

	// Nil-safety.
	StartProgress(nil, &buf, time.Millisecond, 0).Stop()
	StartProgress(o, nil, time.Millisecond, 0).Stop()
}

func TestGroupDigits(t *testing.T) {
	cases := map[uint64]string{0: "0", 999: "999", 1000: "1,000", 1234567: "1,234,567"}
	for n, want := range cases {
		if got := groupDigits(n); got != want {
			t.Errorf("groupDigits(%d) = %q, want %q", n, got, want)
		}
	}
	rates := map[float64]string{50: "50", 4500: "4.5k", 2.5e6: "2.50M"}
	for r, want := range rates {
		if got := fmtRate(r); got != want {
			t.Errorf("fmtRate(%v) = %q, want %q", r, got, want)
		}
	}
}

func TestKindString(t *testing.T) {
	for k := KindTunnel; k <= KindProgress; k++ {
		if k.String() == "unknown" {
			t.Fatalf("kind %d has no name", k)
		}
	}
	if Kind(0).String() != "unknown" || Kind(200).String() != "unknown" {
		t.Fatal("out-of-range kinds should be unknown")
	}
}

func ExampleRegistry_WriteJSON() {
	r := NewRegistry()
	r.Counter("events").Add(2)
	var sb strings.Builder
	r.WriteJSON(&sb)
	fmt.Print(strings.Contains(sb.String(), `"events": 2`))
	// Output: true
}
