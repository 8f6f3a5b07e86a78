package obs

import "testing"

// The disabled-observer hot path must cost zero allocations: solver
// hooks fire per tunnel event (millions per run), so anything the
// garbage collector can see would show up directly in events/s. The
// benchmarks below exercise every hook a Sim calls on its hot path
// through a nil *Observer; TestObsDisabledZeroAlloc turns them into a
// hard test gate (run in CI), and `go test -bench=ObsDisabled
// -benchmem` reports the same numbers interactively.

//go:noinline
func nilObserver() *Observer { return nil }

func BenchmarkObsDisabledEvent(b *testing.B) {
	o := nilObserver()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		o.Event(KindTunnel, i&1023, 1e-9, -1e-21)
	}
}

func BenchmarkObsDisabledAdaptive(b *testing.B) {
	o := nilObserver()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		o.Adaptive(i&1023, 5, 1, 1e-9)
		o.RateCalcs(10)
	}
}

func BenchmarkObsDisabledFenwickFlush(b *testing.B) {
	o := nilObserver()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		o.FenwickFlush(i&63, i&1 == 0, 1e-9)
	}
}

func BenchmarkObsDisabledSpan(b *testing.B) {
	o := nilObserver()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		o.Span("fullRefresh", 1e-9).End()
	}
}

func BenchmarkObsDisabledRecomputed(b *testing.B) {
	o := nilObserver()
	flagged := []int{1, 2, 3, 4}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		o.Recomputed(flagged)
	}
}

func BenchmarkObsDisabledEventTouched(b *testing.B) {
	o := nilObserver()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		o.EventTouched(i & 1023)
		o.CinvBound(1e-9)
	}
}

// BenchmarkObsEnabledEvent is the enabled counterpart of
// BenchmarkObsDisabledEvent: metrics on, tracing off. It must also
// stay allocation-free.
func BenchmarkObsEnabledEvent(b *testing.B) {
	o := New(Config{})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		o.Event(KindTunnel, i&1023, 1e-9, -1e-21)
	}
}

// TestObsDisabledZeroAlloc is the CI gate: every disabled-path hook
// must report exactly 0 allocs/op.
func TestObsDisabledZeroAlloc(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmarking under -short")
	}
	benches := map[string]func(*testing.B){
		"Event":        BenchmarkObsDisabledEvent,
		"Adaptive":     BenchmarkObsDisabledAdaptive,
		"FenwickFlush": BenchmarkObsDisabledFenwickFlush,
		"Span":         BenchmarkObsDisabledSpan,
		"Recomputed":   BenchmarkObsDisabledRecomputed,
		"EventTouched": BenchmarkObsDisabledEventTouched,
		"EnabledEvent": BenchmarkObsEnabledEvent,
	}
	for name, fn := range benches {
		res := testing.Benchmark(fn)
		if allocs := res.AllocsPerOp(); allocs != 0 {
			t.Errorf("%s: %d allocs/op, want 0 (hot path must be allocation-free)", name, allocs)
		}
	}
}
