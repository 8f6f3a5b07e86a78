package solver

import (
	"testing"

	"semsim/internal/circuit"
	"semsim/internal/invariant"
)

// Hot-path cost gates for the per-event loop. BenchmarkStepHotPath
// measures a full Step (flush, sample, apply, recompute) in the
// production configuration — serial, non-adaptive, tabulated kernels —
// and TestStepHotPathZeroAlloc turns its allocation count into a hard
// CI gate: the steady-state event loop must never touch the garbage
// collector. The sharded-recompute benchmarks pin the exact-vs-table
// kernel cost side by side, so a table regression (the interpolation
// path coming out slower than closed-form evaluation, as the old
// searched-PCHIP kernel did) is visible in `go test -bench` output
// rather than only in the end-to-end BENCH report.

// hotChain builds a conducting chain of n islands between two biased
// leads — every junction live, so a non-adaptive Step recomputes 2(n+1)
// rates, which is the workload shape of the large benchmarks.
func hotChain(tb testing.TB, n int) *circuit.Circuit {
	tb.Helper()
	c := circuit.New()
	l0 := c.AddNode("l0", circuit.External)
	l1 := c.AddNode("l1", circuit.External)
	c.SetSource(l0, circuit.DC(0.03))
	c.SetSource(l1, circuit.DC(-0.03))
	prev := l0
	for i := 0; i < n; i++ {
		isl := c.AddNode("", circuit.Island)
		c.AddJunction(prev, isl, 1e6, 10*aF) // Ec ~ 8 mV: conducting at this bias
		prev = isl
	}
	c.AddJunction(prev, l1, 1e6, 10*aF)
	if err := c.Build(); err != nil {
		tb.Fatal(err)
	}
	return c
}

func benchStep(b *testing.B, opt Options) {
	s, err := New(hotChain(b, 16), opt)
	if err != nil {
		b.Fatal(err)
	}
	// Prime past the cold start (first flush grows the pending arrays to
	// their steady-state capacity).
	if _, err := s.Run(64, 0); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStepHotPath(b *testing.B) {
	benchStep(b, Options{Temp: 2, Seed: 7, RateTables: true})
}

func BenchmarkStepHotPathExact(b *testing.B) {
	benchStep(b, Options{Temp: 2, Seed: 7})
}

func BenchmarkStepHotPathAdaptive(b *testing.B) {
	benchStep(b, Options{Temp: 2, Seed: 7, RateTables: true, Adaptive: true, RefreshEvery: 1024})
}

// benchRecompute times one full junction-rate recomputation —
// the inner loop that dominates non-adaptive cost on the large
// benchmarks — without the surrounding event machinery.
func benchRecompute(b *testing.B, opt Options) {
	s, err := New(hotChain(b, 128), opt)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.refreshAllJunctions()
	}
}

func BenchmarkRecomputeTables(b *testing.B) {
	benchRecompute(b, Options{Temp: 2, Seed: 7, RateTables: true})
}

func BenchmarkRecomputeExact(b *testing.B) {
	benchRecompute(b, Options{Temp: 2, Seed: 7})
}

// TestStepHotPathZeroAlloc is the CI gate: the steady-state event loop
// must run allocation-free in every engine configuration — exact and
// tabulated kernels, non-adaptive and adaptive maintenance.
func TestStepHotPathZeroAlloc(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmarking under -short")
	}
	if invariant.Enabled {
		t.Skip("semsimdebug invariant checks allocate scratch buffers by design")
	}
	benches := map[string]func(*testing.B){
		"Tables":   BenchmarkStepHotPath,
		"Exact":    BenchmarkStepHotPathExact,
		"Adaptive": BenchmarkStepHotPathAdaptive,
	}
	for name, fn := range benches {
		res := testing.Benchmark(fn)
		if allocs := res.AllocsPerOp(); allocs != 0 {
			t.Errorf("StepHotPath%s: %d allocs/op, want 0 (event loop must be allocation-free)", name, allocs)
		}
	}
}

// TestTablesNotSlowerThanExact pins the satellite regression: with the
// flat uniform-grid kernel, routing rates through the tables must never
// cost more than exact evaluation. Timing asserts are flaky on shared
// machines, so the gate is generous — tables must reach at least 80% of
// exact recompute throughput, where the expected ratio is well above 1.
func TestTablesNotSlowerThanExact(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmarking under -short")
	}
	exact := testing.Benchmark(BenchmarkRecomputeExact)
	tables := testing.Benchmark(BenchmarkRecomputeTables)
	if tables.NsPerOp() > exact.NsPerOp()*5/4 {
		t.Errorf("tabulated recompute slower than exact: %d ns/op vs %d ns/op",
			tables.NsPerOp(), exact.NsPerOp())
	}
}
