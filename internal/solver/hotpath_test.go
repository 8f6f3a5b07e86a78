package solver

import (
	"testing"

	"semsim/internal/circuit"
	"semsim/internal/invariant"
)

// Hot-path cost gates for the per-event loop. BenchmarkStepHotPath
// measures a full Step (flush, sample, apply, recompute) in the
// production configuration — serial, non-adaptive, tabulated kernels —
// and its siblings cover every other rate kernel and maintenance path.
// TestStepHotPathZeroAlloc turns their allocation counts into a hard
// CI gate: the steady-state event loop must never touch the garbage
// collector. The recompute benchmarks pin the exact-vs-table kernel
// cost side by side, so a table regression (the interpolation path
// coming out slower than closed-form evaluation, as the old
// searched-PCHIP kernel did) fails TestTablesNotSlowerThanExact.

// hotChain builds a conducting chain of n islands between leads at
// +-0.2 V, above its Coulomb-blockade threshold as the T = 0 chain is —
// every junction live, so a non-adaptive Step recomputes 2(n+1) rates,
// which is the workload shape of the large benchmarks.
func hotChain(tb testing.TB, n int) *circuit.Circuit {
	return biasedChain(tb, n, 0.2, nil)
}

// biasedChain builds a chain of n islands between leads at +v and -v;
// a non-nil gate source drives a capacitor onto the middle island.
func biasedChain(tb testing.TB, n int, v float64, gate circuit.Source) *circuit.Circuit {
	tb.Helper()
	c := circuit.New()
	l0 := c.AddNode("l0", circuit.External)
	l1 := c.AddNode("l1", circuit.External)
	c.SetSource(l0, circuit.DC(v))
	c.SetSource(l1, circuit.DC(-v))
	prev := l0
	mid := -1
	for i := 0; i < n; i++ {
		isl := c.AddNode("", circuit.Island)
		c.AddJunction(prev, isl, 1e6, 10*aF) // Ec ~ 8 mV per island
		if i == n/2 {
			mid = isl
		}
		prev = isl
	}
	c.AddJunction(prev, l1, 1e6, 10*aF)
	if gate != nil {
		g := c.AddNode("g", circuit.External)
		c.SetSource(g, gate)
		c.AddCap(g, mid, 5*aF)
	}
	if err := c.Build(); err != nil {
		tb.Fatal(err)
	}
	return c
}

func benchStep(b *testing.B, c *circuit.Circuit, opt Options) {
	s, err := New(c, opt)
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
	benchStep(b, hotChain(b, 16), Options{Temp: 2, Seed: 7, RateTables: true})
}

func BenchmarkStepHotPathExact(b *testing.B) {
	benchStep(b, hotChain(b, 16), Options{Temp: 2, Seed: 7})
}

func BenchmarkStepHotPathAdaptive(b *testing.B) {
	benchStep(b, hotChain(b, 16), Options{Temp: 2, Seed: 7, RateTables: true, Adaptive: true, RefreshEvery: 1024})
}

func BenchmarkStepHotPathCotunnelExact(b *testing.B) {
	benchStep(b, hotChain(b, 16), Options{Temp: 2, Seed: 7, Cotunneling: true})
}

func BenchmarkStepHotPathCotunnelTables(b *testing.B) {
	benchStep(b, hotChain(b, 16), Options{Temp: 2, Seed: 7, Cotunneling: true, RateTables: true})
}

// BenchmarkStepHotPathSuper steps the Fig. 5 SSET at its JQP
// resonance, where quasi-particle and Cooper-pair events both fire.
func BenchmarkStepHotPathSuper(b *testing.B) {
	c, _ := fig5SSET(1.1e-3, 0.002, 0.65)
	benchStep(b, c, Options{Temp: 0.52, Seed: 7})
}

// BenchmarkStepHotPathT0 steps the T = 0 kernel on a chain biased above
// its blockade threshold.
func BenchmarkStepHotPathT0(b *testing.B) {
	benchStep(b, biasedChain(b, 16, 0.2, nil), Options{Seed: 7})
}

// BenchmarkStepHotPathDriven steps an adaptive chain whose gate follows
// a sine fast enough that about two steps in five are capped: events
// run the BFS spill and capped steps fold the input change into the
// testing factors.
func BenchmarkStepHotPathDriven(b *testing.B) {
	gate := circuit.Sine{Amp: 0.02, Freq: 1e10}
	benchStep(b, biasedChain(b, 16, 0.1, gate), Options{Temp: 2, Seed: 7, RateTables: true, Adaptive: true})
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
		s.recalcJunctions(s.allJunc)
	}
}

func BenchmarkRecomputeTables(b *testing.B) {
	benchRecompute(b, Options{Temp: 2, Seed: 7, RateTables: true})
}

func BenchmarkRecomputeExact(b *testing.B) {
	benchRecompute(b, Options{Temp: 2, Seed: 7})
}

// TestStepHotPathZeroAlloc is the CI gate: the steady-state event loop
// must run allocation-free in every engine configuration — exact,
// tabulated, T = 0 and superconducting kernels, cotunneling channels,
// non-adaptive and adaptive maintenance, and input changes.
func TestStepHotPathZeroAlloc(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmarking under -short")
	}
	if invariant.Enabled {
		t.Skip("semsimdebug invariant checks allocate scratch buffers by design")
	}
	benches := map[string]func(*testing.B){
		"Tables":         BenchmarkStepHotPath,
		"Exact":          BenchmarkStepHotPathExact,
		"Adaptive":       BenchmarkStepHotPathAdaptive,
		"CotunnelExact":  BenchmarkStepHotPathCotunnelExact,
		"CotunnelTables": BenchmarkStepHotPathCotunnelTables,
		"Super":          BenchmarkStepHotPathSuper,
		"T0":             BenchmarkStepHotPathT0,
		"Driven":         BenchmarkStepHotPathDriven,
	}
	for name, fn := range benches {
		res := testing.Benchmark(fn)
		if allocs := res.AllocsPerOp(); allocs != 0 {
			t.Errorf("StepHotPath%s: %d allocs/op, want 0 (event loop must be allocation-free)", name, allocs)
		}
	}
}

// TestTablesNotSlowerThanExact is the live check behind RateTables:
// with the flat uniform-grid kernel, routing rates through the tables
// must never cost more than exact evaluation. Timing asserts are flaky
// on shared machines, so the gate is generous — tables must reach at
// least 80% of exact recompute throughput, where the expected ratio is
// well above 1.
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
