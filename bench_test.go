package semsim

import (
	"testing"

	"semsim/internal/bench"
	"semsim/internal/logicnet"
	"semsim/internal/solver"
	"semsim/internal/units"
)

// One testing.B benchmark per figure of the paper's evaluation. Each
// measures the computational cost of the simulation underlying that
// figure; `go run ./cmd/experiments` regenerates the figures' actual
// data series (see EXPERIMENTS.md).

// BenchmarkFig1b: one I-V point of the normal-state SET of Fig. 1b
// (T = 5 K, R = 1 MOhm, C = 1 aF, Cg = 3 aF), 5000 tunnel events.
func BenchmarkFig1b(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c, nd := NewSET(SETConfig{
			R1: 1e6, C1: aF, R2: 1e6, C2: aF, Cg: 3 * aF,
			Vs: 0.02, Vd: -0.02, Vg: 0.01,
		})
		s, err := NewSim(c, Options{Temp: 5, Seed: uint64(i)})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Run(5000, 0); err != nil {
			b.Fatal(err)
		}
		_ = s.JunctionCurrent(nd.JuncDrain)
	}
}

// BenchmarkFig1c: one I-V point of the superconducting SET of Fig. 1c
// (T = 50 mK, Delta(0) = 0.2 meV, Tc = 1.2 K). The quasi-particle
// tables are built once outside the timed loop, as they are in a sweep.
func BenchmarkFig1c(b *testing.B) {
	mk := func(seed uint64) (*Sim, SETNodes) {
		c, nd := NewSET(SETConfig{
			R1: 1e6, C1: aF, R2: 1e6, C2: aF, Cg: 3 * aF,
			Vs: 0.02, Vd: -0.02,
			Super: SuperParams{GapAt0: units.MeV(0.2), Tc: 1.2},
		})
		s, err := NewSim(c, Options{Temp: 0.05, Seed: seed})
		if err != nil {
			b.Fatal(err)
		}
		return s, nd
	}
	s, _ := mk(0) // warm table-build path
	_ = s
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, nd := mk(uint64(i))
		if _, err := s.Run(3000, 1e-4); err != nil && err != ErrBlockaded {
			b.Fatal(err)
		}
		_ = s.JunctionCurrent(nd.JuncDrain)
	}
}

// BenchmarkFig5: one pixel of the Fig. 5 stability map (Manninen-style
// SSET at 0.52 K with background charge 0.65 e): 4000 events including
// Cooper-pair and quasi-particle channels.
func BenchmarkFig5(b *testing.B) {
	mk := func(seed uint64) (*Sim, SETNodes) {
		c, nd := NewSET(SETConfig{
			R1: 210e3, C1: 110 * aF, R2: 210e3, C2: 110 * aF, Cg: 14 * aF,
			Vs: 1.1e-3, Vd: 0, Vg: 0.002, Qb: 0.65 * units.E,
			Super: SuperParams{GapAt0: units.MeV(0.23), Tc: 1.4},
		})
		s, err := NewSim(c, Options{Temp: 0.52, Seed: seed})
		if err != nil {
			b.Fatal(err)
		}
		return s, nd
	}
	s, _ := mk(0)
	_ = s
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, nd := mk(uint64(i))
		if _, err := s.Run(4000, 1e-3); err != nil && err != ErrBlockaded {
			b.Fatal(err)
		}
		_ = s.JunctionCurrent(nd.JuncDrain)
	}
}

// Fig. 6 benchmarks: solver cost per tunnel event on a mid-size logic
// benchmark (74LS153, 224 junctions), for the three methods the figure
// compares. The full 15-benchmark scaling run is cmd/experiments fig6.

func fig6Workload(b *testing.B) *logicnet.Expanded {
	b.Helper()
	bm, ok := bench.ByName("74LS153")
	if !ok {
		b.Fatal("missing benchmark")
	}
	ex, err := bench.BuildWorkload(bm, logicnet.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	return ex
}

// BenchmarkFig6NonAdaptive measures the conventional solver.
func BenchmarkFig6NonAdaptive(b *testing.B) {
	ex := fig6Workload(b)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, err := solver.New(ex.Circuit, Options{Temp: bench.WorkloadTemp, Seed: uint64(i)})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Run(2000, 0); err != nil && err != ErrBlockaded {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6Adaptive measures the paper's adaptive solver on the
// same workload; the speedup vs BenchmarkFig6NonAdaptive is the Fig. 6
// claim in miniature.
func BenchmarkFig6Adaptive(b *testing.B) {
	ex := fig6Workload(b)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, err := solver.New(ex.Circuit, Options{Temp: bench.WorkloadTemp, Seed: uint64(i), Adaptive: true})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Run(2000, 0); err != nil && err != ErrBlockaded {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6Spice measures the compact-model transient baseline on
// the same benchmark (100 backward-Euler steps).
func BenchmarkFig6Spice(b *testing.B) {
	ex := fig6Workload(b)
	sp, err := NewSpice(ex.Circuit, bench.WorkloadTemp)
	if err != nil {
		b.Fatal(err)
	}
	_ = sp // model tables now cached inside the first build
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp, err := NewSpice(ex.Circuit, bench.WorkloadTemp)
		if err != nil {
			b.Fatal(err)
		}
		if err := sp.Run(50e-9, 0.5e-9); err != nil && err != ErrNoConvergence {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7Delay measures one propagation-delay extraction (the
// Fig. 7 measurement) on the smallest benchmark with the adaptive
// solver.
func BenchmarkFig7Delay(b *testing.B) {
	bm, ok := bench.ByName("2-to-10-decoder")
	if !ok {
		b.Fatal("missing benchmark")
	}
	p := logicnet.DefaultParams()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, err := bench.MeasureDelay(bm, p, Options{
			Temp: bench.WorkloadTemp, Seed: uint64(77 + i), Adaptive: true,
		})
		if err != nil && err != ErrNoCrossing {
			// A rare frozen run yields no crossing; cost is still
			// representative.
			b.Fatal(err)
		}
	}
}

// BenchmarkFullRefresh times a full rate refresh on a >= 1000-junction
// circuit (c432, 2072 junctions): RefreshEvery=1 makes every event pay
// a full refresh, so the measured time is dominated by that path.
func BenchmarkFullRefresh(b *testing.B) {
	bm, ok := bench.ByName("c432")
	if !ok {
		b.Fatal("missing benchmark")
	}
	ex, err := bench.BuildWorkload(bm, logicnet.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, err := solver.New(ex.Circuit, Options{
			Temp: bench.WorkloadTemp, Seed: 7, RefreshEvery: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Run(20, 0); err != nil && err != ErrBlockaded {
			b.Fatal(err)
		}
	}
}
