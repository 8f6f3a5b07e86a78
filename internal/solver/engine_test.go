// Tests of the rate engine on realistic workloads. They live in an
// external test package so they can drive the solver through an
// internal/bench workload (bench imports solver, so an internal test
// would be an import cycle).
package solver_test

import (
	"runtime"
	"testing"
	"time"

	"semsim/internal/bench"
	"semsim/internal/circuit"
	"semsim/internal/logicnet"
	"semsim/internal/solver"
)

// engineRun executes the delay workload of benchmark b for maxEvents
// events and returns everything a determinism comparison needs.
type engineRun struct {
	stats   solver.Stats
	t       float64
	wave    []solver.Sample
	current []float64
	wall    time.Duration
}

func workload(t *testing.T, name string) (*logicnet.Expanded, bench.Benchmark) {
	t.Helper()
	return workloadAt(t, name, 0)
}

// workloadAt is workload built at C^-1 truncation threshold eps.
func workloadAt(t *testing.T, name string, eps float64) (*logicnet.Expanded, bench.Benchmark) {
	t.Helper()
	b, ok := bench.ByName(name)
	if !ok {
		t.Fatalf("benchmark %s missing", name)
	}
	ex, err := bench.BuildWorkloadWith(b, logicnet.DefaultParams(), circuit.BuildOptions{CinvTruncation: eps})
	if err != nil {
		t.Fatal(err)
	}
	return ex, b
}

func runWorkload(t *testing.T, ex *logicnet.Expanded, b bench.Benchmark, opt solver.Options, maxEvents uint64) engineRun {
	t.Helper()
	s, err := solver.New(ex.Circuit, opt)
	if err != nil {
		t.Fatal(err)
	}
	out := ex.Wire[b.OutputWire]
	s.AddProbe(out)
	start := time.Now()
	if _, err := s.Run(maxEvents, 0); err != nil && err != solver.ErrBlockaded {
		t.Fatal(err)
	}
	r := engineRun{stats: s.Stats(), t: s.Time(), wave: s.Waveform(out), wall: time.Since(start)}
	for j := 0; j < ex.Circuit.NumJunctions(); j++ {
		r.current = append(r.current, s.JunctionCurrent(j))
	}
	return r
}

func requireIdentical(t *testing.T, what string, want, got engineRun) {
	t.Helper()
	if want.stats != got.stats {
		t.Fatalf("%s: stats differ\nwant: %+v\ngot:  %+v", what, want.stats, got.stats)
	}
	if want.t != got.t {
		t.Fatalf("%s: simulated time differs: %g vs %g", what, want.t, got.t)
	}
	if len(want.wave) != len(got.wave) {
		t.Fatalf("%s: waveform lengths differ: %d vs %d", what, len(want.wave), len(got.wave))
	}
	for i := range want.wave {
		if want.wave[i] != got.wave[i] {
			t.Fatalf("%s: waveform sample %d differs: %+v vs %+v", what, i, want.wave[i], got.wave[i])
		}
	}
	for j := range want.current {
		if want.current[j] != got.current[j] {
			t.Fatalf("%s: junction %d current differs: %g vs %g", what, j, want.current[j], got.current[j])
		}
	}
}

// TestSimOwnsNoGoroutines: a Sim runs on its caller's goroutine and
// starts none of its own — even with the deprecated Parallel set on a
// circuit large enough that a worker pool once engaged — so a dropped
// Sim leaks nothing and needs no Close.
func TestSimOwnsNoGoroutines(t *testing.T) {
	ex, _ := workload(t, "74LS153")
	before := runtime.NumGoroutine()
	s, err := solver.New(ex.Circuit, solver.Options{Temp: bench.WorkloadTemp, Seed: 17, Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(500, 0); err != nil && err != solver.ErrBlockaded {
		t.Fatal(err)
	}
	if after := runtime.NumGoroutine(); after != before {
		t.Fatalf("New + Run changed the goroutine count from %d to %d", before, after)
	}
	runtime.KeepAlive(s)
}

// TestRateTablesMatchExactStatistically checks that routing rates
// through the interpolation tables leaves the physics intact: same seed,
// same trajectory event-for-event on a real workload. With table errors
// below 1e-6 the sampled event sequence only diverges when a random draw
// lands within the error band of a cumulative rate boundary — not in
// 3000 events at these rates — so an exact comparison doubles as a
// regression test for the tables' accuracy plumbing.
func TestRateTablesMatchExactStatistically(t *testing.T) {
	if testing.Short() {
		t.Skip("MC workload in -short mode")
	}
	ex, b := workload(t, "74LS153")
	exact := runWorkload(t, ex, b, solver.Options{Temp: bench.WorkloadTemp, Seed: 23}, 2000)
	tab := runWorkload(t, ex, b, solver.Options{Temp: bench.WorkloadTemp, Seed: 23, RateTables: true}, 2000)
	if exact.stats.Events != tab.stats.Events {
		t.Fatalf("event counts diverged: exact %d vs tables %d", exact.stats.Events, tab.stats.Events)
	}
	// Currents must agree to well within Monte Carlo noise; with the
	// same event sequence they should be essentially identical.
	for j := range exact.current {
		d := exact.current[j] - tab.current[j]
		if d < 0 {
			d = -d
		}
		scale := 1e-12
		if a := exact.current[j]; a > scale || -a > scale {
			scale = a
			if scale < 0 {
				scale = -scale
			}
		}
		if d > 1e-3*scale {
			t.Fatalf("junction %d current: exact %g vs tables %g", j, exact.current[j], tab.current[j])
		}
	}
}
