// Tests of the within-run parallel rate engine against the serial path.
// They live in an external test package so they can drive the solver
// through a realistic internal/bench workload (bench imports solver, so
// an internal test would be an import cycle).
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
	defer s.Close()
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

func requireIdentical(t *testing.T, what string, serial, parallel engineRun) {
	t.Helper()
	if serial.stats != parallel.stats {
		t.Fatalf("%s: stats differ\nserial:   %+v\nparallel: %+v", what, serial.stats, parallel.stats)
	}
	if serial.t != parallel.t {
		t.Fatalf("%s: simulated time differs: %g vs %g", what, serial.t, parallel.t)
	}
	if len(serial.wave) != len(parallel.wave) {
		t.Fatalf("%s: waveform lengths differ: %d vs %d", what, len(serial.wave), len(parallel.wave))
	}
	for i := range serial.wave {
		if serial.wave[i] != parallel.wave[i] {
			t.Fatalf("%s: waveform sample %d differs: %+v vs %+v", what, i, serial.wave[i], parallel.wave[i])
		}
	}
	for j := range serial.current {
		if serial.current[j] != parallel.current[j] {
			t.Fatalf("%s: junction %d current differs: %g vs %g", what, j, serial.current[j], parallel.current[j])
		}
	}
}

// TestParallelMatchesSerial is the engine's core guarantee: the same
// seed produces bit-identical trajectories — events, waveforms, currents
// and work counters — at any worker count. 74LS153 (224 junctions) is
// comfortably above the dispatch cutoff, so the pool really engages;
// forcing 4 workers on any host is fine since goroutines interleave on
// however many cores exist.
func TestParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("MC workload in -short mode")
	}
	ex, b := workload(t, "74LS153")
	const events = 3000
	cases := []struct {
		name string
		opt  solver.Options
	}{
		{"non-adaptive", solver.Options{Temp: bench.WorkloadTemp, Seed: 17}},
		{"adaptive", solver.Options{Temp: bench.WorkloadTemp, Seed: 17, Adaptive: true, RefreshEvery: 64}},
		{"rate-tables", solver.Options{Temp: bench.WorkloadTemp, Seed: 17, RateTables: true}},
	}
	for _, c := range cases {
		serialOpt := c.opt
		serialOpt.Parallel = 1
		parallelOpt := c.opt
		parallelOpt.Parallel = 4
		serial := runWorkload(t, ex, b, serialOpt, events)
		parallel := runWorkload(t, ex, b, parallelOpt, events)
		if serial.stats.Events == 0 {
			t.Fatalf("%s: no events simulated", c.name)
		}
		requireIdentical(t, c.name, serial, parallel)
	}
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
	exact := runWorkload(t, ex, b, solver.Options{Temp: bench.WorkloadTemp, Seed: 23, Parallel: 1}, 2000)
	tab := runWorkload(t, ex, b, solver.Options{Temp: bench.WorkloadTemp, Seed: 23, Parallel: 1, RateTables: true}, 2000)
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

// TestParallelSpeedup verifies the engine actually buys wall time on a
// >= 1000-junction circuit. It needs real cores: on fewer than 4 the
// workers just time-slice, so the test skips (the determinism tests
// above still exercise the parallel code paths there).
func TestParallelSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("MC timing run in -short mode")
	}
	cores := runtime.GOMAXPROCS(0)
	if cores < 4 {
		t.Skipf("need >= 4 cores for a meaningful speedup measurement, have %d", cores)
	}
	ex, b := workload(t, "c432") // 2072 junctions
	const events = 4000
	serial := runWorkload(t, ex, b, solver.Options{Temp: bench.WorkloadTemp, Seed: 3, Parallel: 1}, events)
	parallel := runWorkload(t, ex, b, solver.Options{Temp: bench.WorkloadTemp, Seed: 3, Parallel: cores}, events)
	requireIdentical(t, "speedup workload", serial, parallel)
	speedup := serial.wall.Seconds() / parallel.wall.Seconds()
	t.Logf("serial %v, parallel %v on %d cores: %.2fx", serial.wall, parallel.wall, cores, speedup)
	if speedup < 1.5 {
		t.Fatalf("parallel run not faster: serial %v vs parallel %v (%.2fx, want >= 1.5x at %d cores)",
			serial.wall, parallel.wall, speedup, cores)
	}
}
