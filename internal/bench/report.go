package bench

import (
	"runtime"

	"semsim/internal/logicnet"
	"semsim/internal/solver"
)

// RateEngineRun is one timed configuration of the rate-engine benchmark.
type RateEngineRun struct {
	Mode         string  `json:"mode"` // "serial" or "parallel"
	Workers      int     `json:"workers"`
	RateTables   bool    `json:"rate_tables"`
	Events       uint64  `json:"events"`
	WallSeconds  float64 `json:"wall_seconds"`
	EventsPerSec float64 `json:"events_per_sec"`
	RateCalcs    uint64  `json:"rate_calcs"`
	SimulatedSec float64 `json:"simulated_seconds"`
}

// RateEngineReport is the machine-readable benchmark of the within-run
// parallel rate engine: the same workload (same seed, so the serial and
// parallel runs execute identical trajectories) timed serial vs parallel
// and with exact vs tabulated kernels.
type RateEngineReport struct {
	Benchmark  string          `json:"benchmark"`
	Junctions  int             `json:"junctions"`
	Events     uint64          `json:"events"`
	GOMAXPROCS int             `json:"gomaxprocs"`
	Runs       []RateEngineRun `json:"runs"`
}

// RunRateEngine times the non-adaptive solver — the configuration whose
// cost is dominated by the sharded rate recomputation — on benchmark b
// for the given event budget, across the four corners of the engine:
// {serial, parallel} x {exact, tabulated} rates. The circuit is built
// with the default exact dense C^-1 rows.
func RunRateEngine(b Benchmark, p logicnet.Params, events, seed uint64) (*RateEngineReport, error) {
	ex, err := BuildWorkload(b, p)
	if err != nil {
		return nil, err
	}
	workers := runtime.GOMAXPROCS(0)
	rep := &RateEngineReport{
		Benchmark:  b.Name,
		Junctions:  ex.Circuit.NumJunctions(),
		Events:     events,
		GOMAXPROCS: workers,
	}
	configs := []struct {
		mode    string
		workers int
		tables  bool
	}{
		{"serial", 1, false},
		{"serial", 1, true},
		{"parallel", workers, false},
		{"parallel", workers, true},
	}
	for _, c := range configs {
		opt := solver.Options{
			Temp:       WorkloadTemp,
			Seed:       seed,
			Parallel:   c.workers,
			RateTables: c.tables,
		}
		res, err := TimeSolverOn(ex, opt, events, 0)
		if err != nil {
			return nil, err
		}
		run := RateEngineRun{
			Mode:         c.mode,
			Workers:      c.workers,
			RateTables:   c.tables,
			Events:       res.Events,
			WallSeconds:  res.Wall.Seconds(),
			RateCalcs:    res.RateCalcs,
			SimulatedSec: res.SimulatedTime,
		}
		if res.Wall > 0 {
			run.EventsPerSec = float64(res.Events) / res.Wall.Seconds()
		}
		rep.Runs = append(rep.Runs, run)
	}
	return rep, nil
}
