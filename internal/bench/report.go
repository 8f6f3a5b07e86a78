package bench

import (
	"runtime"

	"semsim/internal/logicnet"
	"semsim/internal/solver"
)

// RateEngineRun is one timed configuration of the rate-engine benchmark.
type RateEngineRun struct {
	RateTables   bool    `json:"rate_tables"`
	Events       uint64  `json:"events"`
	WallSeconds  float64 `json:"wall_seconds"`
	EventsPerSec float64 `json:"events_per_sec"`
	RateCalcs    uint64  `json:"rate_calcs"`
	SimulatedSec float64 `json:"simulated_seconds"`
}

// RateEngineReport is the machine-readable benchmark of the rate
// engine: the same workload (same seed, so both runs execute the same
// event count) timed with exact and with tabulated kernels. GOMAXPROCS
// records the machine it ran on; every run is serial.
type RateEngineReport struct {
	Benchmark  string          `json:"benchmark"`
	Junctions  int             `json:"junctions"`
	Events     uint64          `json:"events"`
	GOMAXPROCS int             `json:"gomaxprocs"`
	Runs       []RateEngineRun `json:"runs"`
}

// RunRateEngine times the non-adaptive solver — the configuration whose
// cost is dominated by rate recomputation — on benchmark b for the
// given event budget, with exact and with tabulated kernels. The
// circuit is built at the default C^-1 truncation threshold.
func RunRateEngine(b Benchmark, p logicnet.Params, events, seed uint64) (*RateEngineReport, error) {
	ex, err := BuildWorkload(b, p)
	if err != nil {
		return nil, err
	}
	rep := &RateEngineReport{
		Benchmark:  b.Name,
		Junctions:  ex.Circuit.NumJunctions(),
		Events:     events,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	for _, tables := range []bool{false, true} {
		opt := solver.Options{
			Temp:       WorkloadTemp,
			Seed:       seed,
			RateTables: tables,
		}
		res, err := TimeSolverOn(ex, opt, events, 0)
		if err != nil {
			return nil, err
		}
		run := RateEngineRun{
			RateTables:   tables,
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
