package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"semsim/internal/jobs"
	"semsim/internal/logicnet"
	"semsim/internal/obs"
	"semsim/internal/solver"
)

// ObsOverheadRun is one timed observability configuration of the
// overhead benchmark.
type ObsOverheadRun struct {
	Mode         string  `json:"mode"` // "off", "metrics", "jobmetrics", "tracing"
	Events       uint64  `json:"events"`
	WallSeconds  float64 `json:"wall_seconds"` // best of Repeats
	EventsPerSec float64 `json:"events_per_sec"`
	// OverheadPct is the events/s cost relative to the "off" run
	// (positive = slower). The acceptance budget for disabled obs is
	// < 2%; "off" itself is 0 by definition.
	OverheadPct float64 `json:"overhead_pct"`
	// JournalEvents counts journal records for the tracing run.
	JournalEvents uint64 `json:"journal_events,omitempty"`
}

// ObsOverheadReport measures what observability costs on a real
// workload: the same trajectory (same seed — observation is passive, so
// every mode executes the identical event sequence) timed with obs
// off, metrics only, the jobs-layer task telemetry (registry counters,
// trace lanes and bus publishes per runner chunk), and full tracing.
type ObsOverheadReport struct {
	Benchmark string           `json:"benchmark"`
	Junctions int              `json:"junctions"`
	Events    uint64           `json:"events"`
	Repeats   int              `json:"repeats"`
	Runs      []ObsOverheadRun `json:"runs"`
}

// RunObsOverhead times the adaptive solver on benchmark b for the given
// event budget under each observability mode, keeping the best wall
// time of repeats per mode (Monte Carlo kernels are deterministic, so
// the minimum is the least-noise estimate).
func RunObsOverhead(b Benchmark, p logicnet.Params, events, seed uint64, repeats int) (*ObsOverheadReport, error) {
	ex, err := BuildWorkload(b, p)
	if err != nil {
		return nil, err
	}
	if repeats < 1 {
		repeats = 1
	}
	rep := &ObsOverheadReport{
		Benchmark: b.Name,
		Junctions: ex.Circuit.NumJunctions(),
		Events:    events,
		Repeats:   repeats,
	}
	modes := []string{"off", "metrics", "jobmetrics", "tracing"}
	var baseEvents uint64
	var basePerSec float64
	for _, mode := range modes {
		run := ObsOverheadRun{Mode: mode}
		var lastObs *obs.Observer
		for r := 0; r < repeats; r++ {
			opt := solver.Options{
				Temp:       WorkloadTemp,
				Seed:       seed,
				Adaptive:   true,
				RateTables: true,
			}
			switch mode {
			case "metrics", "jobmetrics":
				opt.Obs = obs.New(obs.Config{})
			case "tracing":
				opt.Obs = obs.New(obs.Config{Trace: true, TraceCap: 1 << 16})
			}
			lastObs = opt.Obs
			var res TimingResult
			var err error
			if mode == "jobmetrics" {
				res, err = timeObservedRun(ex, opt, events)
			} else {
				res, err = TimeSolverOn(ex, opt, events, 0)
			}
			if err != nil {
				return nil, err
			}
			if run.Events == 0 {
				run.Events = res.Events
			}
			if w := res.Wall.Seconds(); run.WallSeconds == 0 || w < run.WallSeconds {
				run.WallSeconds = w
			}
		}
		if run.WallSeconds > 0 {
			run.EventsPerSec = float64(run.Events) / run.WallSeconds
		}
		if mode == "off" {
			baseEvents, basePerSec = run.Events, run.EventsPerSec
		} else {
			// Passive-observation sanity check: every mode must execute
			// the exact same trajectory.
			if run.Events != baseEvents {
				return nil, fmt.Errorf("bench: obs mode %q changed the trajectory (%d events vs %d)",
					mode, run.Events, baseEvents)
			}
			if basePerSec > 0 {
				run.OverheadPct = 100 * (basePerSec - run.EventsPerSec) / basePerSec
			}
		}
		if lastObs != nil && lastObs.Tracing() {
			run.JournalEvents = lastObs.Journal().Total()
		}
		rep.Runs = append(rep.Runs, run)
	}
	return rep, nil
}

// timeObservedRun times the workload through the jobs-layer chunked
// runner with full task telemetry attached (jobs.BenchObservedRun) —
// the configuration a semsimd worker executes. The chunked runner is
// trajectory-identical to a direct solver run, which RunObsOverhead's
// event-count check enforces.
func timeObservedRun(ex *logicnet.Expanded, opt solver.Options, maxEvents uint64) (TimingResult, error) {
	s, err := solver.New(ex.Circuit, opt)
	if err != nil {
		return TimingResult{}, err
	}
	start := time.Now()
	if _, err := jobs.BenchObservedRun(s, maxEvents, opt.Obs, 1); err != nil && err != solver.ErrBlockaded {
		return TimingResult{}, err
	}
	wall := time.Since(start)
	return TimingResult{Events: s.Stats().Events, Wall: wall, SimulatedTime: s.Time()}, nil
}

// LoadObsOverheadReport reads a BENCH_obs_overhead.json snapshot.
func LoadObsOverheadReport(path string) (*ObsOverheadReport, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep ObsOverheadReport
	if err := json.Unmarshal(blob, &rep); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	if len(rep.Runs) == 0 {
		return nil, fmt.Errorf("bench: %s: no runs in report", path)
	}
	return &rep, nil
}

// CheckObsOverheadBudget gates an obs-overhead snapshot: the always-on
// modes ("metrics" and "jobmetrics" — what a production semsimd pays)
// must each cost less than budgetPct relative to the bare solver, every
// mode must have executed the same trajectory as "off", and the modes
// themselves must all be present. Full tracing is exempt: it is an
// opt-in diagnostic, priced but not bounded. Returns one message per
// violation.
func CheckObsOverheadBudget(rep *ObsOverheadReport, budgetPct float64) []string {
	var bad []string
	seen := map[string]bool{}
	var baseEvents uint64
	for _, r := range rep.Runs {
		seen[r.Mode] = true
		if r.Mode == "off" {
			baseEvents = r.Events
		}
	}
	for _, want := range []string{"off", "metrics", "jobmetrics", "tracing"} {
		if !seen[want] {
			bad = append(bad, fmt.Sprintf("%s: mode %q missing from snapshot (regenerate with make obs-overhead)", rep.Benchmark, want))
		}
	}
	for _, r := range rep.Runs {
		if r.Events != baseEvents {
			bad = append(bad, fmt.Sprintf("%s/%s: trajectory diverged (%d events vs %d with obs off): observation is not passive",
				rep.Benchmark, r.Mode, r.Events, baseEvents))
		}
		if (r.Mode == "metrics" || r.Mode == "jobmetrics") && r.OverheadPct >= budgetPct {
			bad = append(bad, fmt.Sprintf("%s/%s: %.1f%% overhead exceeds the %.0f%% always-on budget",
				rep.Benchmark, r.Mode, r.OverheadPct, budgetPct))
		}
	}
	return bad
}
