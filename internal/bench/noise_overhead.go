package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"

	"semsim/internal/logicnet"
	"semsim/internal/noise"
	"semsim/internal/solver"
)

// NoiseOverheadRun is one timed noise-recording configuration.
type NoiseOverheadRun struct {
	Mode         string  `json:"mode"` // "record", "fano", "spectral"
	Events       uint64  `json:"events"`
	WallSeconds  float64 `json:"wall_seconds"` // best of Repeats
	EventsPerSec float64 `json:"events_per_sec"`
	// OverheadPct is the wall-time cost relative to the "record" run
	// (plain current recording, which the solver always does),
	// estimated as the median over rounds of the paired within-round
	// wall ratio: each interleaved round times every mode back to back
	// under the same machine conditions, so the ratio cancels slow
	// drift that would bias a best-of-N comparison taken from
	// different quiet windows. Positive = slower; the acceptance
	// budget is < 5%.
	OverheadPct float64 `json:"overhead_pct"`
	// Windows counts closed counting windows and RecorderEvents the
	// tunnel events folded into accumulators, for the recording modes.
	Windows        uint64 `json:"windows,omitempty"`
	RecorderEvents uint64 `json:"recorder_events,omitempty"`
}

// NoiseOverheadReport measures what streaming noise accumulation costs
// on a real workload: the same trajectory (recording is passive, so
// every mode executes the identical event sequence) timed bare, with
// counting-window cumulants on every junction, and with the spectral
// estimator's ω grid on top.
type NoiseOverheadReport struct {
	Benchmark string             `json:"benchmark"`
	Junctions int                `json:"junctions"`
	Events    uint64             `json:"events"`
	Repeats   int                `json:"repeats"`
	Omegas    int                `json:"omegas"` // grid size of the spectral mode
	Runs      []NoiseOverheadRun `json:"runs"`
}

// noiseWorkloadConfig builds the recorder configuration for a mode:
// every junction of the circuit records — the worst case for the hook,
// since then every single tunnel event pays the accumulator update.
func noiseWorkloadConfig(numJuncs int, window float64, omegas []float64) noise.Config {
	cfg := noise.Config{Juncs: make([]noise.JuncConfig, numJuncs)}
	for j := 0; j < numJuncs; j++ {
		cfg.Juncs[j] = noise.JuncConfig{Junc: j, Window: window, Omegas: omegas}
	}
	return cfg
}

// timeNoiseRun times the workload with a recorder attached (nil cfg =
// bare baseline) and reports the recorder's accumulated totals.
func timeNoiseRun(ex *logicnet.Expanded, opt solver.Options, cfg *noise.Config, maxEvents uint64) (TimingResult, uint64, uint64, error) {
	s, err := solver.New(ex.Circuit, opt)
	if err != nil {
		return TimingResult{}, 0, 0, err
	}
	if cfg != nil {
		if err := s.EnableNoise(*cfg); err != nil {
			return TimingResult{}, 0, 0, err
		}
	}
	start := time.Now()
	if _, err := s.Run(maxEvents, 0); err != nil && err != solver.ErrBlockaded {
		return TimingResult{}, 0, 0, err
	}
	wall := time.Since(start)
	res := TimingResult{Events: s.Stats().Events, Wall: wall, SimulatedTime: s.Time()}
	var windows, recEvents uint64
	if cfg != nil {
		for _, jc := range cfg.Juncs {
			st, ok := s.NoiseStats(jc.Junc)
			if !ok {
				return TimingResult{}, 0, 0, fmt.Errorf("bench: junction %d lost its recorder", jc.Junc)
			}
			windows += st.Windows
			recEvents += st.Events
		}
	}
	return res, windows, recEvents, nil
}

// RunNoiseOverhead times the adaptive solver on benchmark b under each
// noise-recording mode, interleaving the repeats across modes: wall
// and events/s report the best round per mode, while the overhead
// percentages come from the paired within-round ratios (see
// NoiseOverheadRun.OverheadPct). The counting window is calibrated
// from the baseline run's event rate
// (τ such that an average window holds noise.DefaultWindowEvents
// events), exactly how deck runs auto-calibrate.
func RunNoiseOverhead(b Benchmark, p logicnet.Params, events, seed uint64, repeats, nOmega int) (*NoiseOverheadReport, error) {
	ex, err := BuildWorkload(b, p)
	if err != nil {
		return nil, err
	}
	if repeats < 1 {
		repeats = 1
	}
	if nOmega < 1 {
		nOmega = 4
	}
	rep := &NoiseOverheadReport{
		Benchmark: b.Name,
		Junctions: ex.Circuit.NumJunctions(),
		Events:    events,
		Repeats:   repeats,
		Omegas:    nOmega,
	}
	opt := solver.Options{
		Temp:       WorkloadTemp,
		Seed:       seed,
		Adaptive:   true,
		RateTables: true,
	}
	// Calibration pass: window width and ω band from the baseline rate.
	cal, _, _, err := timeNoiseRun(ex, opt, nil, events)
	if err != nil {
		return nil, err
	}
	if cal.Events == 0 || cal.SimulatedTime <= 0 {
		return nil, fmt.Errorf("bench: %s produced no events to calibrate against", b.Name)
	}
	rate := float64(cal.Events) / cal.SimulatedTime
	window := noise.DefaultWindowEvents / rate
	// Linear grid ω_k = (k+1)·rate/100 — the shape of a spectroscopy
	// scan, inside the band a deck would request, and exactly uniform
	// so the recorder's rotation fast path for such grids is what gets
	// timed.
	w0 := rate / 100
	omegas := make([]float64, nOmega)
	for i := range omegas {
		omegas[i] = w0 + float64(i)*w0
	}
	modes := []struct {
		name string
		cfg  *noise.Config
	}{
		{"record", nil},
		{"fano", ptr(noiseWorkloadConfig(rep.Junctions, window, nil))},
		{"spectral", ptr(noiseWorkloadConfig(rep.Junctions, window, omegas))},
	}
	// Interleave the repeats across modes (record, fano, spectral,
	// record, fano, ...) instead of timing each mode's whole block in
	// sequence: slow machine drift — thermal throttling, a neighbor VM
	// waking up — then lands on every mode equally instead of biasing
	// whichever mode ran last, and best-of-repeats stays comparable.
	runs := make([]NoiseOverheadRun, len(modes))
	walls := make([][]float64, len(modes)) // per mode, per round
	for i, mode := range modes {
		runs[i] = NoiseOverheadRun{Mode: mode.name}
		walls[i] = make([]float64, repeats)
	}
	for r := 0; r < repeats; r++ {
		// Rotate which mode leads each round, so a positional bias
		// (turbo/thermal state inherited from the previous leg) does
		// not systematically land on the same mode.
		for ii := 0; ii < len(modes); ii++ {
			i := (r + ii) % len(modes)
			res, windows, recEvents, err := timeNoiseRun(ex, opt, modes[i].cfg, events)
			if err != nil {
				return nil, err
			}
			run := &runs[i]
			if run.Events == 0 {
				run.Events, run.Windows, run.RecorderEvents = res.Events, windows, recEvents
			}
			walls[i][r] = res.Wall.Seconds()
			if w := res.Wall.Seconds(); run.WallSeconds == 0 || w < run.WallSeconds {
				run.WallSeconds = w
			}
		}
	}
	var baseEvents uint64
	for i := range runs {
		run := &runs[i]
		if run.WallSeconds > 0 {
			run.EventsPerSec = float64(run.Events) / run.WallSeconds
		}
		if run.Mode == "record" {
			baseEvents = run.Events
		} else {
			// Passive-recording sanity check: every mode must execute
			// the identical trajectory.
			if run.Events != baseEvents {
				return nil, fmt.Errorf("bench: noise mode %q changed the trajectory (%d events vs %d)",
					run.Mode, run.Events, baseEvents)
			}
			if run.RecorderEvents == 0 {
				return nil, fmt.Errorf("bench: noise mode %q recorded no events; the overhead measurement is vacuous", run.Mode)
			}
			// Paired estimate: within-round wall ratio vs the "record"
			// run of the same round, median over rounds.
			ratios := make([]float64, 0, repeats)
			for r := 0; r < repeats; r++ {
				if walls[0][r] > 0 {
					ratios = append(ratios, walls[i][r]/walls[0][r])
				}
			}
			run.OverheadPct = 100 * (median(ratios) - 1)
		}
		rep.Runs = append(rep.Runs, *run)
	}
	return rep, nil
}

// median of xs (xs is scratch and gets reordered); 0 when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	if n := len(xs); n%2 == 1 {
		return xs[n/2]
	} else {
		return (xs[n/2-1] + xs[n/2]) / 2
	}
}

func ptr(cfg noise.Config) *noise.Config { return &cfg }

// LoadNoiseOverheadReport reads a BENCH_noise.json snapshot.
func LoadNoiseOverheadReport(path string) (*NoiseOverheadReport, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep NoiseOverheadReport
	if err := json.Unmarshal(blob, &rep); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	if len(rep.Runs) == 0 {
		return nil, fmt.Errorf("bench: %s: no runs in report", path)
	}
	return &rep, nil
}

// CheckNoiseOverheadBudget gates a noise-overhead snapshot: each
// recording mode must cost less than budgetPct relative to plain
// current recording, every mode must have executed the identical
// trajectory, the recording modes must actually have accumulated
// events, and all modes must be present. Returns one message per
// violation.
func CheckNoiseOverheadBudget(rep *NoiseOverheadReport, budgetPct float64) []string {
	var bad []string
	seen := map[string]bool{}
	var baseEvents uint64
	for _, r := range rep.Runs {
		seen[r.Mode] = true
		if r.Mode == "record" {
			baseEvents = r.Events
		}
	}
	for _, want := range []string{"record", "fano", "spectral"} {
		if !seen[want] {
			bad = append(bad, fmt.Sprintf("%s: mode %q missing from snapshot (regenerate with make noise-bench)", rep.Benchmark, want))
		}
	}
	for _, r := range rep.Runs {
		if r.Events != baseEvents {
			bad = append(bad, fmt.Sprintf("%s/%s: trajectory diverged (%d events vs %d bare): noise recording is not passive",
				rep.Benchmark, r.Mode, r.Events, baseEvents))
		}
		if r.Mode == "record" {
			continue
		}
		if r.RecorderEvents == 0 {
			bad = append(bad, fmt.Sprintf("%s/%s: recorder saw no events; the overhead number is meaningless", rep.Benchmark, r.Mode))
		}
		if r.OverheadPct >= budgetPct {
			bad = append(bad, fmt.Sprintf("%s/%s: %.1f%% overhead exceeds the %.0f%% recording budget",
				rep.Benchmark, r.Mode, r.OverheadPct, budgetPct))
		}
	}
	return bad
}
