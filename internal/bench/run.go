package bench

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"semsim/internal/circuit"
	"semsim/internal/logicnet"
	"semsim/internal/obs"
	"semsim/internal/solver"
	"semsim/internal/trace"
)

// Workload timing: the circuit settles from its all-neutral initial
// state, the toggle input steps, and the run continues long enough for
// the transition to propagate down the spine.
const (
	SettleTime = 400e-9 // seconds before the input step
	StepRamp   = 1e-9   // input rise time
	// ObserveFor bounds the post-step window: the longest spine (14
	// mixed NAND/NOR stages at ~100 ns a stage with the 1 fF wire
	// loads) needs ~1.5 us to propagate.
	ObserveFor = 2.5e-6
	// WorkloadTemp is the benchmark operating temperature. 2 K keeps
	// kT far below the logic's charging energies (Ec/kB ~ 440 K) while
	// thermally smoothing the few-kT residual barriers that freeze
	// marginal stages at lower temperatures.
	WorkloadTemp = 2.0
)

// BuildWorkload expands a benchmark into its SET circuit with the delay
// stimulus attached: HighInputs at Vdd, other inputs low, and the
// toggle input stepping 0 -> Vdd at SettleTime.
func BuildWorkload(b Benchmark, p logicnet.Params) (*logicnet.Expanded, error) {
	return BuildWorkloadWith(b, p, circuit.BuildOptions{})
}

// BuildWorkloadWith is BuildWorkload with explicit circuit build
// options, e.g. a C^-1 truncation threshold coarser than the default.
func BuildWorkloadWith(b Benchmark, p logicnet.Params, bo circuit.BuildOptions) (*logicnet.Expanded, error) {
	vdd := p.Vdd()
	drive := map[string]circuit.Source{}
	for _, in := range b.Netlist.Inputs {
		drive[in] = circuit.DC(0)
	}
	for _, in := range b.HighInputs {
		drive[in] = circuit.DC(vdd)
	}
	drive[b.ToggleInput] = circuit.PWL{
		T:    []float64{0, SettleTime, SettleTime + StepRamp},
		Volt: []float64{0, 0, vdd},
	}
	return b.Netlist.ExpandWith(p, drive, bo)
}

// DelayResult is one propagation-delay measurement.
type DelayResult struct {
	Delay     float64 // seconds
	Events    uint64
	RateCalcs uint64
}

// MeasureDelayOn runs the delay workload once on a pre-built workload
// (BuildWorkload) and extracts the 50%-swing propagation delay at the
// benchmark's output. Building once lets the capacitance-matrix
// inversion (expensive for the large benchmarks) be paid once across
// seeds and solvers. The expanded circuit is read-only during
// simulation and safe to share between concurrent runs.
func MeasureDelayOn(ex *logicnet.Expanded, b Benchmark, opt solver.Options) (DelayResult, error) {
	defer obs.GlobalSpan("bench.measureDelay").End()
	s, err := solver.New(ex.Circuit, opt)
	if err != nil {
		return DelayResult{}, err
	}
	out := ex.Wire[b.OutputWire]
	s.AddProbe(out)
	if _, err := s.Run(0, SettleTime+ObserveFor); err != nil && err != solver.ErrBlockaded {
		return DelayResult{}, err
	}
	w := s.Waveform(out)
	// Smooth over a few single-electron steps; threshold at half swing.
	delay, err := trace.PropagationDelay(w, SettleTime+StepRamp, ex.LogicThreshold(), 20e-9, b.OutputRises)
	if err != nil {
		return DelayResult{}, fmt.Errorf("bench %s: %w", b.Name, err)
	}
	st := s.Stats()
	return DelayResult{Delay: delay, Events: st.Events, RateCalcs: st.RateCalcs}, nil
}

// MeanDelayOn averages MeasureDelayOn over n seeds, run in parallel
// (the paper averages nine SEMSIM runs per benchmark in Fig. 7).
// Individual runs whose output never switches — a Monte Carlo run
// occasionally freezes a marginal stage for the whole observation
// window — are skipped; the returned count says how many runs
// contributed. It is an error if fewer than half the runs produce a
// delay.
func MeanDelayOn(ex *logicnet.Expanded, b Benchmark, opt solver.Options, n int) (float64, int, error) {
	if n < 1 {
		n = 1
	}
	delays := make([]float64, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			o := opt
			o.Seed = opt.Seed + uint64(i)*1000003
			res, err := MeasureDelayOn(ex, b, o)
			if err != nil {
				errs[i] = err
				return
			}
			delays[i] = res.Delay
		}(i)
	}
	wg.Wait()
	total := 0.0
	ok := 0
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			if errors.Is(errs[i], trace.ErrNoCrossing) {
				continue
			}
			return 0, 0, errs[i]
		}
		total += delays[i]
		ok++
	}
	if ok*2 < n || ok == 0 {
		return 0, ok, fmt.Errorf("bench %s: only %d/%d runs switched", b.Name, ok, n)
	}
	return total / float64(ok), ok, nil
}

// TimingResult reports solver cost on a benchmark workload.
type TimingResult struct {
	RatePerEvent    float64 // rate calculations per event
	WallPerSimETime float64 // wall seconds per simulated second
}

// TimeSolverOn runs a pre-built workload (BuildWorkload) for a bounded
// number of events and reports the cost metrics used by Fig. 6. Wall
// time per simulated second is what the paper plots (normalized to
// 10 us of circuit time); rate calculations per event is the
// machine-independent counterpart.
func TimeSolverOn(ex *logicnet.Expanded, opt solver.Options, maxEvents uint64, maxTime float64) (TimingResult, error) {
	defer obs.GlobalSpan("bench.timeSolver").End()
	s, err := solver.New(ex.Circuit, opt)
	if err != nil {
		return TimingResult{}, err
	}
	start := time.Now()
	if _, err := s.Run(maxEvents, maxTime); err != nil && err != solver.ErrBlockaded {
		return TimingResult{}, err
	}
	wall := time.Since(start)
	var res TimingResult
	if st := s.Stats(); st.Events > 0 {
		res.RatePerEvent = float64(st.RateCalcs) / float64(st.Events)
	}
	if s.Time() > 0 {
		res.WallPerSimETime = wall.Seconds() / s.Time()
	}
	return res, nil
}
