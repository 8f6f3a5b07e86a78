package main

import (
	"fmt"
	"runtime"
	"strings"

	"semsim/internal/bench"
	"semsim/internal/circuit"
	"semsim/internal/logicnet"
	"semsim/internal/obs"
	"semsim/internal/solver"
)

// logicWorkload is the adaptive logic transient, run the way
// `logicsim -adaptive -high en,in2` runs it: the benchmark's gate
// netlist text is parsed, expanded into SET logic with the delay
// stimulus of bench.BuildWorkload (in0 steps at 400 ns), built, and
// simulated to the end of the observation window at 2.9 us — or, with
// an event budget, until the budget is spent.
type logicWorkload struct {
	b      bench.Benchmark
	src    string // the .logic input the program parses
	bo     circuit.BuildOptions
	opt    solver.Options
	budget uint64 // events; 0 runs the full transient
	last   *logicnet.Expanded
}

// Sizes of the logic workloads. The tiny scale keeps the same paths on
// small suite circuits for smoke tests.
var logicSizes = map[string]map[string]struct {
	circuit string
	budget  uint64
}{
	"logic-c432":  {"full": {"c432", 0}, "tiny": {"74LS138", 0}},
	"logic-c1908": {"full": {"c1908", 300000}, "tiny": {"c432", 3000}},
}

// c432Seed is the Monte Carlo seed of the c432 transient: logicsim's
// default.
const c432Seed = 1

// cinvEpsC1908 selects the native RCM + sparse-Cholesky build with CSR
// rows and a provable potential error bound.
const cinvEpsC1908 = 1e-8

// maxCinvErrorBound is the accepted neutral-state truncation bound on
// c1908; the committed potential-engine measurement is 8.2 nV.
const maxCinvErrorBound = 10e-9

func newLogicWorkload(cfg runConfig) (*logicWorkload, error) {
	size, ok := logicSizes[cfg.workload][cfg.scale]
	if !ok {
		return nil, fmt.Errorf("unknown scale %q", cfg.scale)
	}
	b, ok := bench.ByName(size.circuit)
	if !ok {
		return nil, fmt.Errorf("unknown benchmark circuit %q", size.circuit)
	}
	w := &logicWorkload{
		b:      b,
		src:    formatLogic(b.Netlist),
		budget: size.budget,
		opt:    solver.Options{Temp: bench.WorkloadTemp, Seed: cfg.seed, Adaptive: true},
	}
	if cfg.workload == "logic-c432" {
		// The full transient's cost is bimodal in the Monte Carlo seed:
		// across seeds c432 applies 0.27 to 0.56 M events and its delay
		// extraction grows faster still, which would bury any code change
		// in seed noise. The workload therefore keeps logicsim's default
		// seed; the budgeted c1908 workload varies the seed at fixed work.
		w.opt.Seed = c432Seed
	}
	if cfg.workload == "logic-c1908" {
		w.bo = circuit.BuildOptions{SparsePotentials: true, CinvTruncation: cinvEpsC1908}
		w.opt.SparsePotentials = true
		w.opt.CinvTruncation = cinvEpsC1908
		w.opt.RateTables = true
	}
	return w, nil
}

// formatLogic writes a gate netlist in the .logic text format.
func formatLogic(nl *logicnet.Netlist) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "name %s\ninput %s\noutput %s\n", nl.Name,
		strings.Join(nl.Inputs, " "), strings.Join(nl.Outputs, " "))
	for _, g := range nl.Gates {
		fmt.Fprintf(&sb, "%s = %s %s\n", g.Out, g.Kind, strings.Join(g.In, " "))
	}
	return sb.String()
}

// logicSetup is one set-up: the parsed netlist, the expanded and built
// circuit and the constructed solver.
type logicSetup struct {
	nl                  *logicnet.Netlist
	ex                  *logicnet.Expanded
	sim                 *solver.Sim
	parse, expand, newS float64
}

func (w *logicWorkload) setUp(tr *tracer, o *obs.Observer) (*logicSetup, error) {
	st := &logicSetup{}
	var err error
	st.parse, err = tr.timed("logicnet.parse", func() (err error) {
		st.nl, err = logicnet.Parse(strings.NewReader(w.src))
		return err
	})
	if err != nil {
		return nil, err
	}
	b := w.b
	b.Netlist = st.nl
	st.expand, err = tr.timed("logicnet.expand", func() (err error) {
		st.ex, err = bench.BuildWorkloadWith(b, logicnet.DefaultParams(), w.bo)
		return err
	})
	if err != nil {
		return nil, err
	}
	opt := w.opt
	opt.Obs = o
	st.newS, err = tr.timed("solver.new", func() (err error) {
		st.sim, err = solver.New(st.ex.Circuit, opt)
		return err
	})
	if err != nil {
		return nil, err
	}
	w.last = st.ex
	return st, nil
}

// result reports the set-up; its heap sample collects garbage, so call
// it outside any timed segment.
func (st *logicSetup) result() setupResult {
	p := st.ex.Circuit.Potentials()
	bytesPer := 8.0 // dense rows: one float64 per entry
	if p.Sparse() {
		bytesPer = 12 // CSR rows: float64 value + int32 column
	}
	return setupResult{
		seconds:  st.parse + st.expand + st.newS,
		heap:     liveHeap(),
		firstNew: st.newS,
		layers: map[string]float64{
			"logicnet.parse_ms": st.parse * 1e3,
			"logicnet.expand_s": st.expand,
			"solver.new_s":      st.newS,
			"circuit.cinv_nnz":  float64(p.NNZ()),
			"circuit.cinv_mb":   float64(p.NNZ()) * bytesPer / 1e6,
		},
	}
}

// setupSamples is 0: every repetition sets up, and a run tops that up
// to minSetups samples afterwards.
func (w *logicWorkload) setupSamples() int { return 0 }

// warmups is 0: a logic transient builds everything it uses itself.
func (w *logicWorkload) warmups() int { return 0 }

func (w *logicWorkload) setupOnce(tr *tracer, o *obs.Observer) (setupResult, error) {
	st, err := w.setUp(tr, o)
	if err != nil {
		return setupResult{}, err
	}
	defer st.sim.Close()
	return st.result(), nil
}

func (w *logicWorkload) describe() (map[string]any, []workerConfig) {
	islands := 0
	if w.last != nil {
		islands = w.last.Circuit.NumIslands()
	}
	sizes := map[string]any{
		"circuit":      w.b.Name,
		"junctions":    w.b.Netlist.NumJunctions(),
		"gates":        len(w.b.Netlist.Gates),
		"islands":      islands,
		"event_budget": w.budget,
		"horizon_s":    w.horizon(),
		"cinv_eps":     w.bo.CinvTruncation,
		"rate_tables":  w.opt.RateTables,
		"mc_seed":      w.opt.Seed,
	}
	pool := runtime.GOMAXPROCS(0)
	return sizes, []workerConfig{{
		Name:    "solver within-run pool (Options.Parallel default)",
		Workers: pool,
		Engaged: w.b.Netlist.NumJunctions() >= 128 && pool > 1,
	}}
}

func (w *logicWorkload) close() error { return nil }
