// Package semsim is a single-electron device and circuit simulator — a
// from-scratch reproduction of "Adaptive Simulation for Single-Electron
// Devices" (Allec, Knobel, Shang; DATE 2008).
//
// The simulator models single-electron tunneling with the orthodox
// theory, second-order inelastic cotunneling, and superconducting
// effects (quasi-particle tunneling through the BCS density of states
// and resonant Cooper-pair tunneling, which produce JQP/DJQP peaks and
// singularity-matching features). Circuits are simulated by a Monte
// Carlo event loop with two interchangeable solvers:
//
//   - the conventional non-adaptive solver recomputes every node
//     potential and junction rate after each tunnel event;
//   - the adaptive solver (the paper's contribution) tracks a
//     per-junction testing factor and recomputes only the rates that
//     changed significantly, spilling breadth-first to neighbours, with
//     a periodic full refresh to bound the error — up to ~40x faster on
//     large circuits at a few percent accuracy cost.
//
// Quick start — the paper's Fig. 1 SET:
//
//	c, nd := semsim.NewSET(semsim.SETConfig{
//	    R1: 1e6, C1: 1e-18, R2: 1e6, C2: 1e-18, Cg: 3e-18,
//	    Vs: 0.02, Vd: -0.02, Vg: 0,
//	})
//	sim, _ := semsim.NewSim(c, semsim.Options{Temp: 5})
//	sim.Run(100000, 0)
//	fmt.Println(sim.JunctionCurrent(nd.JuncDrain))
//
// Higher-level entry points: ParseNetlist reads the SPICE-like input
// deck format, and RunDeck and RunDeckCtx execute a deck — an I-V
// `sweep` or a refined stability `map` — as independent (point, run)
// tasks, optionally in parallel; ParseLogic and ExpandLogic turn
// gate-level netlists into nSET/pSET circuits; MasterSolve provides an
// exact steady-state reference for single devices; NewSpice is the
// compact-model transient baseline; and Benchmarks returns the paper's
// 15-circuit evaluation suite.
package semsim

import (
	"io"

	"semsim/internal/circuit"
	"semsim/internal/master"
	"semsim/internal/obs"
	"semsim/internal/solver"
	"semsim/internal/sweep"
	"semsim/internal/trace"
	"semsim/internal/units"
)

// Physical constants re-exported for building circuits in natural
// units.
const (
	// E is the elementary charge in coulombs.
	E = units.E
	// KB is Boltzmann's constant in joules per kelvin.
	KB = units.KB
	// RQ is the superconducting resistance quantum h/4e^2 (~6.45 kOhm).
	RQ = units.RQ
)

// MeV converts an energy in milli-electron-volts to joules (the
// natural unit for superconducting gaps).
func MeV(e float64) float64 { return units.MeV(e) }

// Circuit is a single-electron circuit: islands and leads connected by
// tunnel junctions and capacitors.
type Circuit = circuit.Circuit

// NodeKind classifies nodes as islands or externally driven leads.
type NodeKind = circuit.NodeKind

// Node kinds.
const (
	Island   = circuit.Island
	External = circuit.External
)

// Source variants for external nodes.
type (
	// Source supplies an external node's voltage over time.
	Source = circuit.Source
	// DC is a constant source.
	DC = circuit.DC
	// Sine is a sinusoidal source.
	Sine = circuit.Sine
	// PWL is a piecewise-linear source.
	PWL = circuit.PWL
)

// Junction is a tunnel junction (R, C) between two nodes.
type Junction = circuit.Junction

// SuperParams marks a circuit superconducting: gap Delta(0) in joules
// and critical temperature in kelvin.
type SuperParams = circuit.SuperParams

// SETConfig describes a single-electron transistor for NewSET.
type SETConfig = circuit.SETConfig

// SETNodes reports the node/junction ids of a NewSET circuit.
type SETNodes = circuit.SETNodes

// NewCircuit returns an empty circuit; add nodes, junctions, capacitors
// and sources, then call Build.
func NewCircuit() *Circuit { return circuit.New() }

// BuildOptions configures the potential engine assembled by
// Circuit.BuildWith. Every build stores C^-1 as truncated sparse rows;
// CinvTruncation, the only knob, sets the relative threshold: 0 (the
// zero value) means the default 1e-14, any other value must be finite
// with 0 < ε < 1. Each run's Stats.CinvErrorBound states how exact it
// is.
type BuildOptions = circuit.BuildOptions

// NewSET builds a standalone single-electron transistor (Fig. 1a).
func NewSET(cfg SETConfig) (*Circuit, SETNodes) { return circuit.NewSET(cfg) }

// Options configures a Monte Carlo simulation.
type Options = solver.Options

// Sim is a Monte Carlo simulation of one circuit.
type Sim = solver.Sim

// Stats reports solver work counters (events, rate calculations, ...).
type Stats = solver.Stats

// Sample is a waveform point recorded by a probe.
type Sample = solver.Sample

// SimCheckpoint is a JSON-serializable resumable snapshot of a
// simulation (see Sim.Checkpoint / Sim.Restore): long Monte Carlo runs
// can persist their state and continue bit-exactly later.
type SimCheckpoint = solver.Checkpoint

// ErrBlockaded is returned when no tunnel event is possible and no
// input change can unblock the circuit (hard Coulomb blockade at T=0).
var ErrBlockaded = solver.ErrBlockaded

// NewSim prepares a Monte Carlo simulation of a built circuit.
func NewSim(c *Circuit, opt Options) (*Sim, error) { return solver.New(c, opt) }

// MasterResult is the steady-state master-equation solution for a
// single-island circuit.
type MasterResult = master.Result

// MasterSolve computes the exact stationary state of a single-island
// circuit: charge-state probabilities and junction currents. It is the
// validation reference for the Monte Carlo engine.
func MasterSolve(c *Circuit, temp float64, nmin, nmax int) (*MasterResult, error) {
	return master.Solve(c, temp, nmin, nmax)
}

// MasterResultN is the stationary solution for a multi-island circuit.
type MasterResultN = master.ResultN

// MasterSolveN solves the master equation of a normal-state circuit
// with any number of islands over a truncated occupation box of
// +-radius electrons per island. The state count grows exponentially
// with the island count — the method's inherent limitation, and the
// reason Monte Carlo is the tool for large circuits.
func MasterSolveN(c *Circuit, temp float64, radius int) (*MasterResultN, error) {
	return master.SolveN(c, temp, radius)
}

// RefineAxis subdivides each interval of vs into 2^depth equal steps —
// the fine lattice on which a `map` deck with `refine depth` places its
// points.
func RefineAxis(vs []float64, depth int) []float64 { return sweep.RefineAxis(vs, depth) }

// Observability: a metrics registry, a structured run journal with
// Chrome trace_event export, phase spans and an optional live HTTP
// endpoint (metrics + pprof). Observation is passive — instrumented
// runs are bit-identical to uninstrumented ones — and free when off.
type (
	// Observer collects metrics and (optionally) a trace journal from
	// every simulation it is attached to. A nil Observer is valid and
	// disables all observation at zero cost.
	Observer = obs.Observer
	// ObsConfig selects an Observer's features; the zero value enables
	// metrics only.
	ObsConfig = obs.Config
	// ObsServer is a live observability HTTP endpoint.
	ObsServer = obs.Server
)

// NewObserver creates an observability handle. Attach it to a
// simulation via Options.Obs, or install it process-wide with
// SetGlobalObserver so every simulation, sweep and master solve
// reports to it.
func NewObserver(cfg ObsConfig) *Observer { return obs.New(cfg) }

// SetGlobalObserver installs (or, with nil, removes) the process-wide
// observer that simulations without an explicit Options.Obs report to.
func SetGlobalObserver(o *Observer) { obs.SetGlobal(o) }

// GlobalObserver returns the installed process-wide observer, or nil.
func GlobalObserver() *Observer { return obs.Global() }

// ServeObs starts a live observability HTTP endpoint for o on addr
// (":0" picks a free port): /metrics, /trace, /heatmap and
// /debug/pprof/ for profiling long runs.
func ServeObs(addr string, o *Observer) (*ObsServer, error) { return obs.Serve(addr, o) }

// Waveform post-processing.
var (
	// ErrNoCrossing reports that a waveform never crossed the threshold.
	ErrNoCrossing = trace.ErrNoCrossing
)

// SmoothWaveform applies a causal moving average over the given window
// in O(n); sample times must be non-decreasing, as Sim.Waveform returns
// them.
func SmoothWaveform(w []Sample, window float64) []Sample { return trace.Smooth(w, window) }

// VCDSignal names a waveform for WriteVCD export.
type VCDSignal = trace.VCDSignal

// WriteVCD exports waveforms as a Value Change Dump so Monte Carlo
// traces open in ordinary digital waveform viewers (each signal gets an
// analog real plus a thresholded logic wire).
func WriteVCD(w io.Writer, module string, signals []VCDSignal) error {
	return trace.WriteVCD(w, module, signals)
}

// PropagationDelay extracts the 50%-swing delay from an input step at
// stepTime to the (smoothed) output threshold crossing.
func PropagationDelay(w []Sample, stepTime, threshold, smoothWindow float64, rising bool) (float64, error) {
	return trace.PropagationDelay(w, stepTime, threshold, smoothWindow, rising)
}
