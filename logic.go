package semsim

import (
	"io"

	"semsim/internal/bench"
	"semsim/internal/logicnet"
	"semsim/internal/spicemodel"
)

// Gate-level logic front end: parse a gate netlist, expand it into
// nSET/pSET voltage-state logic, and simulate it with the Monte Carlo
// engine or the compact-model SPICE baseline.
type (
	// LogicNetlist is a gate-level circuit (INV/NAND/NOR/AND/OR/XOR/BUF).
	LogicNetlist = logicnet.Netlist
	// LogicGate is one gate instance.
	LogicGate = logicnet.Gate
	// LogicParams is the electrical design of the expanded SET logic.
	LogicParams = logicnet.Params
	// ExpandedLogic is the SET realization of a logic netlist.
	ExpandedLogic = logicnet.Expanded
)

// ParseLogic reads a gate netlist ("out = NAND a b" lines; see the
// logicnet documentation).
func ParseLogic(r io.Reader) (*LogicNetlist, error) { return logicnet.Parse(r) }

// DefaultLogicParams returns the validated nSET/pSET design used by the
// benchmark suite.
func DefaultLogicParams() LogicParams { return logicnet.DefaultParams() }

// ExpandLogic builds the SET circuit for a logic netlist; drive maps
// input names to sources (missing inputs are tied low).
func ExpandLogic(nl *LogicNetlist, p LogicParams, drive map[string]Source) (*ExpandedLogic, error) {
	return nl.Expand(p, drive)
}

// ExpandLogicWith is ExpandLogic with explicit circuit build options,
// e.g. a C^-1 truncation threshold coarser than the default 1e-14.
func ExpandLogicWith(nl *LogicNetlist, p LogicParams, drive map[string]Source, bo BuildOptions) (*ExpandedLogic, error) {
	return nl.ExpandWith(p, drive, bo)
}

// Benchmark is one entry of the paper's 15-circuit evaluation suite.
type Benchmark = bench.Benchmark

// Benchmarks returns the paper's 15 logic benchmarks (76 to 6988
// junctions) in ascending size, re-created at the published junction
// counts.
func Benchmarks() []Benchmark { return bench.Suite() }

// BenchmarkByName returns a suite entry by its Fig. 6 name (e.g.
// "c432", "Full-Adder").
func BenchmarkByName(name string) (Benchmark, bool) { return bench.ByName(name) }

// SpiceSim is the analytical compact-model transient baseline (the
// paper's "SPICE" comparator).
type SpiceSim = spicemodel.Sim

// ErrNoConvergence reports a SPICE Newton-Raphson failure — the paper's
// missing Fig. 6 bars.
var ErrNoConvergence = spicemodel.ErrNoConvergence

// NewSpice builds the compact-model view of a SET circuit: islands with
// two junctions become averaged analytic devices, wires stay as nodes.
func NewSpice(c *Circuit, temp float64) (*SpiceSim, error) {
	return spicemodel.FromCircuit(c, temp)
}
