// Package circuit models a single-electron device circuit: islands and
// external leads connected by tunnel junctions and capacitors, with DC
// and time-dependent voltage sources and per-island background charges.
//
// After Build, the circuit is immutable and exposes exactly the
// quantities the orthodox theory needs (paper Eq. 2):
//
//   - the inverse island capacitance matrix C^-1 (Cinv),
//   - island potentials v = C^-1 (q_e + C_IE * v_ext) for a given
//     electron configuration and time,
//   - topological adjacency used by the adaptive solver's
//     breadth-first spill.
//
// Solver state (electron counts, cached potentials) lives in the
// solver; the circuit itself is shared and read-only during simulation.
package circuit

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"semsim/internal/matrix"
	"semsim/internal/numeric"
	"semsim/internal/units"
)

// NodeKind classifies circuit nodes.
type NodeKind int

const (
	// Island is a floating conductor whose excess electron count is a
	// dynamic variable.
	Island NodeKind = iota
	// External is a lead held at a source-defined potential (including
	// ground, an External at 0 V).
	External
)

func (k NodeKind) String() string {
	switch k {
	case Island:
		return "island"
	case External:
		return "external"
	default:
		return fmt.Sprintf("NodeKind(%d)", int(k))
	}
}

// Source supplies the voltage of an external node as a function of time.
type Source interface {
	V(t float64) float64
	// Static reports whether the source is constant in time. Circuits
	// whose sources are all static never need input-driven rate
	// recalculation.
	Static() bool
}

// DC is a constant voltage source.
type DC float64

// V returns the constant voltage.
func (d DC) V(float64) float64 { return float64(d) }

// Static always reports true.
func (d DC) Static() bool { return true }

// Sine is a sinusoidal source v(t) = Offset + Amp*sin(2*pi*Freq*t + Phase).
type Sine struct {
	Offset, Amp, Freq, Phase float64
}

// V returns the source voltage at time t.
func (s Sine) V(t float64) float64 {
	return s.Offset + s.Amp*math.Sin(2*math.Pi*s.Freq*t+s.Phase)
}

// Static reports whether the amplitude is zero.
func (s Sine) Static() bool { return s.Amp == 0 }

// PWL is a piecewise-linear source defined by (time, voltage) breakpoints
// with constant extrapolation outside the range. Breakpoint times must be
// strictly increasing.
type PWL struct {
	T, Volt []float64
}

// V returns the linearly interpolated voltage at time t.
func (p PWL) V(t float64) float64 {
	n := len(p.T)
	if n == 0 {
		return 0
	}
	if t <= p.T[0] {
		return p.Volt[0]
	}
	if t >= p.T[n-1] {
		return p.Volt[n-1]
	}
	// Linear scan: PWL sources have a handful of breakpoints.
	for i := 1; i < n; i++ {
		if t <= p.T[i] {
			f := (t - p.T[i-1]) / (p.T[i] - p.T[i-1])
			return p.Volt[i-1] + f*(p.Volt[i]-p.Volt[i-1])
		}
	}
	return p.Volt[n-1]
}

// RampStep returns a time-step subdivision for the Monte Carlo solver
// while t lies inside a segment whose voltage is actively changing
// (1/16 of the segment length), or 0 when the local voltage is flat.
// This keeps tunnel rates approximately constant across each MC step.
func (p PWL) RampStep(t float64) float64 {
	for i := 1; i < len(p.T); i++ {
		if t >= p.T[i-1] && t < p.T[i] {
			if !numeric.SameBits(p.Volt[i], p.Volt[i-1]) {
				return (p.T[i] - p.T[i-1]) / 16
			}
			return 0
		}
	}
	return 0
}

// Static reports whether all breakpoint voltages are equal.
func (p PWL) Static() bool {
	for _, v := range p.Volt[1:] {
		if !numeric.SameBits(v, p.Volt[0]) {
			return false
		}
	}
	return true
}

// Junction is a tunnel junction between nodes A and B with tunnel
// resistance R (ohms) and capacitance C (farads).
type Junction struct {
	A, B int
	R, C float64
}

// Capacitor is an ideal (non-tunneling) capacitance between two nodes.
type Capacitor struct {
	A, B int
	C    float64
}

// Circuit is a single-electron circuit under construction or, after
// Build, a frozen description ready for simulation.
type Circuit struct {
	names     []string
	kinds     []NodeKind
	sources   []Source  // indexed by node; nil for islands
	bgCharge  []float64 // coulombs, indexed by node (meaningful for islands)
	junctions []Junction
	caps      []Capacitor

	// Superconducting parameters; zero GapAt0 means normal state.
	super SuperParams

	built bool

	// Everything below is populated by Build.
	islands   []int       // node ids of islands, in matrix order
	islandIdx []int       // node id -> island row, -1 for externals
	externals []int       // node ids of externals
	extIdx    []int       // node id -> external column, -1 for islands
	ccsr      *matrix.CSR // assembled C in CSR form (always)
	csigma    []float64   // diagonal of C: per-island total capacitance
	pot       *Potentials // the potential engine
	nodeJuncs [][]int     // node id -> junction ids touching it
	juncNbrs  [][]int     // junction id -> neighbouring junction ids
	allStatic bool
}

// SuperParams describes the superconducting state of a circuit in which
// every electrode is the same superconductor (the paper's supported
// configuration: "circuits can contain superconducting or
// non-superconducting elements, but not both").
type SuperParams struct {
	// GapAt0 is the zero-temperature gap Delta(0) in joules. Zero means
	// the circuit is in the normal state.
	GapAt0 float64
	// Tc is the critical temperature in kelvin.
	Tc float64
}

// Superconducting reports whether the parameters describe a
// superconducting circuit.
func (p SuperParams) Superconducting() bool { return p.GapAt0 > 0 }

// New returns an empty circuit.
func New() *Circuit { return &Circuit{} }

// AddNode adds a node and returns its id. Ids are dense from 0.
func (c *Circuit) AddNode(name string, kind NodeKind) int {
	c.mustBeMutable()
	id := len(c.names)
	if name == "" {
		name = fmt.Sprintf("n%d", id)
	}
	c.names = append(c.names, name)
	c.kinds = append(c.kinds, kind)
	c.sources = append(c.sources, nil)
	c.bgCharge = append(c.bgCharge, 0)
	return id
}

// AddJunction adds a tunnel junction and returns its id.
func (c *Circuit) AddJunction(a, b int, r, cap float64) int {
	c.mustBeMutable()
	c.checkNode(a)
	c.checkNode(b)
	if a == b {
		panic("circuit: junction endpoints identical")
	}
	if r <= 0 || cap <= 0 {
		panic(fmt.Sprintf("circuit: junction needs positive R and C, got R=%g C=%g", r, cap))
	}
	c.junctions = append(c.junctions, Junction{A: a, B: b, R: r, C: cap})
	return len(c.junctions) - 1
}

// AddCap adds an ideal capacitor.
func (c *Circuit) AddCap(a, b int, cap float64) {
	c.mustBeMutable()
	c.checkNode(a)
	c.checkNode(b)
	if a == b {
		panic("circuit: capacitor endpoints identical")
	}
	if cap <= 0 {
		panic(fmt.Sprintf("circuit: capacitor needs positive C, got %g", cap))
	}
	c.caps = append(c.caps, Capacitor{A: a, B: b, C: cap})
}

// SetSource attaches a voltage source to an external node.
func (c *Circuit) SetSource(node int, s Source) {
	c.mustBeMutable()
	c.checkNode(node)
	if c.kinds[node] != External {
		panic(fmt.Sprintf("circuit: SetSource on non-external node %d", node))
	}
	c.sources[node] = s
}

// SetBackgroundCharge sets the fixed background (offset) charge of an
// island in coulombs. The paper's Fig. 5 experiment uses Qb = 0.65 e.
func (c *Circuit) SetBackgroundCharge(node int, q float64) {
	c.mustBeMutable()
	c.checkNode(node)
	if c.kinds[node] != Island {
		panic(fmt.Sprintf("circuit: background charge on non-island node %d", node))
	}
	c.bgCharge[node] = q
}

// SetSuper marks the circuit as superconducting with the given
// zero-temperature gap (joules) and critical temperature (kelvin).
func (c *Circuit) SetSuper(p SuperParams) {
	c.mustBeMutable()
	c.super = p
}

// Super returns the superconducting parameters.
func (c *Circuit) Super() SuperParams { return c.super }

func (c *Circuit) mustBeMutable() {
	if c.built {
		panic("circuit: modification after Build")
	}
}

func (c *Circuit) checkNode(id int) {
	if id < 0 || id >= len(c.names) {
		panic(fmt.Sprintf("circuit: node %d out of range [0,%d)", id, len(c.names)))
	}
}

// ErrNoIslands is returned by Build when a circuit has no islands:
// there is nothing for a single-electron simulator to do.
var ErrNoIslands = errors.New("circuit: no islands")

// Build freezes the circuit at the default C^-1 truncation threshold:
// assembles the island capacitance matrix, solves its truncated inverse
// rows and precomputes adjacency. It returns an error if the circuit is
// electrically ill-posed (an island with no capacitance, an external
// without a source, no islands at all).
func (c *Circuit) Build() error { return c.BuildWith(BuildOptions{}) }

// BuildWith freezes the circuit like Build at the caller's truncation
// threshold (see BuildOptions), which must pass CheckCinvTruncation.
// The dense inverse is never formed, so circuits far beyond a dense
// memory ceiling stay buildable.
func (c *Circuit) BuildWith(bo BuildOptions) error {
	if c.built {
		return errors.New("circuit: Build called twice")
	}
	if err := CheckCinvTruncation(bo.CinvTruncation); err != nil {
		return err
	}
	n := len(c.names)
	c.islandIdx = make([]int, n)
	c.extIdx = make([]int, n)
	for i := range c.islandIdx {
		c.islandIdx[i] = -1
		c.extIdx[i] = -1
	}
	for id, k := range c.kinds {
		switch k {
		case Island:
			c.islandIdx[id] = len(c.islands)
			c.islands = append(c.islands, id)
		case External:
			if c.sources[id] == nil {
				return fmt.Errorf("circuit: external node %d (%s) has no source", id, c.names[id])
			}
			c.extIdx[id] = len(c.externals)
			c.externals = append(c.externals, id)
		}
	}
	if len(c.islands) == 0 {
		return ErrNoIslands
	}

	ni, ne := len(c.islands), len(c.externals)
	// The islands x externals coupling capacitances C_IE, needed only
	// by the build's mext rows.
	cie := make([][]float64, ni)
	for i := range cie {
		cie[i] = make([]float64, ne)
	}
	// Assemble C as triplets (junctions first, then capacitors, matching
	// the historical dense accumulation order: CSRFromTriplets sums
	// duplicates in input order, so every matrix entry is the same float
	// the AddSym loop used to produce). The same pass groups the islands
	// each element joins (union-find over island rows) and marks a group
	// grounded when an element ties it to an external node.
	ts := make([]matrix.Triplet, 0, 4*(len(c.junctions)+len(c.caps)))
	group := make([]int, ni) // union-find parent of each island row
	for i := range group {
		group[i] = i
	}
	root := func(i int) int {
		for group[i] != i {
			group[i] = group[group[i]]
			i = group[i]
		}
		return i
	}
	grounded := make([]bool, ni) // meaningful at group roots
	addCap := func(a, b int, cap float64) {
		ia, ib := c.islandIdx[a], c.islandIdx[b]
		if ia >= 0 {
			ts = append(ts, matrix.Triplet{I: ia, J: ia, V: cap})
		}
		if ib >= 0 {
			ts = append(ts, matrix.Triplet{I: ib, J: ib, V: cap})
		}
		switch {
		case ia >= 0 && ib >= 0:
			ts = append(ts, matrix.Triplet{I: ia, J: ib, V: -cap},
				matrix.Triplet{I: ib, J: ia, V: -cap})
			if ra, rb := root(ia), root(ib); ra != rb {
				group[rb] = ra
				grounded[ra] = grounded[ra] || grounded[rb]
			}
		case ia >= 0:
			cie[ia][c.extIdx[b]] += cap
			grounded[root(ia)] = true
		case ib >= 0:
			cie[ib][c.extIdx[a]] += cap
			grounded[root(ib)] = true
		}
	}
	for _, j := range c.junctions {
		addCap(j.A, j.B, j.C)
	}
	for _, cp := range c.caps {
		addCap(cp.A, cp.B, cp.C)
	}
	// An island group with no capacitance to any external node makes C
	// singular (its rows sum to zero), even where rounding leaves the
	// last Cholesky pivot positive. Name the first island of each such
	// group; FactorCSR's pivot test stays as the backstop.
	var floating []string
	for i := range group {
		if r := root(i); !grounded[r] {
			grounded[r] = true // report each group once
			floating = append(floating, c.names[c.islands[i]])
		}
	}
	if len(floating) > 0 {
		return fmt.Errorf("circuit: capacitance matrix is singular: no capacitance to any external node from the island group(s) of %s: %w",
			strings.Join(floating, ", "), matrix.ErrNotPositiveDefinite)
	}
	c.ccsr = matrix.CSRFromTriplets(ni, ni, ts)
	c.csigma = make([]float64, ni)
	for i := range c.csigma {
		c.csigma[i] = c.ccsr.At(i, i)
	}

	pot, err := buildPotentials(c, bo, cieNonzeros(cie))
	if err != nil {
		return fmt.Errorf("circuit: capacitance matrix is singular (floating island with no capacitance?): %w", err)
	}
	c.pot = pot

	c.buildAdjacency()

	c.allStatic = true
	for _, id := range c.externals {
		if !c.sources[id].Static() {
			c.allStatic = false
			break
		}
	}
	c.built = true
	return nil
}

// buildAdjacency computes, for the adaptive solver, which junctions
// touch each node and which junctions neighbour each junction. Two
// junctions are neighbours when they share an *island* or their islands
// are bridged by a single capacitor — the "junctions nearest to the
// tunneling event" of Algorithm 1. External nodes do not mediate
// adjacency: a voltage source pins its potential, so junctions that
// share only a supply rail are electrostatically independent (the
// corresponding C^-1 entries are exactly zero) — and rails fan out to
// thousands of junctions in logic circuits.
func (c *Circuit) buildAdjacency() {
	n := len(c.names)
	c.nodeJuncs = make([][]int, n)
	for jid, j := range c.junctions {
		c.nodeJuncs[j.A] = append(c.nodeJuncs[j.A], jid)
		c.nodeJuncs[j.B] = append(c.nodeJuncs[j.B], jid)
	}
	// Island adjacency through capacitors (junction capacitance already
	// links junctions through shared islands).
	capNbr := make([][]int, n)
	for _, cp := range c.caps {
		if c.islandIdx[cp.A] >= 0 && c.islandIdx[cp.B] >= 0 {
			capNbr[cp.A] = append(capNbr[cp.A], cp.B)
			capNbr[cp.B] = append(capNbr[cp.B], cp.A)
		}
	}
	c.juncNbrs = make([][]int, len(c.junctions))
	seen := make([]int, len(c.junctions))
	for i := range seen {
		seen[i] = -1
	}
	for jid, j := range c.junctions {
		var nbrs []int
		visit := func(node int) {
			if c.islandIdx[node] < 0 {
				return
			}
			for _, other := range c.nodeJuncs[node] {
				if other != jid && seen[other] != jid {
					seen[other] = jid
					nbrs = append(nbrs, other)
				}
			}
		}
		for _, node := range [2]int{j.A, j.B} {
			visit(node)
			if c.islandIdx[node] < 0 {
				continue
			}
			for _, across := range capNbr[node] {
				visit(across)
			}
		}
		c.juncNbrs[jid] = nbrs
	}
}

// --- Accessors (valid after Build) ---

// NumNodes returns the total node count.
func (c *Circuit) NumNodes() int { return len(c.names) }

// NumIslands returns the island count (the capacitance matrix dimension).
func (c *Circuit) NumIslands() int { return len(c.islands) }

// NumJunctions returns the tunnel junction count.
func (c *Circuit) NumJunctions() int { return len(c.junctions) }

// Junction returns junction jid.
func (c *Circuit) Junction(jid int) Junction { return c.junctions[jid] }

// Junctions returns the junction list (read-only).
func (c *Circuit) Junctions() []Junction { return c.junctions }

// AllCapacitors returns the ideal (non-junction) capacitors (read-only).
func (c *Circuit) AllCapacitors() []Capacitor { return c.caps }

// NodeName returns the name of node id.
func (c *Circuit) NodeName(id int) string { return c.names[id] }

// NodeKindOf returns the kind of node id.
func (c *Circuit) NodeKindOf(id int) NodeKind { return c.kinds[id] }

// Islands returns the island node ids in matrix order.
func (c *Circuit) Islands() []int { return c.islands }

// IslandIndex maps a node id to its capacitance-matrix row, or -1.
func (c *Circuit) IslandIndex(id int) int { return c.islandIdx[id] }

// Externals returns external node ids.
func (c *Circuit) Externals() []int { return c.externals }

// BackgroundCharge returns the background charge (coulombs) of a node.
func (c *Circuit) BackgroundCharge(id int) float64 { return c.bgCharge[id] }

// AllSourcesStatic reports whether no source varies with time.
func (c *Circuit) AllSourcesStatic() bool { return c.allStatic }

// SourceVoltage returns the voltage of external node id at time t.
func (c *Circuit) SourceVoltage(id int, t float64) float64 {
	return c.sources[id].V(t)
}

// SourceOf returns the source attached to external node id (nil for
// islands). The solver inspects source types to schedule input-change
// handling.
func (c *Circuit) SourceOf(id int) Source { return c.sources[id] }

// Cinv returns the (i, j) element of the inverse capacitance matrix by
// node id; entries involving external nodes are zero (a voltage source
// absorbs charge with no potential change), which is exactly the
// convention Eq. 2 needs. The value comes from the circuit's built
// potential engine, so it reflects the build's truncation.
func (c *Circuit) Cinv(a, b int) float64 { return c.pot.Cinv(a, b) }

// CSR returns the assembled island capacitance matrix in CSR form
// (read-only), mainly for tests and diagnostics.
func (c *Circuit) CSR() *matrix.CSR { return c.ccsr }

// SumCapacitance returns the total capacitance C_sigma attached to an
// island — the diagonal of the capacitance matrix — which sets the
// charging energy e^2/(2 C_sigma).
func (c *Circuit) SumCapacitance(node int) float64 {
	i := c.islandIdx[node]
	if i < 0 {
		panic(fmt.Sprintf("circuit: SumCapacitance of non-island %d", node))
	}
	return c.csigma[i]
}

// JunctionsAt returns the junction ids touching a node.
func (c *Circuit) JunctionsAt(node int) []int { return c.nodeJuncs[node] }

// JunctionNeighbors returns the ids of junctions adjacent to junction
// jid (sharing a node or linked through one capacitor).
func (c *Circuit) JunctionNeighbors(jid int) []int { return c.juncNbrs[jid] }

// ExternalVoltages fills dst (length NumExternals) with source voltages
// at time t and returns it; dst may be nil.
func (c *Circuit) ExternalVoltages(dst []float64, t float64) []float64 {
	if dst == nil {
		dst = make([]float64, len(c.externals))
	}
	for s, id := range c.externals {
		dst[s] = c.sources[id].V(t)
	}
	return dst
}

// IslandPotentials computes the potential of every island for electron
// counts n (length NumIslands, in island order) at time t, writing into
// dst (allocated if nil). Potentials follow
//
//	v = Cinv * (q_bg - e*n) + mext * v_ext.
func (c *Circuit) IslandPotentials(dst []float64, n []int, t float64) []float64 {
	ni := len(c.islands)
	if len(n) != ni {
		panic(fmt.Sprintf("circuit: IslandPotentials electron vector length %d, want %d", len(n), ni))
	}
	if dst == nil {
		dst = make([]float64, ni)
	}
	q := c.ChargeVector(nil, n)
	vext := c.ExternalVoltages(nil, t)
	c.pot.Solve(dst, q, vext)
	return dst
}

// ChargeVector fills dst (island order, allocated when nil) with each
// island's total charge q_bg - e*n.
func (c *Circuit) ChargeVector(dst []float64, n []int) []float64 {
	if dst == nil {
		dst = make([]float64, len(c.islands))
	}
	for i, id := range c.islands {
		dst[i] = c.bgCharge[id] - units.E*float64(n[i])
	}
	return dst
}

// NodePotential returns the potential of any node given precomputed
// island potentials (island order) and the time.
func (c *Circuit) NodePotential(id int, islandV []float64, t float64) float64 {
	if i := c.islandIdx[id]; i >= 0 {
		return islandV[i]
	}
	return c.sources[id].V(t)
}

// ExternalDelta fills dst (island order) with the island potential
// change caused by external voltages moving from vext0 to vext1:
// dv = mext * (v1 - v0).
func (c *Circuit) ExternalDelta(dst, vext0, vext1 []float64) {
	c.pot.ExternalDelta(dst, vext0, vext1)
}
