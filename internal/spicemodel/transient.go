package spicemodel

import (
	"errors"
	"fmt"
	"math"

	"semsim/internal/circuit"
	"time"

	"semsim/internal/matrix"
	"semsim/internal/solver"
)

// ErrNoConvergence is the SPICE-style failure the paper reports for
// three of its fifteen benchmarks.
var ErrNoConvergence = errors.New("spicemodel: Newton-Raphson failed to converge")

// ErrWallBudget reports that a transient exceeded its wall-clock
// budget (Sim.WallBudget). The experiment harness treats it like a
// solver failure: this dense-matrix baseline lacks the sparse solver a
// production SPICE would use, so the largest benchmarks are
// impractical for it.
var ErrWallBudget = errors.New("spicemodel: transient exceeded its wall-clock budget")

// setDevice is a compact-model SET instance: terminals A and B (node
// indices in the transient's numbering) and capacitive gates.
type setDevice struct {
	a, b  int
	gates []gateCoupling
	model *Model
}

type gateCoupling struct {
	node int
	c    float64
}

// capElem is an ordinary capacitor between two transient nodes.
type capElem struct {
	a, b int
	c    float64
}

// Sim is the SPICE-baseline transient simulator for a SET circuit.
type Sim struct {
	c *circuit.Circuit

	// Transient node numbering: 0..nUnknown-1 are wire nodes (islands
	// that are not SET-internal), then externals (fixed voltages).
	nodeOf   []int // transient index -> circuit node id
	idxOf    []int // circuit node id -> transient index, -1 = eliminated island
	nUnknown int

	devices []setDevice
	caps    []capElem

	t float64
	v []float64 // all transient node voltages (unknowns first)

	probes []int // circuit node ids
	waves  map[int][]solver.Sample

	// Newton-Raphson controls.
	MaxNewton   int
	MaxStepCuts int
	VTol        float64
	// WallBudget, when positive, aborts Run with ErrWallBudget once the
	// wall clock exceeds it.
	WallBudget time.Duration
}

// FromCircuit builds the compact-model view of a built single-electron
// circuit: every island with exactly two junctions becomes a SET device
// (its island is eliminated), every junction-free island becomes a wire
// node. Islands with any other junction count are not representable by
// the compact model.
func FromCircuit(c *circuit.Circuit, temp float64) (*Sim, error) {
	s := &Sim{
		c:           c,
		idxOf:       make([]int, c.NumNodes()),
		waves:       map[int][]solver.Sample{},
		MaxNewton:   60,
		MaxStepCuts: 8,
		VTol:        1e-7,
	}
	for i := range s.idxOf {
		s.idxOf[i] = -1
	}
	// Classify islands as SET device islands or circuit terminals
	// (wires). Every junction must connect exactly one device island to
	// one terminal, so the junction graph is 2-colorable starting from
	// the externals (which are terminals by definition). A circuit that
	// violates this — e.g. a junction directly between two wires — is
	// not representable by a compact SET model.
	const (
		unknownKind = iota
		terminalKind
		deviceKind
	)
	kind := make([]int, c.NumNodes())
	queue := make([]int, 0, c.NumNodes())
	for _, ext := range c.Externals() {
		kind[ext] = terminalKind
		queue = append(queue, ext)
	}
	for head := 0; head < len(queue); head++ {
		node := queue[head]
		want := deviceKind
		if kind[node] == deviceKind {
			want = terminalKind
		}
		for _, j := range c.JunctionsAt(node) {
			jn := c.Junction(j)
			other := jn.A
			if other == node {
				other = jn.B
			}
			switch kind[other] {
			case unknownKind:
				if c.IslandIndex(other) < 0 {
					// External reached as a device island: impossible.
					return nil, fmt.Errorf("spicemodel: junction directly between externals %s and %s", c.NodeName(node), c.NodeName(other))
				}
				kind[other] = want
				queue = append(queue, other)
			case want:
			default:
				return nil, fmt.Errorf("spicemodel: junction between %s and %s breaks the SET device/terminal structure", c.NodeName(node), c.NodeName(other))
			}
		}
	}
	isSETIsland := make([]bool, c.NumNodes())
	for _, isl := range c.Islands() {
		switch kind[isl] {
		case deviceKind:
			if nj := len(c.JunctionsAt(isl)); nj != 2 {
				return nil, fmt.Errorf("spicemodel: device island %s has %d junctions, want 2", c.NodeName(isl), nj)
			}
			isSETIsland[isl] = true
		case unknownKind:
			if len(c.JunctionsAt(isl)) > 0 {
				return nil, fmt.Errorf("spicemodel: junction component around %s is not anchored to any source", c.NodeName(isl))
			}
		}
	}
	// Unknowns first.
	for _, isl := range c.Islands() {
		if !isSETIsland[isl] {
			s.idxOf[isl] = len(s.nodeOf)
			s.nodeOf = append(s.nodeOf, isl)
		}
	}
	s.nUnknown = len(s.nodeOf)
	for _, ext := range c.Externals() {
		s.idxOf[ext] = len(s.nodeOf)
		s.nodeOf = append(s.nodeOf, ext)
	}

	// Devices: walk SET islands, classify their caps as gates; compact
	// models are shared by geometry, globally across simulations (a
	// table build runs ~4000 master-equation solves).
	models := map[DeviceParams]*Model{}
	// Determine vmax from the sources that actually serve as device
	// terminals (junction endpoints). Gate-bias rails can sit at tens of
	// e/Cb volts and must not coarsen the table: wire nodes stay within
	// the terminal-supply range, so this bounds every device's Vds.
	vmax := 0.0
	peak := func(src circuit.Source) float64 {
		switch s := src.(type) {
		case circuit.DC:
			return math.Abs(float64(s))
		case circuit.Sine:
			return math.Abs(s.Offset) + math.Abs(s.Amp)
		case circuit.PWL:
			m := 0.0
			for _, v := range s.Volt {
				if a := math.Abs(v); a > m {
					m = a
				}
			}
			return m
		default:
			return math.Abs(src.V(0))
		}
	}
	for _, jn := range c.Junctions() {
		for _, node := range [2]int{jn.A, jn.B} {
			if c.IslandIndex(node) >= 0 {
				continue
			}
			if v := peak(c.SourceOf(node)); v > vmax {
				vmax = v
			}
		}
	}
	if vmax == 0 {
		vmax = 0.1
	}
	capTouching := map[int][]circuit.Capacitor{}
	for _, cp := range c.AllCapacitors() {
		capTouching[cp.A] = append(capTouching[cp.A], cp)
		capTouching[cp.B] = append(capTouching[cp.B], cp)
	}
	for _, isl := range c.Islands() {
		if !isSETIsland[isl] {
			continue
		}
		js := c.JunctionsAt(isl)
		j1, j2 := c.Junction(js[0]), c.Junction(js[1])
		other := func(j circuit.Junction) int {
			if j.A == isl {
				return j.B
			}
			return j.A
		}
		a, b := other(j1), other(j2)
		dev := setDevice{a: s.idxOf[a], b: s.idxOf[b]}
		p := DeviceParams{R1: j1.R, R2: j2.R, C1: j1.C, C2: j2.C, Temp: temp}
		for _, cp := range capTouching[isl] {
			g := cp.A
			if g == isl {
				g = cp.B
			}
			if isSETIsland[g] {
				return nil, fmt.Errorf("spicemodel: direct island-island coupling at %s is outside the compact model", c.NodeName(isl))
			}
			dev.gates = append(dev.gates, gateCoupling{node: s.idxOf[g], c: cp.C})
			p.CgSum += cp.C
		}
		if p.CgSum == 0 {
			return nil, fmt.Errorf("spicemodel: SET at %s has no gate capacitance", c.NodeName(isl))
		}
		mdl, ok := models[p]
		if !ok {
			var err error
			mdl, err = cachedModel(p, 3*vmax)
			if err != nil {
				return nil, err
			}
			models[p] = mdl
		}
		dev.model = mdl
		s.devices = append(s.devices, dev)

		// Compact-model terminal loading: each terminal and gate sees
		// its capacitance in series with the rest of the island.
		cs := p.Csum()
		load := func(node int, cc float64) {
			s.caps = append(s.caps, capElem{a: node, b: -1, c: cc * (cs - cc) / cs})
		}
		load(dev.a, j1.C)
		load(dev.b, j2.C)
		for i, g := range dev.gates {
			_ = i
			load(g.node, g.c)
		}
	}
	// Ordinary caps between non-island nodes.
	for _, cp := range c.AllCapacitors() {
		if isSETIsland[cp.A] || isSETIsland[cp.B] {
			continue
		}
		s.caps = append(s.caps, capElem{a: s.idxOf[cp.A], b: s.idxOf[cp.B], c: cp.C})
	}

	// Initial condition: wires at 0, externals at their t=0 values.
	s.v = make([]float64, len(s.nodeOf))
	for i := s.nUnknown; i < len(s.nodeOf); i++ {
		s.v[i] = c.SourceVoltage(s.nodeOf[i], 0)
	}
	return s, nil
}

// voltage returns the present voltage of transient node i (ground for
// the virtual node -1).
func (s *Sim) voltage(v []float64, i int) float64 {
	if i < 0 {
		return 0
	}
	return v[i]
}

// Probe records a node's waveform during Run.
func (s *Sim) Probe(node int) {
	s.probes = append(s.probes, node)
}

// Waveform returns the recorded samples for a probed circuit node.
func (s *Sim) Waveform(node int) []solver.Sample { return s.waves[node] }

// Voltage returns the present voltage of a circuit node.
func (s *Sim) Voltage(node int) float64 {
	i := s.idxOf[node]
	if i < 0 {
		panic("spicemodel: voltage of eliminated SET island")
	}
	return s.v[i]
}

// Time returns the current transient time.
func (s *Sim) Time() float64 { return s.t }

// q0 computes a device's effective induced charge. The table was built
// with the drain terminal at 0 V, so the in-circuit operating point
// maps onto it by referencing every gate to the drain terminal:
//
//	q0 = sum_k Cg_k * (v_gk - v_b)
//
// (Shifting all terminals and gates by a common mode leaves the island
// physics invariant; folding absolute gate voltages or a (C1+C2)*v_b
// term into q0 instead mis-biases the device by Csum*v_b.)
func (d *setDevice) q0(s *Sim, v []float64) float64 {
	vb := s.voltage(v, d.b)
	q := 0.0
	for _, g := range d.gates {
		q += g.c * (s.voltage(v, g.node) - vb)
	}
	return q
}

// Run advances the transient to tEnd with uniform step dt, recording
// probes after every accepted step. On Newton failure the step is cut
// up to MaxStepCuts times before ErrNoConvergence is returned.
func (s *Sim) Run(tEnd, dt float64) error {
	if dt <= 0 {
		return fmt.Errorf("spicemodel: non-positive time step")
	}
	n := s.nUnknown
	jac := matrix.NewDense(n)
	rhs := make([]float64, n)
	vNew := make([]float64, len(s.v))
	start := time.Now()
	s.record()
	for s.t < tEnd {
		if s.WallBudget > 0 && time.Since(start) > s.WallBudget {
			return fmt.Errorf("%w after %v at t=%g", ErrWallBudget, s.WallBudget, s.t)
		}
		step := dt
		cuts := 0
		for {
			err := s.newtonStep(jac, rhs, vNew, step)
			if err == nil {
				break
			}
			cuts++
			if cuts > s.MaxStepCuts {
				return fmt.Errorf("%w at t=%g", ErrNoConvergence, s.t)
			}
			step /= 4
		}
		copy(s.v, vNew)
		s.t += step
		s.record()
	}
	return nil
}

func (s *Sim) record() {
	for _, node := range s.probes {
		s.waves[node] = append(s.waves[node], solver.Sample{T: s.t, V: s.Voltage(node)})
	}
}

// newtonStep solves one backward-Euler step of length dt into vNew.
func (s *Sim) newtonStep(jac *matrix.Dense, rhs, vNew []float64, dt float64) error {
	n := s.nUnknown
	copy(vNew, s.v)
	// Externals at the new time.
	tNew := s.t + dt
	for i := n; i < len(s.nodeOf); i++ {
		vNew[i] = s.c.SourceVoltage(s.nodeOf[i], tNew)
	}
	for iter := 0; iter < s.MaxNewton; iter++ {
		jac.Zero()
		for i := range rhs {
			rhs[i] = 0
		}
		// Capacitors: i_C = C * (dv_ab(new) - dv_ab(old)) / dt.
		for _, cp := range s.caps {
			g := cp.c / dt
			dvNew := s.voltage(vNew, cp.a) - s.voltage(vNew, cp.b)
			dvOld := s.voltage(s.v, cp.a) - s.voltage(s.v, cp.b)
			ic := g * (dvNew - dvOld)
			stamp2(jac, rhs, n, cp.a, cp.b, g, ic)
		}
		// SET devices: current a -> b of I(vds, q0) with gate
		// transconductance stamps.
		for di := range s.devices {
			d := &s.devices[di]
			vds := s.voltage(vNew, d.a) - s.voltage(vNew, d.b)
			q0 := d.q0(s, vNew)
			i := d.model.Current(vds, q0)
			gds, gq := d.model.GV(vds, q0)
			// KCL: +i leaves a, enters b.
			addRHS(rhs, n, d.a, i)
			addRHS(rhs, n, d.b, -i)
			addJac(jac, n, d.a, d.a, gds)
			addJac(jac, n, d.a, d.b, -gds)
			addJac(jac, n, d.b, d.a, -gds)
			addJac(jac, n, d.b, d.b, gds)
			// Gate coupling: dI/dVg = gq * Cg; the drain-referenced q0
			// also depends on the b terminal with weight -sum(Cg).
			cgSum := 0.0
			for _, g := range d.gates {
				addJac(jac, n, d.a, g.node, gq*g.c)
				addJac(jac, n, d.b, g.node, -gq*g.c)
				cgSum += g.c
			}
			addJac(jac, n, d.a, d.b, -gq*cgSum)
			addJac(jac, n, d.b, d.b, gq*cgSum)
		}
		// Convergence on the residual and the update.
		maxRes := 0.0
		for _, r := range rhs {
			if a := math.Abs(r); a > maxRes {
				maxRes = a
			}
		}
		lu, err := matrix.FactorLU(jac)
		if err != nil {
			return err
		}
		delta := make([]float64, n)
		lu.Solve(delta, rhs)
		maxDv := 0.0
		for i := 0; i < n; i++ {
			vNew[i] -= delta[i]
			if a := math.Abs(delta[i]); a > maxDv {
				maxDv = a
			}
		}
		if math.IsNaN(maxDv) {
			return ErrNoConvergence
		}
		if maxDv < s.VTol {
			return nil
		}
	}
	return ErrNoConvergence
}

func addRHS(rhs []float64, n, node int, v float64) {
	if node >= 0 && node < n {
		rhs[node] += v
	}
}

func addJac(jac *matrix.Dense, n, row, col int, v float64) {
	if row >= 0 && row < n && col >= 0 && col < n {
		jac.Add(row, col, v)
	}
}

// stamp2 stamps a linear branch of conductance g carrying current ic
// from a to b.
func stamp2(jac *matrix.Dense, rhs []float64, n, a, b int, g, ic float64) {
	addRHS(rhs, n, a, ic)
	addRHS(rhs, n, b, -ic)
	addJac(jac, n, a, a, g)
	addJac(jac, n, a, b, -g)
	addJac(jac, n, b, a, -g)
	addJac(jac, n, b, b, g)
}

// NumDevices returns how many SETs the compact view found.
func (s *Sim) NumDevices() int { return len(s.devices) }
