// Package logicnet turns gate-level logic netlists into single-electron
// transistor circuits, the way the paper prepares its 15 large-scale
// benchmarks: "logic benchmarks were converted into single-electron
// device circuits using CMOS interpretations of the logic circuits",
// using nSETs and pSETs — ordinary SETs with a second, constantly
// biased gate that shifts the Coulomb-oscillation phase so the device
// conducts for a high (nSET) or low (pSET) input (Fig. 4b).
//
// The voltage-state design used here:
//
//   - supply Vdd = SupplyFrac * e/Csum, safely below the blockade
//     threshold of an off transistor;
//   - the second-gate bias rails Vp and Vn are not free parameters:
//     they are solved from the two-hop energetics of a conducting SET.
//     Pulling a wire up moves an electron wire -> island -> Vdd; both
//     hops must be downhill up to the target high level, and the bias
//     charge trades margin between them. Vp is chosen so the two hops
//     have equal margin at the design operating point (and dually Vn
//     for the pull-down nSET), including the mean-field coupling of the
//     junction and gate capacitors to the island. Without this
//     balancing one hop is a few kT uphill and gates freeze mid-swing;
//   - every logic wire is an island with a large load capacitance CL,
//     which both sets realistic RC delays and isolates circuit stages
//     from each other's single-electron events — the locality the
//     adaptive solver exploits (the C1 wire capacitor of Fig. 4a).
package logicnet

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"

	"semsim/internal/circuit"
	"semsim/internal/units"
)

// GateKind enumerates supported gates.
type GateKind int

const (
	INV GateKind = iota
	BUF
	NAND2
	NOR2
	AND2
	OR2
	XOR2
)

var kindNames = map[string]GateKind{
	"INV": INV, "NOT": INV, "BUF": BUF,
	"NAND": NAND2, "NOR": NOR2, "AND": AND2, "OR": OR2, "XOR": XOR2,
}

// String returns the canonical gate name.
func (k GateKind) String() string {
	switch k {
	case INV:
		return "INV"
	case BUF:
		return "BUF"
	case NAND2:
		return "NAND"
	case NOR2:
		return "NOR"
	case AND2:
		return "AND"
	case OR2:
		return "OR"
	case XOR2:
		return "XOR"
	}
	return fmt.Sprintf("GateKind(%d)", int(k))
}

// Inputs returns the required input count.
func (k GateKind) Inputs() int {
	if k == INV || k == BUF {
		return 1
	}
	return 2
}

// SETs returns how many transistors the gate expands to.
func (k GateKind) SETs() int {
	switch k {
	case INV:
		return 2
	case BUF:
		return 4 // two inverters
	case NAND2, NOR2:
		return 4
	case AND2, OR2:
		return 6 // NAND/NOR plus inverter
	case XOR2:
		return 16 // four NANDs
	}
	return 0
}

// Eval computes the boolean function.
func (k GateKind) Eval(in []bool) bool {
	switch k {
	case INV:
		return !in[0]
	case BUF:
		return in[0]
	case NAND2:
		return !(in[0] && in[1])
	case NOR2:
		return !(in[0] || in[1])
	case AND2:
		return in[0] && in[1]
	case OR2:
		return in[0] || in[1]
	case XOR2:
		return in[0] != in[1]
	}
	return false
}

// Gate is one logic gate instance.
type Gate struct {
	Kind GateKind
	Out  string
	In   []string
}

// Netlist is a gate-level circuit.
type Netlist struct {
	Name    string
	Inputs  []string
	Outputs []string
	Gates   []Gate
}

// NumSETs returns the transistor count after expansion.
func (nl *Netlist) NumSETs() int {
	n := 0
	for _, g := range nl.Gates {
		n += g.Kind.SETs()
	}
	return n
}

// NumJunctions returns the tunnel-junction count after expansion (two
// per SET) — the size metric of the paper's Figs. 6 and 7.
func (nl *Netlist) NumJunctions() int { return 2 * nl.NumSETs() }

// Eval computes all wire values for the given input assignment,
// returning the map of every named wire to its logic value. Gates must
// be in topological order (Parse validates this).
func (nl *Netlist) Eval(inputs map[string]bool) (map[string]bool, error) {
	val := map[string]bool{}
	for _, in := range nl.Inputs {
		v, ok := inputs[in]
		if !ok {
			return nil, fmt.Errorf("logicnet: missing input %q", in)
		}
		val[in] = v
	}
	for _, g := range nl.Gates {
		args := make([]bool, len(g.In))
		for i, w := range g.In {
			v, ok := val[w]
			if !ok {
				return nil, fmt.Errorf("logicnet: gate %s reads undefined wire %q", g.Out, w)
			}
			args[i] = v
		}
		val[g.Out] = g.Kind.Eval(args)
	}
	return val, nil
}

// Parse reads a gate netlist in the format
//
//	name  full-adder
//	input a b cin
//	output sum cout
//	w1 = XOR a b
//	sum = XOR w1 cin
//	...
//
// Gates must appear in topological order (every wire defined before
// use); '#' starts a comment.
func Parse(r io.Reader) (*Netlist, error) {
	nl := &Netlist{}
	defined := map[string]bool{}
	sc := bufio.NewScanner(r)
	ln := 0
	for sc.Scan() {
		ln++
		line := strings.TrimSpace(sc.Text())
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		if line == "" {
			continue
		}
		f := strings.Fields(line)
		switch f[0] {
		case "name":
			if len(f) != 2 {
				return nil, fmt.Errorf("line %d: name needs one token", ln)
			}
			nl.Name = f[1]
		case "input":
			for _, w := range f[1:] {
				if defined[w] {
					return nil, fmt.Errorf("line %d: wire %q already defined", ln, w)
				}
				defined[w] = true
				nl.Inputs = append(nl.Inputs, w)
			}
		case "output":
			nl.Outputs = append(nl.Outputs, f[1:]...)
		default:
			// out = KIND in...
			if len(f) < 4 || f[1] != "=" {
				return nil, fmt.Errorf("line %d: expected 'out = KIND inputs...'", ln)
			}
			kind, ok := kindNames[strings.ToUpper(f[2])]
			if !ok {
				return nil, fmt.Errorf("line %d: unknown gate kind %q", ln, f[2])
			}
			ins := f[3:]
			if len(ins) != kind.Inputs() {
				return nil, fmt.Errorf("line %d: %s needs %d inputs, got %d", ln, kind, kind.Inputs(), len(ins))
			}
			out := f[0]
			if defined[out] {
				return nil, fmt.Errorf("line %d: wire %q already defined", ln, out)
			}
			for _, in := range ins {
				if !defined[in] {
					return nil, fmt.Errorf("line %d: wire %q used before definition (netlist must be topological)", ln, in)
				}
			}
			defined[out] = true
			nl.Gates = append(nl.Gates, Gate{Kind: kind, Out: out, In: ins})
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(nl.Gates) == 0 {
		return nil, fmt.Errorf("logicnet: no gates")
	}
	for _, out := range nl.Outputs {
		if !defined[out] {
			return nil, fmt.Errorf("logicnet: output %q never defined", out)
		}
	}
	return nl, nil
}

// Params sets the electrical design of the expanded SET logic.
type Params struct {
	RJ float64 // junction resistance (ohms)
	CJ float64 // junction capacitance (farads)
	Cg float64 // input-gate capacitance
	Cb float64 // bias-gate capacitance
	CL float64 // logic-wire load capacitance
	CI float64 // internal (series-stack) node capacitance
	// SupplyFrac sets Vdd as a fraction of e/Csum (< ~0.4 so off
	// transistors stay blockaded).
	SupplyFrac float64
	// Design operating points for the bias solver: the output level
	// (as a fraction of Vdd) at which the conducting transistor's two
	// hops have equal margin, and the residual level of its input wire.
	// The conduction window closes at the Out fraction, so it bounds
	// the reachable logic level.
	PullUpOut, PullUpIn     float64
	PullDownOut, PullDownIn float64
}

// DefaultParams returns the design used by the benchmark suite:
// Csum = 2.1 aF, Vdd ~ 27.5 mV, e/Csum ~ 76 mV, chosen so the per-hop
// energy margins are tens of kT at 1-2 K even under the charge
// back-action of fan-out gates. The 1 fF wire capacitance keeps the
// interconnect granularity e/CL below 1% of the logic swing — the
// metal-wire regime of the paper's Fig. 4 example — which both
// isolates circuit stages (the locality the adaptive solver exploits)
// and puts the compact SPICE model within its validity range.
func DefaultParams() Params {
	return Params{
		RJ:          1e6,
		CJ:          0.29 * units.Atto,
		Cg:          1.38 * units.Atto,
		Cb:          0.14 * units.Atto,
		CL:          1000 * units.Atto,
		CI:          1000 * units.Atto,
		SupplyFrac:  0.36,
		PullUpOut:   0.72,
		PullUpIn:    0.08,
		PullDownOut: 0.28,
		PullDownIn:  0.92,
	}
}

// Csum returns the total SET island capacitance 2*CJ + Cg + Cb.
func (p Params) Csum() float64 { return 2*p.CJ + p.Cg + p.Cb }

// Vdd returns the supply/logic-high voltage for the parameters.
func (p Params) Vdd() float64 { return p.SupplyFrac * units.E / p.Csum() }

// Vp returns the pSET bias-gate voltage, solved so the two hops of the
// pull-up cycle (wire -> island, then island -> Vdd) are both downhill
// with equal margin at the design operating point. The conducting
// island state must satisfy
//
//	e*vout + Ec + Ec_L  <=  e*v0  <=  e*Vdd + Ec
//
// (Ec = e^2/2Csum, Ec_L = e^2/2CL); the bias places v0 at the window's
// midpoint:
//
//	v0 = (vout + Vdd + e/Csum + e/(2*CL)) / 2
//	Vp = (Csum*v0 - CJ*(Vdd + vout) - Cg*vin) / Cb
func (p Params) Vp() float64 {
	cs := p.Csum()
	vdd := p.Vdd()
	vout := p.PullUpOut * vdd
	vin := p.PullUpIn * vdd
	v0 := (vout + vdd + units.E/cs + units.E/(2*p.CL)) / 2
	return (cs*v0 - p.CJ*(vdd+vout) - p.Cg*vin) / p.Cb
}

// Vn returns the nSET bias-gate voltage, the dual solution for the
// pull-down path (Vss -> island -> wire):
//
//	v0 = (vout + e/Csum - e/(2*CL)) / 2
//	Vn = (Csum*v0 - CJ*vout - Cg*vin) / Cb
func (p Params) Vn() float64 {
	cs := p.Csum()
	vdd := p.Vdd()
	vout := p.PullDownOut * vdd
	vin := p.PullDownIn * vdd
	v0 := (vout + units.E/cs - units.E/(2*p.CL)) / 2
	return (cs*v0 - p.CJ*vout - p.Cg*vin) / p.Cb
}

// Expanded is the single-electron realization of a logic netlist.
type Expanded struct {
	Circuit *circuit.Circuit
	// Wire maps every logic wire (inputs included) to its circuit node.
	Wire map[string]int
	// InputNode maps input names to their external nodes.
	InputNode map[string]int
	NumSETs   int
	Params    Params
	// Rails.
	VddNode, VssNode, VpNode, VnNode int
}

// Expand builds the SET circuit. drive supplies the source for each
// input wire; inputs not in the map are tied to logic low (0 V).
func (nl *Netlist) Expand(p Params, drive map[string]circuit.Source) (*Expanded, error) {
	return nl.ExpandWith(p, drive, circuit.BuildOptions{})
}

// ExpandWith is Expand with explicit circuit build options, e.g. a C^-1
// truncation threshold coarser than the default 1e-14.
func (nl *Netlist) ExpandWith(p Params, drive map[string]circuit.Source, bo circuit.BuildOptions) (*Expanded, error) {
	c := circuit.New()
	ex := &Expanded{Circuit: c, Wire: map[string]int{}, InputNode: map[string]int{}, Params: p}

	ex.VddNode = c.AddNode("Vdd", circuit.External)
	c.SetSource(ex.VddNode, circuit.DC(p.Vdd()))
	ex.VssNode = c.AddNode("Vss", circuit.External)
	c.SetSource(ex.VssNode, circuit.DC(0))
	ex.VpNode = c.AddNode("Vp", circuit.External)
	c.SetSource(ex.VpNode, circuit.DC(p.Vp()))
	ex.VnNode = c.AddNode("Vn", circuit.External)
	c.SetSource(ex.VnNode, circuit.DC(p.Vn()))

	// Inputs: external nodes, deterministic order.
	for _, in := range nl.Inputs {
		id := c.AddNode("in:"+in, circuit.External)
		src := drive[in]
		if src == nil {
			src = circuit.DC(0)
		}
		c.SetSource(id, src)
		ex.Wire[in] = id
		ex.InputNode[in] = id
	}

	// Logic wires: islands with CL to ground, again deterministic.
	var wires []string
	for _, g := range nl.Gates {
		wires = append(wires, g.Out)
	}
	sort.Strings(wires)
	for _, w := range wires {
		id := c.AddNode("w:"+w, circuit.Island)
		c.AddCap(id, ex.VssNode, p.CL)
		ex.Wire[w] = id
	}

	// addSET wires one transistor: terminals a--island--b, signal gate
	// from the input wire, bias gate to the rail.
	addSET := func(gateWire string, a, b, biasRail int, label string) {
		isl := c.AddNode(label, circuit.Island)
		c.AddJunction(a, isl, p.RJ, p.CJ)
		c.AddJunction(isl, b, p.RJ, p.CJ)
		c.AddCap(ex.Wire[gateWire], isl, p.Cg)
		c.AddCap(biasRail, isl, p.Cb)
		ex.NumSETs++
	}
	// internalNode creates a series-stack island.
	internal := func(label string) int {
		id := c.AddNode(label, circuit.Island)
		c.AddCap(id, ex.VssNode, p.CI)
		return id
	}

	var emitGate func(kind GateKind, out string, in []string, tag string) error
	emitGate = func(kind GateKind, out string, in []string, tag string) error {
		o := ex.Wire[out]
		switch kind {
		case INV:
			addSET(in[0], ex.VddNode, o, ex.VpNode, tag+".p")
			addSET(in[0], o, ex.VssNode, ex.VnNode, tag+".n")
		case BUF:
			mid := tag + "~m"
			ex.Wire[mid] = c.AddNode("w:"+mid, circuit.Island)
			c.AddCap(ex.Wire[mid], ex.VssNode, p.CL)
			if err := emitGate(INV, mid, in, tag+".i0"); err != nil {
				return err
			}
			return emitGate(INV, out, []string{mid}, tag+".i1")
		case NAND2:
			addSET(in[0], ex.VddNode, o, ex.VpNode, tag+".pa")
			addSET(in[1], ex.VddNode, o, ex.VpNode, tag+".pb")
			m := internal(tag + ".m")
			addSET(in[0], o, m, ex.VnNode, tag+".na")
			addSET(in[1], m, ex.VssNode, ex.VnNode, tag+".nb")
		case NOR2:
			m := internal(tag + ".m")
			addSET(in[0], ex.VddNode, m, ex.VpNode, tag+".pa")
			addSET(in[1], m, o, ex.VpNode, tag+".pb")
			addSET(in[0], o, ex.VssNode, ex.VnNode, tag+".na")
			addSET(in[1], o, ex.VssNode, ex.VnNode, tag+".nb")
		case AND2, OR2:
			mid := tag + "~m"
			ex.Wire[mid] = c.AddNode("w:"+mid, circuit.Island)
			c.AddCap(ex.Wire[mid], ex.VssNode, p.CL)
			inner := NAND2
			if kind == OR2 {
				inner = NOR2
			}
			if err := emitGate(inner, mid, in, tag+".g"); err != nil {
				return err
			}
			return emitGate(INV, out, []string{mid}, tag+".i")
		case XOR2:
			// Four NANDs: x = a NAND b; y = a NAND x; z = b NAND x;
			// out = y NAND z.
			mk := func(suffix string) string {
				w := tag + "~" + suffix
				ex.Wire[w] = c.AddNode("w:"+w, circuit.Island)
				c.AddCap(ex.Wire[w], ex.VssNode, p.CL)
				return w
			}
			x, y, z := mk("x"), mk("y"), mk("z")
			if err := emitGate(NAND2, x, in, tag+".n0"); err != nil {
				return err
			}
			if err := emitGate(NAND2, y, []string{in[0], x}, tag+".n1"); err != nil {
				return err
			}
			if err := emitGate(NAND2, z, []string{in[1], x}, tag+".n2"); err != nil {
				return err
			}
			return emitGate(NAND2, out, []string{y, z}, tag+".n3")
		default:
			return fmt.Errorf("logicnet: cannot expand %v", kind)
		}
		return nil
	}

	for gi, g := range nl.Gates {
		if err := emitGate(g.Kind, g.Out, g.In, fmt.Sprintf("g%d", gi)); err != nil {
			return nil, err
		}
	}
	if err := c.BuildWith(bo); err != nil {
		return nil, err
	}
	return ex, nil
}

// LogicThreshold returns the voltage that separates logic low from high
// (half the swing).
func (ex *Expanded) LogicThreshold() float64 { return ex.Params.Vdd() / 2 }
