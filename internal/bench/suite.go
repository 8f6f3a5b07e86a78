// Package bench re-creates the paper's 15 large-scale logic benchmarks
// (ISCAS '85/'89 circuits plus 74-series parts) at exactly the
// published junction counts — 76 junctions (38 SETs) for the 2-to-10
// decoder up to 6988 junctions (3494 SETs) for c1908 — and provides the
// workload drivers behind Figs. 6 and 7: solver timing and
// propagation-delay measurement.
//
// The original netlists are not redistributable, so each benchmark is a
// synthetic gate network with the published size: a deterministic
// inverting "spine" (the sensitized path whose propagation delay is
// measured) plus pseudo-random decoration logic fanning out from it.
// The paper itself notes the benchmark implementation's feasibility "is
// not relevant to its use in testing this simulator" — what matters for
// the experiments is circuit size and coupling topology, which are
// matched. The full adder is real logic rather than synthetic.
package bench

import (
	"fmt"
	"strings"

	"semsim/internal/logicnet"
	"semsim/internal/rng"
)

// Benchmark is one entry of the paper's suite.
type Benchmark struct {
	Name string
	// PublishedJunctions is the junction count from Fig. 6's x-axis.
	PublishedJunctions int
	Netlist            *logicnet.Netlist
	// ToggleInput steps at the workload's stimulus time; OutputWire is
	// observed for the propagation delay.
	ToggleInput string
	OutputWire  string
	// OutputRises reports the output transition direction when the
	// toggle input rises.
	OutputRises bool
	// HighInputs are tied to logic high for the delay workload; all
	// other non-toggle inputs are tied low.
	HighInputs []string
}

// mix is a decoration gate budget.
type mix struct {
	inv, nand, nor, xor int
}

// synth builds a synthetic benchmark: a spine of `spine` inverting
// 2-input gates — alternating NAND (enabled by the high "en" input) and
// NOR (enabled by the low "in1" input), like a mixed standard-cell path
// — from input in0 to the wire "out", decorated with the remaining
// budget.
func synth(name string, spine int, deco mix, seed uint64) Benchmark {
	var sb strings.Builder
	fmt.Fprintf(&sb, "name %s\n", name)
	sb.WriteString("input in0 en in1 in2\ninput in3\noutput out\n")

	r := rng.New(seed)
	wires := []string{"in0", "en", "in1", "in2", "in3"}
	pick := func() string {
		// Favor recent wires so decoration forms chains, not a star.
		window := 24
		if len(wires) < window {
			window = len(wires)
		}
		return wires[len(wires)-1-r.Intn(window)]
	}

	prev := "in0"
	for i := 0; i < spine; i++ {
		w := fmt.Sprintf("s%d", i)
		if i == spine-1 {
			w = "out"
		}
		if i%2 == 0 {
			fmt.Fprintf(&sb, "%s = NAND %s en\n", w, prev) // en is high
		} else {
			fmt.Fprintf(&sb, "%s = NOR %s in1\n", w, prev) // in1 is low
		}
		prev = w
		wires = append(wires, w)
	}

	// Decoration deck in deterministic shuffled order.
	var deck []string
	for i := 0; i < deco.inv; i++ {
		deck = append(deck, "INV")
	}
	for i := 0; i < deco.nand; i++ {
		deck = append(deck, "NAND")
	}
	for i := 0; i < deco.nor; i++ {
		deck = append(deck, "NOR")
	}
	for i := 0; i < deco.xor; i++ {
		deck = append(deck, "XOR")
	}
	for i := len(deck) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		deck[i], deck[j] = deck[j], deck[i]
	}
	for i, kind := range deck {
		w := fmt.Sprintf("w%d", i)
		if kind == "INV" {
			fmt.Fprintf(&sb, "%s = INV %s\n", w, pick())
		} else {
			fmt.Fprintf(&sb, "%s = %s %s %s\n", w, kind, pick(), pick())
		}
		wires = append(wires, w)
	}

	nl, err := logicnet.Parse(strings.NewReader(sb.String()))
	if err != nil {
		panic("bench: internal synth error for " + name + ": " + err.Error())
	}
	return Benchmark{
		Name:        name,
		Netlist:     nl,
		ToggleInput: "in0",
		OutputWire:  "out",
		// Each spine stage inverts (NAND(x, 1) or NOR(x, 0)): the output
		// rises with the input when the spine length is even.
		OutputRises: spine%2 == 0,
		HighInputs:  []string{"en", "in2"},
	}
}

const fullAdderSrc = `
name Full-Adder
input a b cin
output sum cout
x  = XOR a b
sum = XOR x cin
g1 = AND a b
g2 = AND x cin
cout = OR g1 g2
`

// Suite returns the paper's 15 benchmarks in ascending size. Every
// entry's expanded junction count equals the published one (enforced by
// tests).
func Suite() []Benchmark {
	fa, err := logicnet.Parse(strings.NewReader(fullAdderSrc))
	if err != nil {
		panic("bench: full adder parse: " + err.Error())
	}
	fullAdder := Benchmark{
		Name:               "Full-Adder",
		PublishedJunctions: 100,
		Netlist:            fa,
		ToggleInput:        "a",
		OutputWire:         "sum",
		OutputRises:        true, // with b = cin = 0, sum follows a
	}

	bms := []Benchmark{
		// 38 SETs: spine 7 NAND (28) + 5 INV (10).
		synth("2-to-10-decoder", 7, mix{inv: 5}, 1),
		fullAdder,
		// 84: spine 10 NAND (40) + 8 NAND (32) + 6 INV (12).
		synth("74LS138", 10, mix{nand: 8, inv: 6}, 2),
		// 112: spine 10 NAND (40) + 14 NAND (56) + 8 INV (16).
		synth("74LS153", 10, mix{nand: 14, inv: 8}, 3),
		// 132: spine 9 NOR (36) + 21 NOR (84) + 6 INV (12).
		synth("s27a", 9, mix{nor: 21, inv: 6}, 4),
		// 168: spine 10 NAND (40) + 26 NAND (104) + 12 INV (24).
		synth("74148", 10, mix{nand: 26, inv: 12}, 5),
		// 180: spine 10 NAND (40) + 30 NAND (120) + 10 INV (20).
		synth("74154", 10, mix{nand: 30, inv: 10}, 6),
		// 224: spine 11 NAND (44) + 13 NAND (52) + 24 NOR (96) + 16 INV (32).
		synth("74LS47", 11, mix{nand: 13, nor: 24, inv: 16}, 7),
		// 242: spine 4 NAND (16) + 14 XOR (224) + 1 INV (2).
		synth("74LS280", 4, mix{xor: 14, inv: 1}, 8),
		// 472: spine 12 NAND (48) + 66 NAND (264) + 8 XOR (128) + 16 INV (32).
		synth("54LS181", 12, mix{nand: 66, xor: 8, inv: 16}, 9),
		// 672: spine 12 NAND (48) + 144 NAND (576) + 24 INV (48).
		synth("s208-1", 12, mix{nand: 144, inv: 24}, 10),
		// 1036: spine 13 NAND (52) + 167 NAND (668) + 18 XOR (288) + 14 INV (28).
		synth("c432", 13, mix{nand: 167, xor: 18, inv: 14}, 11),
		// 2308: spine 14 NAND (56) + 547 NAND (2188) + 32 INV (64).
		synth("c1355", 14, mix{nand: 547, inv: 32}, 12),
		// 2804: spine 14 NAND (56) + 270 NAND (1080) + 104 XOR (1664) + 2 INV (4).
		synth("c499", 14, mix{nand: 270, xor: 104, inv: 2}, 13),
		// 3494: spine 14 NAND (56) + 743 NAND (2972) + 25 XOR (400) + 33 INV (66).
		synth("c1908", 14, mix{nand: 743, xor: 25, inv: 33}, 14),
	}
	published := []int{76, 100, 168, 224, 264, 336, 360, 448, 484, 944, 1344, 2072, 4616, 5608, 6988}
	for i := range bms {
		bms[i].PublishedJunctions = published[i]
	}
	return bms
}

// ByName returns the named benchmark or false.
func ByName(name string) (Benchmark, bool) {
	for _, b := range Suite() {
		if b.Name == name {
			return b, true
		}
	}
	return Benchmark{}, false
}
