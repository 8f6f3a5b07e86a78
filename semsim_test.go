package semsim

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"
)

const aF = 1e-18

func TestQuickstartSET(t *testing.T) {
	c, nd := NewSET(SETConfig{
		R1: 1e6, C1: aF, R2: 1e6, C2: aF, Cg: 3 * aF,
		Vs: 0.02, Vd: -0.02,
	})
	sim, err := NewSim(c, Options{Temp: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(20000, 0); err != nil {
		t.Fatal(err)
	}
	if i := sim.JunctionCurrent(nd.JuncDrain); i <= 0 {
		t.Fatalf("SET at 40 mV bias should conduct, got %g", i)
	}
}

func TestMasterCrossCheckThroughFacade(t *testing.T) {
	c, _ := NewSET(SETConfig{
		R1: 1e6, C1: aF, R2: 1e6, C2: aF, Cg: 3 * aF,
		Vs: 0.02, Vd: -0.02,
	})
	res, err := MasterSolve(c, 5, -5, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Current[1] <= 0 {
		t.Fatalf("master current %g", res.Current[1])
	}
}

func TestRunDeckPaperExample(t *testing.T) {
	// The paper's example input file, with a coarse sweep so the test
	// stays fast. Sweeping node 2 in [-20, 20] mV with node 1 mirrored
	// gives Vds in [-40, 40] mV: the Fig. 1b I-V curve.
	deck := `
junc 1 1 4 1e-6 1e-18
junc 2 2 4 1e-6 1e-18
cap 3 4 3e-18
charge 4 0.0
vdc 1 0.02
vdc 2 -0.02
vdc 3 0.0
symm 1
temp 5
record 2
jumps 4000
sweep 2 0.02 0.01
seed 7
`
	d, err := ParseNetlist(strings.NewReader(deck))
	if err != nil {
		t.Fatal(err)
	}
	pts, err := RunDeck(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 5 {
		t.Fatalf("sweep points = %d, want 5", len(pts))
	}
	// Ends of the sweep conduct in opposite directions; middle is
	// blockade-suppressed.
	first := pts[0].Current[2]
	last := pts[len(pts)-1].Current[2]
	mid := pts[2].Current[2]
	if first == 0 || last == 0 || first*last > 0 {
		t.Fatalf("sweep endpoints: %g and %g, want opposite signs", first, last)
	}
	if math.Abs(mid) > 0.2*math.Abs(last) {
		t.Fatalf("blockade point current %g vs edge %g", mid, last)
	}
}

func TestRunDeckValidation(t *testing.T) {
	noRecord := `
junc 1 0 1 1e-6 1e-18
temp 1
jumps 10
`
	d, err := ParseNetlist(strings.NewReader(noRecord))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunDeck(d); err == nil {
		t.Fatal("deck without record accepted")
	}
	noStop := `
junc 1 0 1 1e-6 1e-18
temp 1
record 1
`
	d, err = ParseNetlist(strings.NewReader(noStop))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunDeck(d); err == nil {
		t.Fatal("deck without stop condition accepted")
	}
}

func TestRunDeckSuperconducting(t *testing.T) {
	// End-to-end superconducting deck: sub-gap bias suppressed, above
	// the quasi-particle threshold conducting.
	deck := `
junc 1 1 3 4.76e-6 110e-18
junc 2 3 2 4.76e-6 110e-18
cap 0 3 14e-18
vdc 1 %g
vdc 2 0
temp 0.1
super 0.23e-3 1.4
record 2
jumps 8000
time 1e-3
seed 9
`
	run := func(vb float64) float64 {
		d, err := ParseNetlist(strings.NewReader(fmt.Sprintf(deck, vb)))
		if err != nil {
			t.Fatal(err)
		}
		pts, err := RunDeck(d)
		if err != nil {
			t.Fatal(err)
		}
		return pts[0].Current[2]
	}
	sub := run(1.0e-3)   // between e/Csum and e/Csum + 4*Delta/e
	above := run(2.5e-3) // beyond the quasi-particle threshold
	if above <= 0 {
		t.Fatalf("SSET above threshold should conduct: %g", above)
	}
	if math.Abs(sub) > 0.05*above {
		t.Fatalf("gap did not suppress sub-threshold current: %g vs %g", sub, above)
	}
}

func TestLogicFacade(t *testing.T) {
	nl, err := ParseLogic(strings.NewReader("input a\noutput y\ny = INV a\n"))
	if err != nil {
		t.Fatal(err)
	}
	ex, err := ExpandLogic(nl, DefaultLogicParams(), map[string]Source{"a": DC(0)})
	if err != nil {
		t.Fatal(err)
	}
	if ex.NumSETs != 2 {
		t.Fatalf("inverter SETs = %d", ex.NumSETs)
	}
	sp, err := NewSpice(ex.Circuit, 2)
	if err != nil {
		t.Fatal(err)
	}
	if sp.NumDevices() != 2 {
		t.Fatalf("spice devices = %d", sp.NumDevices())
	}
}

func TestBenchmarksFacade(t *testing.T) {
	suite := Benchmarks()
	if len(suite) != 15 {
		t.Fatalf("suite size %d", len(suite))
	}
	b, ok := BenchmarkByName("c1908")
	if !ok || b.Netlist.NumJunctions() != 6988 {
		t.Fatalf("c1908 lookup failed: %v %d", ok, b.Netlist.NumJunctions())
	}
}

// An I-V sweep through the facade is a deck run on the jobs runner:
// the Fig. 1b SET with the bias mirrored onto the drain, on two task
// workers. The curve is blockaded at zero bias and antisymmetric.
func TestIVFacade(t *testing.T) {
	d, err := ParseNetlist(strings.NewReader(`
junc 1 1 4 1e-6 1e-18
junc 2 4 2 1e-6 1e-18
cap 3 4 3e-18
vdc 1 0
vdc 2 0
vdc 3 0
sweep 1 0.02 0.005
symm 2
record 2
temp 5
jumps 15000
seed 100
`))
	if err != nil {
		t.Fatal(err)
	}
	pts, err := RunDeckCtx(context.Background(), d, DeckRunConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 9 {
		t.Fatalf("points = %d", len(pts))
	}
	first, mid, last := pts[0].Current[2], pts[4], pts[8].Current[2]
	if mid.SweepV != 0 {
		t.Fatalf("midpoint bias = %g, want exactly 0", mid.SweepV)
	}
	if math.Abs(mid.Current[2]) > 0.1*math.Abs(last) {
		t.Fatalf("blockade center current %g vs edge %g", mid.Current[2], last)
	}
	if last <= 0 || first >= 0 {
		t.Fatalf("edge currents have wrong sign: %g, %g", first, last)
	}
	if math.Abs(first+last) > 0.15*math.Abs(last) {
		t.Fatalf("I-V not antisymmetric: %g vs %g", first, last)
	}
}
