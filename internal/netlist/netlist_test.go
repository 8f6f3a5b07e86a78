package netlist

import (
	"errors"
	"math"
	"strings"
	"testing"

	"semsim/internal/circuit"
	"semsim/internal/matrix"
	"semsim/internal/units"
)

// paperDeck is the paper's Example Input File 1 (a SET), with the
// additions this dialect expects spelled the same way.
const paperDeck = `
#SET component definitions
junc 1 1 4 1e-6 1e-18
junc 2 2 4 1e-6 1e-18
cap 3 4 3e-18
charge 4 0.0

#Input source information
vdc 1 0.02
vdc 2 -0.02
vdc 3 0.0
symm 1

#Overall node information
num j 2
num ext 3
num nodes 4

#Simulation specific information
temp 5
cotunnel
record 1 2
jumps 100000 1
sweep 2 0.02 0.00005
`

func TestParsePaperExample(t *testing.T) {
	d, err := Parse(strings.NewReader(paperDeck))
	if err != nil {
		t.Fatal(err)
	}
	if d.Spec.Temp != 5 {
		t.Fatalf("temp = %g", d.Spec.Temp)
	}
	if !d.Spec.Cotunnel {
		t.Fatal("cotunnel flag lost")
	}
	if d.Spec.Jumps != 100000 || d.Spec.Runs != 1 {
		t.Fatalf("jumps = %d runs = %d", d.Spec.Jumps, d.Spec.Runs)
	}
	sw := d.Spec.Sweep
	if sw == nil || sw.Node != 2 || sw.Mirror != 1 || sw.Max != 0.02 || sw.Step != 0.00005 {
		t.Fatalf("sweep spec = %+v", sw)
	}
	if len(d.Spec.RecordJuncs) != 2 {
		t.Fatalf("record juncs = %v", d.Spec.RecordJuncs)
	}
}

func TestCompilePaperExample(t *testing.T) {
	d, err := Parse(strings.NewReader(paperDeck))
	if err != nil {
		t.Fatal(err)
	}
	cc, err := d.Compile(nil)
	if err != nil {
		t.Fatal(err)
	}
	c := cc.Circuit
	if c.NumJunctions() != 2 {
		t.Fatalf("junctions = %d", c.NumJunctions())
	}
	if c.NumIslands() != 1 {
		t.Fatalf("islands = %d", c.NumIslands())
	}
	isl := cc.Node[4]
	if c.NodeKindOf(isl) != circuit.Island {
		t.Fatal("node 4 should be an island")
	}
	// Csum = 1 + 1 + 3 aF.
	if got := c.SumCapacitance(isl); math.Abs(got-5e-18) > 1e-27 {
		t.Fatalf("Csum = %g", got)
	}
	// Conductance 1e-6 S means R = 1 MOhm.
	if r := c.Junction(cc.Junc[1]).R; math.Abs(r-1e6) > 1 {
		t.Fatalf("junction R = %g", r)
	}
	if v := c.SourceVoltage(cc.Node[1], 0); v != 0.02 {
		t.Fatalf("vdc on node 1 = %g", v)
	}
}

func TestCompileWithOverride(t *testing.T) {
	d, err := Parse(strings.NewReader(paperDeck))
	if err != nil {
		t.Fatal(err)
	}
	cc, err := d.Compile(map[int]float64{1: 0.005, 2: -0.005})
	if err != nil {
		t.Fatal(err)
	}
	if v := cc.Circuit.SourceVoltage(cc.Node[1], 0); v != 0.005 {
		t.Fatalf("override lost: %g", v)
	}
	if _, err := d.Compile(map[int]float64{4: 1}); err == nil {
		t.Fatal("override on island accepted")
	}
}

func TestImplicitGround(t *testing.T) {
	deck := `
junc 1 0 1 1e-6 1e-18
cap 0 1 2e-18
temp 1
jumps 10
`
	d, err := Parse(strings.NewReader(deck))
	if err != nil {
		t.Fatal(err)
	}
	cc, err := d.Compile(nil)
	if err != nil {
		t.Fatal(err)
	}
	gnd := cc.Node[0]
	if cc.Circuit.NodeKindOf(gnd) != circuit.External {
		t.Fatal("node 0 must be an implicit ground external")
	}
	if v := cc.Circuit.SourceVoltage(gnd, 0); v != 0 {
		t.Fatalf("ground voltage = %g", v)
	}
}

// TestCompileRejectsFloatingGroup: the fuzz seed
// seed-ungrounded-disparate-caps compiles into three islands with no
// capacitance to any external node. Its C is singular, so Compile must
// fail with the singular-matrix error rather than yield potentials.
func TestCompileRejectsFloatingGroup(t *testing.T) {
	d, err := Parse(strings.NewReader("junc 0 1 7 1 1e-8\njunc 1 2 1 1 901"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Compile(nil); !errors.Is(err, matrix.ErrNotPositiveDefinite) {
		t.Fatalf("Compile: %v, want an error wrapping ErrNotPositiveDefinite", err)
	}
}

func TestSuperDirective(t *testing.T) {
	deck := `
junc 1 1 2 4.76e-6 110e-18
junc 2 2 0 4.76e-6 110e-18
vdc 1 0.001
temp 0.52
super 0.21e-3 1.4
jumps 100
`
	d, err := Parse(strings.NewReader(deck))
	if err != nil {
		t.Fatal(err)
	}
	if d.Spec.Super == nil {
		t.Fatal("super spec missing")
	}
	if math.Abs(d.Spec.Super.GapAt0-0.21e-3*units.E) > 1e-30 {
		t.Fatalf("gap = %g", d.Spec.Super.GapAt0)
	}
	cc, err := d.Compile(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !cc.Circuit.Super().Superconducting() {
		t.Fatal("compiled circuit not superconducting")
	}
}

func TestSourcesACAndPWL(t *testing.T) {
	deck := `
junc 1 1 2 1e-6 1e-18
vdc 1 0
vac 3 0.0 0.01 1e9 0.5
vpwl 4 0 0 1e-9 0.1
cap 3 2 1e-18
cap 4 2 1e-18
temp 1
jumps 10
`
	d, err := Parse(strings.NewReader(deck))
	if err != nil {
		t.Fatal(err)
	}
	cc, err := d.Compile(nil)
	if err != nil {
		t.Fatal(err)
	}
	c := cc.Circuit
	if c.AllSourcesStatic() {
		t.Fatal("AC deck reported static")
	}
	if v := c.SourceVoltage(cc.Node[4], 0.5e-9); math.Abs(v-0.05) > 1e-12 {
		t.Fatalf("PWL midpoint = %g", v)
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"no junctions":       "vdc 1 0\n",
		"bad directive":      "junc 1 0 1 1e-6 1e-18\nfoo bar\n",
		"junc argc":          "junc 1 0 1 1e-6\n",
		"dup junc id":        "junc 1 0 1 1e-6 1e-18\njunc 1 0 2 1e-6 1e-18\n",
		"neg conductance":    "junc 1 0 1 -1e-6 1e-18\n",
		"num j mismatch":     "junc 1 0 1 1e-6 1e-18\nnum j 2\n",
		"num nodes mismatch": "junc 1 0 1 1e-6 1e-18\nnum nodes 9\n",
		"sweep no source":    "junc 1 0 1 1e-6 1e-18\nsweep 5 0.1 0.01\n",
		"symm no sweep":      "junc 1 0 1 1e-6 1e-18\nvdc 2 0\ncap 2 1 1e-18\nsymm 2\n",
		"charge on source":   "junc 1 2 1 1e-6 1e-18\nvdc 2 0\ncharge 2 0.5\n",
		"pwl non-monotone":   "junc 1 0 1 1e-6 1e-18\nvpwl 2 1e-9 0 0.5e-9 1\ncap 2 1 1e-18\n",
		"bad temp":           "junc 1 0 1 1e-6 1e-18\ntemp -3\n",
		"bad super":          "junc 1 0 1 1e-6 1e-18\nsuper -1 1\n",
		"rate-tables argc":   "junc 1 0 1 1e-6 1e-18\nrate-tables 3\n",
		"map one axis":       "junc 1 1 2 1e-6 1e-18\nvdc 1 0\nmap x 1 -0.1 0.1 5\n",
		"map bad axis":       "junc 1 1 2 1e-6 1e-18\nvdc 1 0\nmap z 1 -0.1 0.1 5\n",
		"map min>=max":       "junc 1 1 2 1e-6 1e-18\nvdc 1 0\nvdc 2 0\nmap x 1 0.1 0.1 5\nmap y 2 0 1 5\n",
		"map 1 point":        "junc 1 1 2 1e-6 1e-18\nvdc 1 0\nvdc 2 0\nmap x 1 -0.1 0.1 1\nmap y 2 0 1 5\n",
		"map no source":      "junc 1 1 2 1e-6 1e-18\nvdc 1 0\nmap x 1 -0.1 0.1 5\nmap y 9 0 1 5\n",
		"map non-DC":         "junc 1 1 2 1e-6 1e-18\nvdc 1 0\nvac 2 0 0.01 1e9\ncap 2 3 1e-18\nmap x 1 -0.1 0.1 5\nmap y 2 0 1 5\n",
		"map same node":      "junc 1 1 2 1e-6 1e-18\nvdc 1 0\nmap x 1 -0.1 0.1 5\nmap y 1 0 1 5\n",
		"map plus sweep":     "junc 1 1 2 1e-6 1e-18\nvdc 1 0\nvdc 2 0\nsweep 1 0.1 0.01\nmap x 1 -0.1 0.1 5\nmap y 2 0 1 5\n",
		"refine no map":      "junc 1 1 2 1e-6 1e-18\nvdc 1 0\nrefine 2\n",
		"refine depth 0":     "junc 1 1 2 1e-6 1e-18\nvdc 1 0\nvdc 2 0\nmap x 1 -0.1 0.1 5\nmap y 2 0 1 5\nrefine 0\n",
		"refine threshold":   "junc 1 1 2 1e-6 1e-18\nvdc 1 0\nvdc 2 0\nmap x 1 -0.1 0.1 5\nmap y 2 0 1 5\nrefine 2 1.5\n",
	}
	for name, deck := range cases {
		if _, err := Parse(strings.NewReader(deck)); err == nil {
			t.Errorf("%s: accepted invalid deck", name)
		}
	}
}

// TestSparseDirectiveRetired: a deck still spelling a retired directive
// is rejected at its line and pointed at what replaced it — cinv-eps
// alone picks the potential engine, and -workers is the only
// parallelism.
func TestSparseDirectiveRetired(t *testing.T) {
	for _, tc := range []struct{ line, replacement string }{
		{"sparse", "cinv-eps"},
		{"parallel 4", "-workers"},
	} {
		_, err := Parse(strings.NewReader("junc 1 1 2 1e-6 1e-18\nvdc 1 0.01\n" + tc.line + "\n"))
		if err == nil || !strings.Contains(err.Error(), "line 3") || !strings.Contains(err.Error(), tc.replacement) {
			t.Errorf("%q: error %v, want a line-3 error naming %s", tc.line, err, tc.replacement)
		}
	}
}

// TestCinvEpsRange: the cinv-eps threshold must be finite with
// 0 <= eps < 1. A threshold of 1 or more, or +Inf, would drop all of
// C^-1 but each row's largest entries and erase Coulomb blockade, so
// the parser rejects it at its line before anything is built.
func TestCinvEpsRange(t *testing.T) {
	const base = "junc 1 1 2 1e-6 1e-18\nvdc 1 0.01\n"
	for _, eps := range []string{"2", "inf", "+Inf", "1", "-1e-9", "nan"} {
		_, err := Parse(strings.NewReader(base + "cinv-eps " + eps + "\n"))
		if err == nil || !strings.Contains(err.Error(), "line 3") {
			t.Errorf("cinv-eps %s: error %v, want a line-3 parse error", eps, err)
		}
	}
	for _, eps := range []string{"0", "1e-14", "0.5"} {
		if _, err := Parse(strings.NewReader(base + "cinv-eps " + eps + "\n")); err != nil {
			t.Errorf("cinv-eps %s rejected: %v", eps, err)
		}
	}
}

// TestParseRejectsNonFinite: strconv.ParseFloat accepts NaN, Inf and
// infinity, and NaN passes every range check written as a comparison
// that must fail (g <= 0, t < 0). Every numeric field rejects them at
// its line instead: an Inf conductance reached AddJunction as R = 0 and
// panicked, a NaN temperature or bias ran to a NaN current, and a NaN
// sweep step ran zero points.
func TestParseRejectsNonFinite(t *testing.T) {
	const base = "junc 1 1 2 1e-6 1e-18\nvdc 1 0.01\nvdc 3 0\ncap 3 2 1e-18\n"
	for _, line := range []string{
		"junc 2 2 4 Inf 1e-18",
		"junc 2 2 4 1e-6 NaN",
		"cap 2 4 +Inf",
		"charge 2 NaN",
		"vdc 5 NaN",
		"vac 5 0 infinity 1e9",
		"vac 5 0 0.01 1e9 NaN",
		"vpwl 5 0 0 1e-9 -Inf",
		"temp NaN",
		"super NaN 1.2",
		"record noise 1 Inf",
		"record fano 1 Inf",
		"time NaN",
		"sweep 1 NaN 0.002",
		"map x 1 -Inf 0.1 5",
		"refine 2 NaN",
		"adaptive NaN",
		"cinv-eps NaN",
	} {
		_, err := Parse(strings.NewReader(base + line + "\n"))
		if err == nil || !strings.Contains(err.Error(), "line 5") {
			t.Errorf("%q: error %v, want a line-5 parse error", line, err)
		}
	}
}

// TestRecordUndefinedJunction: a record line naming a junction no junc
// line defines fails at Parse, wherever the junc lines sit, instead of
// failing every task of the run.
func TestRecordUndefinedJunction(t *testing.T) {
	const base = "junc 1 1 2 1e-6 1e-18\njunc 2 2 3 1e-6 1e-18\nvdc 1 0.01\nvdc 3 0\n"
	for _, line := range []string{"record 9", "record 1 9", "record noise 9 1e9", "record fano 9"} {
		_, err := Parse(strings.NewReader(base + line + "\n"))
		if err == nil || !strings.Contains(err.Error(), "junction 9") {
			t.Errorf("%q: error %v, want one naming junction 9", line, err)
		}
	}
	// A record line may come before the junction it names.
	if _, err := Parse(strings.NewReader("record fano 2\n" + base)); err != nil {
		t.Errorf("record before its junc line rejected: %v", err)
	}
}

func TestParseMapDirective(t *testing.T) {
	deck := `
junc 1 1 3 1e-6 1e-18
junc 2 2 3 1e-6 1e-18
vdc 1 0.01
vdc 2 0
temp 5
record 1
jumps 1000
map x 2 -0.08 0.08 17
map y 1 -0.05 0.05 9
refine 3 0.2
`
	d, err := Parse(strings.NewReader(deck))
	if err != nil {
		t.Fatal(err)
	}
	mp := d.Spec.Map
	if mp == nil {
		t.Fatal("map spec not parsed")
	}
	if mp.X != (MapAxis{Node: 2, Min: -0.08, Max: 0.08, Points: 17}) {
		t.Fatalf("X axis = %+v", mp.X)
	}
	if mp.Y != (MapAxis{Node: 1, Min: -0.05, Max: 0.05, Points: 9}) {
		t.Fatalf("Y axis = %+v", mp.Y)
	}
	if mp.Depth != 3 || mp.Threshold != 0.2 {
		t.Fatalf("refine = depth %d threshold %g", mp.Depth, mp.Threshold)
	}
	xs := mp.X.Values()
	if len(xs) != 17 || xs[0] != -0.08 || xs[16] != 0.08 {
		t.Fatalf("X values = %v", xs)
	}
	// refine may precede its map directives (symm/sweep-style tolerance).
	d2, err := Parse(strings.NewReader(`
junc 1 1 3 1e-6 1e-18
vdc 1 0.01
vdc 2 0
cap 2 3 1e-18
refine 2
map x 2 -0.08 0.08 17
map y 1 -0.05 0.05 9
`))
	if err != nil {
		t.Fatal(err)
	}
	if d2.Spec.Map.Depth != 2 || d2.Spec.Map.Threshold != 0 {
		t.Fatalf("refine-first deck parsed to %+v", d2.Spec.Map)
	}
}

func TestInlineComments(t *testing.T) {
	deck := `
junc 1 0 1 1e-6 1e-18 # the only junction
temp 2 # kelvin
jumps 10
`
	d, err := Parse(strings.NewReader(deck))
	if err != nil {
		t.Fatal(err)
	}
	if d.Spec.Temp != 2 {
		t.Fatalf("temp with inline comment = %g", d.Spec.Temp)
	}
}

func TestCompileDeterministicNodeOrder(t *testing.T) {
	d, err := Parse(strings.NewReader(paperDeck))
	if err != nil {
		t.Fatal(err)
	}
	a, err := d.Compile(nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := d.Compile(nil)
	if err != nil {
		t.Fatal(err)
	}
	for n, id := range a.Node {
		if b.Node[n] != id {
			t.Fatalf("node mapping unstable for netlist node %d", n)
		}
	}
}
