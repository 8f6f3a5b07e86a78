package netlist

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"semsim/internal/circuit"
	"semsim/internal/matrix"
)

// FuzzNetlistParse drives the deck parser with arbitrary input. Any
// input may be rejected with an error, but never a panic; input the
// parser accepts must survive the canonical round trip: Format output
// reparses cleanly, formats identically the second time, and Compile
// either errors or yields a circuit — also at the default C^-1
// truncation threshold, whose potentials must match the untruncated
// rows' within the engine's error bound.
func FuzzNetlistParse(f *testing.F) {
	f.Add(paperDeck)
	f.Add("junc 1 1 2 1e-6 1e-18\nvdc 1 0.01\ntemp 1\n")
	f.Add("# comment only\n\n")
	f.Add("vac 3 0 0.01 1e9 0.5\nvpwl 2 0 0 1e-9 0.1\njunc 1 2 3 1e-6 1e-18\n")
	f.Add("junc 1 1 2 1e-6 1e-18\nvdc 1 0.01\nsuper 0.2e-3 1.2\ntemp 0.1\n")
	f.Add("junc 1 1 2 1e-6 1e-18\nvdc 1 0.02\nsweep 1 0.02 0.0001\nsymm 1\n")
	f.Add("num j 99\njunc 1 1 2 1e-6 1e-18\n")
	f.Add("junc x y z\n")
	f.Add("junc 1 1 2 1e-6 1e-18\nvdc 1 0.01\nsparse\n") // retired directive: rejected
	f.Add("junc 1 1 2 1e-6 1e-18\ncap 2 3 2e-18\nvdc 1 0.01\nvdc 3 0\ncinv-eps 1e-9\n")
	f.Add("junc 1 1 2 1e-6 1e-18\nvdc 1 0.01\ncinv-eps 2\n")   // threshold >= 1: rejected
	f.Add("junc 1 1 2 1e-6 1e-18\nvdc 1 0.01\ncinv-eps inf\n") // non-finite: rejected
	f.Fuzz(func(t *testing.T, src string) {
		d, err := Parse(strings.NewReader(src))
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := d.Format(&first); err != nil {
			t.Fatalf("formatting a parsed deck failed: %v\ninput:\n%s", err, src)
		}
		d2, err := Parse(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("reparsing formatted deck failed: %v\nformatted:\n%s", err, first.String())
		}
		var second bytes.Buffer
		if err := d2.Format(&second); err != nil {
			t.Fatalf("reformatting failed: %v", err)
		}
		if first.String() != second.String() {
			t.Errorf("Format is not canonical:\nfirst:\n%s\nsecond:\n%s", first.String(), second.String())
		}
		c, err := d.Compile(nil)
		if err != nil {
			return
		}
		if c == nil {
			t.Fatal("Compile returned neither circuit nor error")
		}
		// Every compilable deck must also compile at the default
		// truncation threshold, and its island potentials must match the
		// untruncated rows' within the engine's own error bound plus
		// rounding headroom.
		dt := *d
		dt.Spec.CinvEps = 0
		ct, err := dt.Compile(nil)
		if err != nil {
			t.Fatalf("default cinv-eps compile failed where cinv-eps %g succeeded: %v\ninput:\n%s", d.Spec.CinvEps, err, src)
		}
		const at = 1e-10
		ni := ct.Circuit.NumIslands()
		ns := make([]int, ni)
		for i := range ns {
			ns[i] = i%3 - 1
		}
		qmax, vmax := 0.0, 0.0
		for _, x := range ct.Circuit.ChargeVector(nil, ns) {
			qmax = math.Max(qmax, math.Abs(x))
		}
		for _, x := range ct.Circuit.ExternalVoltages(nil, at) {
			vmax = math.Max(vmax, math.Abs(x))
		}
		tol := ct.Circuit.Potentials().RefreshErrorBound(qmax, vmax) + 1e-11*math.Max(vmax, 1)
		vd := exactPotentials(t, ct.Circuit, ns, at)
		vt := ct.Circuit.IslandPotentials(nil, ns, at)
		for i := range vd {
			if diff := math.Abs(vd[i] - vt[i]); !(diff <= tol) {
				t.Errorf("island %d: exact potential %v, default cinv-eps %v (|diff| %g > %g)\ninput:\n%s", i, vd[i], vt[i], diff, tol, src)
			}
		}
	})
}

// exactPotentials is the test-local exact reference for a built
// circuit's island potentials: the full, untruncated C^-1 rows of the
// circuit's own factorization, applied to q and to C_IE·v_ext (C_IE
// assembled from the element list) in the order Potentials.Solve
// applies its truncated rows, so only the dropped entries and rounding
// separate the two.
func exactPotentials(t *testing.T, c *circuit.Circuit, ns []int, tt float64) []float64 {
	t.Helper()
	n, ext := c.NumIslands(), c.Externals()
	ch, err := matrix.FactorCSR(c.CSR(), matrix.RCM(c.CSR()))
	if err != nil {
		t.Fatalf("refactoring a built circuit's capacitance matrix: %v", err)
	}
	extIdx := map[int]int{}
	for s, id := range ext {
		extIdx[id] = s
	}
	cie := make([][]float64, n) // island x external coupling capacitances
	for i := range cie {
		cie[i] = make([]float64, len(ext))
	}
	couple := func(a, b int, cap float64) {
		for _, e := range [2][2]int{{a, b}, {b, a}} {
			if i := c.IslandIndex(e[0]); i >= 0 && c.IslandIndex(e[1]) < 0 {
				cie[i][extIdx[e[1]]] += cap
			}
		}
	}
	for _, j := range c.Junctions() {
		couple(j.A, j.B, j.C)
	}
	for _, cp := range c.AllCapacitors() {
		couple(cp.A, cp.B, cp.C)
	}
	q := c.ChargeVector(nil, ns)
	vext := c.ExternalVoltages(nil, tt)
	v := make([]float64, n)
	row, w := make([]float64, n), make([]float64, n)
	for i := range v {
		ch.InverseRow(i, row, w)
		acc := 0.0
		for j, x := range row {
			acc += x * q[j]
		}
		for s, vs := range vext {
			m := 0.0
			for k, x := range row {
				m += x * cie[k][s]
			}
			acc += m * vs
		}
		v[i] = acc
	}
	return v
}
