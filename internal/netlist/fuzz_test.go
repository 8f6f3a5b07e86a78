package netlist

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// FuzzNetlistParse drives the deck parser with arbitrary input. Any
// input may be rejected with an error, but never a panic; input the
// parser accepts must survive the canonical round trip: Format output
// reparses cleanly, formats identically the second time, and Compile
// either errors or yields a circuit — also at a near-exact C^-1
// truncation threshold, whose potentials must match the exact build's.
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
		// Every compilable deck must also compile at a near-exact
		// truncation threshold, and its island potentials must match the
		// exact dense build's within the truncated engine's own error
		// bound plus rounding headroom (the two builds solve the same
		// rows; only the dense one symmetrizes them).
		dd, dt := *d, *d
		dd.Spec.CinvEps, dt.Spec.CinvEps = 0, 1e-14
		cd, err := dd.Compile(nil)
		if err != nil {
			t.Fatalf("exact compile failed where cinv-eps %g succeeded: %v\ninput:\n%s", d.Spec.CinvEps, err, src)
		}
		ct, err := dt.Compile(nil)
		if err != nil {
			t.Fatalf("cinv-eps 1e-14 compile failed where cinv-eps %g succeeded: %v\ninput:\n%s", d.Spec.CinvEps, err, src)
		}
		const at = 1e-10
		ni := cd.Circuit.NumIslands()
		ns := make([]int, ni)
		for i := range ns {
			ns[i] = i%3 - 1
		}
		qmax, vmax := 0.0, 0.0
		for _, x := range cd.Circuit.ChargeVector(nil, ns) {
			qmax = math.Max(qmax, math.Abs(x))
		}
		for _, x := range cd.Circuit.ExternalVoltages(nil, at) {
			vmax = math.Max(vmax, math.Abs(x))
		}
		tol := ct.Circuit.Potentials().RefreshErrorBound(qmax, vmax) + 1e-11*math.Max(vmax, 1)
		vd := cd.Circuit.IslandPotentials(nil, ns, at)
		vt := ct.Circuit.IslandPotentials(nil, ns, at)
		for i := range vd {
			if diff := math.Abs(vd[i] - vt[i]); !(diff <= tol) {
				t.Errorf("island %d: exact potential %v, cinv-eps 1e-14 %v (|diff| %g > %g)\ninput:\n%s", i, vd[i], vt[i], diff, tol, src)
			}
		}
	})
}
