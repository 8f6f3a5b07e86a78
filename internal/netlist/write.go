package netlist

import (
	"fmt"
	"io"
	"sort"

	"semsim/internal/circuit"
	"semsim/internal/units"
)

// Format writes the deck back out in canonical input-file form, so
// programmatically built or modified decks can be saved and re-parsed.
// Parse(Format(d)) reproduces the deck exactly (round-trip tested).
func (d *Deck) Format(w io.Writer) error {
	var err error
	p := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}

	p("# semsim input deck\n")
	for _, j := range d.juncs {
		p("junc %d %d %d %.17g %.17g\n", j.id, j.a, j.b, j.g, j.c)
	}
	for _, cp := range d.caps {
		p("cap %d %d %.17g\n", cp.a, cp.b, cp.c)
	}
	var chargeNodes []int
	for n := range d.charges {
		chargeNodes = append(chargeNodes, n)
	}
	sort.Ints(chargeNodes)
	for _, n := range chargeNodes {
		p("charge %d %.17g\n", n, d.charges[n])
	}

	var srcNodes []int
	for n := range d.sources {
		srcNodes = append(srcNodes, n)
	}
	sort.Ints(srcNodes)
	for _, n := range srcNodes {
		switch s := d.sources[n].(type) {
		case circuit.DC:
			p("vdc %d %.17g\n", n, float64(s))
		case circuit.Sine:
			p("vac %d %.17g %.17g %.17g %.17g\n", n, s.Offset, s.Amp, s.Freq, s.Phase)
		case circuit.PWL:
			p("vpwl %d", n)
			for i := range s.T {
				p(" %.17g %.17g", s.T[i], s.Volt[i])
			}
			p("\n")
		default:
			return fmt.Errorf("netlist: cannot format source type %T on node %d", s, n)
		}
	}

	sp := d.Spec
	if sp.Temp != 0 {
		p("temp %.17g\n", sp.Temp)
	}
	if sp.Cotunnel {
		p("cotunnel\n")
	}
	if sp.Super != nil {
		p("super %.17g %.17g\n", sp.Super.GapAt0/units.E, sp.Super.Tc)
	}
	if len(sp.RecordJuncs) > 0 {
		p("record")
		for _, j := range sp.RecordJuncs {
			p(" %d", j)
		}
		p("\n")
	}
	for _, ns := range sp.NoiseJuncs {
		p("record noise %d", ns.Junc)
		for _, w := range ns.Omegas {
			p(" %.17g", w)
		}
		p("\n")
	}
	for _, fs := range sp.FanoJuncs {
		if fs.Window > 0 {
			p("record fano %d %.17g\n", fs.Junc, fs.Window)
		} else {
			p("record fano %d\n", fs.Junc)
		}
	}
	if len(sp.ProbeNodes) > 0 {
		p("probe")
		for _, n := range sp.ProbeNodes {
			p(" %d", n)
		}
		p("\n")
	}
	if sp.Jumps > 0 {
		p("jumps %d %d\n", sp.Jumps, sp.Runs)
	}
	if sp.MaxTime > 0 {
		p("time %.17g\n", sp.MaxTime)
	}
	if sw := sp.Sweep; sw != nil {
		p("sweep %d %.17g %.17g\n", sw.Node, sw.Max, sw.Step)
		if sw.Mirror >= 0 {
			p("symm %d\n", sw.Mirror)
		}
	}
	if mp := sp.Map; mp != nil {
		p("map x %d %.17g %.17g %d\n", mp.X.Node, mp.X.Min, mp.X.Max, mp.X.Points)
		p("map y %d %.17g %.17g %d\n", mp.Y.Node, mp.Y.Min, mp.Y.Max, mp.Y.Points)
		if mp.Depth > 0 {
			if mp.Threshold > 0 {
				p("refine %d %.17g\n", mp.Depth, mp.Threshold)
			} else {
				p("refine %d\n", mp.Depth)
			}
		}
	}
	if sp.Seed != 0 {
		p("seed %d\n", sp.Seed)
	}
	if sp.Adaptive {
		p("adaptive %.17g\n", sp.Alpha)
	}
	if sp.RefreshEvery > 0 {
		p("refresh %d\n", sp.RefreshEvery)
	}
	if sp.CinvEps > 0 {
		p("cinv-eps %.17g\n", sp.CinvEps)
	}
	if sp.RateTables {
		p("rate-tables\n")
	}
	return err
}
