package main

import (
	"fmt"

	"semsim"
)

// fig1b regenerates the Fig. 1b I-V family: a normal-state SET with
// R1 = R2 = 1 MOhm, C1 = C2 = 1 aF, Cg = 3 aF at T = 5 K under a
// symmetric bias, for gate voltages 0, 10, 20 and 30 mV.
func fig1b() error {
	return ivFamily("fig1b.dat", 0, 0, 5.0, 0.04)
}

// fig1c is the superconducting counterpart (Fig. 1c): the same device
// at T = 50 mK with Delta(0) = 0.2 meV and Tc = 1.2 K. The suppressed
// region widens by the superconducting gap.
func fig1c() error {
	return ivFamily("fig1c.dat", 0.2, 1.2, 0.05, 0.04)
}

// ivFamily runs one I-V deck per gate voltage. The deck sweeps the
// source lead over [-vmax/2, vmax/2] with the drain mirrored (`symm`),
// so the drain-source bias spans [-vmax, vmax]. A positive gapMeV makes
// the device superconducting with critical temperature tc.
func ivFamily(file string, gapMeV, tc, temp, vmax float64) error {
	gateVs := []float64{0, 0.01, 0.02, 0.03}
	superLine := ""
	if gapMeV > 0 {
		superLine = fmt.Sprintf("super %g %g", gapMeV*1e-3, tc)
	}
	nPts := 81
	events := 40000
	if *quick {
		nPts = 21
		events = 6000
	}

	curves := make([][]semsim.DeckPoint, len(gateVs))
	for gi, vg := range gateVs {
		deck := fmt.Sprintf(`# Fig. 1 SET: source 1, drain 2, gate 3, island 4
junc 1 1 4 1e-6 1e-18
junc 2 4 2 1e-6 1e-18
cap 3 4 3e-18
vdc 1 0
vdc 2 0
vdc 3 %g
%s
sweep 1 %g %g
symm 2
record 2
temp %g
jumps %d
time 2e-3
seed %d
`, vg, superLine, vmax/2, vmax/float64(nPts-1), temp, events, 1000*gi)
		pts, err := runDeckText(deck)
		if err != nil {
			return err
		}
		if len(pts) != nPts {
			return fmt.Errorf("%s: deck gave %d points, want %d", file, len(pts), nPts)
		}
		curves[gi] = pts
	}

	f, done := datFile(file)
	defer done()
	fmt.Fprintf(f, "# SET I-V family, T=%g K", temp)
	if gapMeV > 0 {
		fmt.Fprintf(f, ", superconducting Delta(0)=%g meV Tc=%g K", gapMeV, tc)
	}
	fmt.Fprintln(f)
	fmt.Fprint(f, "# Vds(V)")
	for _, vg := range gateVs {
		fmt.Fprintf(f, " I@Vg=%gV(A)", vg)
	}
	fmt.Fprintln(f)
	for i, p := range curves[0] {
		fmt.Fprintf(f, "%+.6e", 2*p.SweepV)
		for gi := range gateVs {
			fmt.Fprintf(f, " %+.6e", curves[gi][i].Current[2])
		}
		fmt.Fprintln(f)
	}

	// Console summary: blockade width per curve (span where |I| is
	// below 2% of the edge current).
	for gi, vg := range gateVs {
		last := curves[gi][nPts-1].Current[2]
		edge := abs(last)
		lo, hi := 0.0, 0.0
		for _, p := range curves[gi] {
			if abs(p.Current[2]) < 0.02*edge {
				if lo == 0 {
					lo = 2 * p.SweepV
				}
				hi = 2 * p.SweepV
			}
		}
		fmt.Printf("Vg=%5.3f V: I(+%gmV)=%.3e A, suppressed region ~[%.1f, %.1f] mV\n",
			vg, vmax*1e3, last, lo*1e3, hi*1e3)
	}
	return nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
