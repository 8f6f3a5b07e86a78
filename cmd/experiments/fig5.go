package main

import (
	"fmt"
)

// fig5 regenerates the Fig. 5 stability map: the current of a
// superconducting SET (R = 210 kOhm, C = 110 aF, Cg = 14 aF,
// Delta = 0.23 meV, Qb = 0.65 e) at T = 0.52 K over the
// (Vbias, Vgate) plane, showing JQP ridges and thermally excited
// singularity-matching features below the quasi-particle threshold.
func fig5() error {
	nx, ny := 45, 26
	events := 20000
	if *quick {
		nx, ny = 18, 10
		events = 5000
	}
	// The paper's axes: Vbias ~ 0.4..1.6 mV on the source, Vgate
	// 0..10 mV; the drain is grounded.
	deck := fmt.Sprintf(`# Fig. 5 SSET: source 1, drain 2, gate 3, island 4
junc 1 1 4 %.17g 110e-18
junc 2 4 2 %.17g 110e-18
cap 3 4 14e-18
charge 4 0.65
vdc 1 0
vdc 2 0
vdc 3 0
super 0.00023 1.4
map x 1 0.4e-3 1.6e-3 %d
map y 3 0 0.010 %d
record 2
temp 0.52
jumps %d
time 2e-3
seed 500
`, 1/210e3, 1/210e3, nx, ny, events)
	pts, err := runDeckText(deck)
	if err != nil {
		return err
	}
	if len(pts) != nx*ny {
		return fmt.Errorf("fig5: deck gave %d points, want %d", len(pts), nx*ny)
	}
	// A map deck without `refine` folds row-major: Vgate rows, Vbias
	// columns.
	cur := func(ix, iy int) float64 { return abs(pts[iy*nx+ix].Current[2]) }

	f, done := datFile("fig5.dat")
	defer done()
	fmt.Fprintln(f, "# SSET stability map: rows = Vgate, cols = Vbias, value = |I| (A)")
	fmt.Fprint(f, "# Vbias(V):")
	for ix := 0; ix < nx; ix++ {
		fmt.Fprintf(f, " %.5e", pts[ix].SweepV)
	}
	fmt.Fprintln(f)
	for iy := 0; iy < ny; iy++ {
		fmt.Fprintf(f, "%.5e", pts[iy*nx].Y)
		for ix := 0; ix < nx; ix++ {
			fmt.Fprintf(f, " %.5e", cur(ix, iy))
		}
		fmt.Fprintln(f)
	}

	// Console summary: strongest sub-threshold feature per gate row.
	fmt.Fprintln(stdout, "per-gate-voltage maximum sub-gap current (JQP ridge trace):")
	step := ny / 6
	if step == 0 {
		step = 1
	}
	for iy := 0; iy < ny; iy += step {
		bestI, bestV := 0.0, 0.0
		for ix := 0; ix < nx; ix++ {
			// Restrict to below the ~1.5 mV quasi-particle onset.
			vb := pts[ix].SweepV
			if vb > 1.45e-3 {
				break
			}
			if a := cur(ix, iy); a > bestI {
				bestI, bestV = a, vb
			}
		}
		fmt.Fprintf(stdout, "  Vg=%6.2f mV: peak %.3e A at Vb=%.2f mV\n", pts[iy*nx].Y*1e3, bestI, bestV*1e3)
	}
	return nil
}
