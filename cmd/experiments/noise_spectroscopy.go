package main

import (
	"fmt"
	"math"
	"strings"

	"semsim"
	"semsim/internal/units"
)

// noiseSpectroscopy validates the streaming noise/FCS engine end to
// end — deck text through RunDeck to folded statistics, the exact
// pipeline behind `semsim deck.txt` — against the three analytic
// anchors of SET shot noise (see DESIGN.md §15):
//
//	N1  a strongly asymmetric SET is rate-limited by one junction, so
//	    transfers are Poissonian: F = (Γ1²+Γ2²)/(Γ1+Γ2)² → 1.
//	N2  on the conduction plateau of a symmetric SET the two equal
//	    rates anticorrelate transfers: F → 1/2.
//	N3  the spectral density is white well above the inverse
//	    measurement time and below the tunnel rate, at the suppressed
//	    level S_I(ω) = 2eI·F.
//
// Results land in noise.dat for the regeneration map in EXPERIMENTS.md.
func noiseSpectroscopy() error {
	f, done := datFile("noise.dat")
	defer done()

	events, runs := 20000, 16
	if *quick {
		events, runs = 4000, 4
	}
	// Uniform grid ω_k = (k+1)·3e9 rad/s: ω·T ≫ 1 for the ~2e-8 s
	// measurement yet far under the ~5e11 /s junction rates, so every
	// point sits on the white plateau.
	const nOmega, w0 = 8, 3e9
	var grid strings.Builder
	for k := 0; k < nOmega; k++ {
		fmt.Fprintf(&grid, " %g", w0+float64(k)*w0)
	}

	set := func(g1 float64, noiseLine string) string {
		return fmt.Sprintf(`
junc 1 1 3 %g 1e-18
junc 2 2 3 1e-6 1e-18
cap 4 3 3e-18
vdc 1 0.1
vdc 2 -0.1
vdc 4 0
temp 0
%s
jumps %d %d
seed 1000
adaptive 0.05
`, g1, noiseLine, events, runs)
	}
	fano := func(deckText string) (fano, dfano, current float64, err error) {
		d, err := semsim.ParseNetlist(strings.NewReader(deckText))
		if err != nil {
			return 0, 0, 0, err
		}
		pts, err := semsim.RunDeck(d)
		if err != nil {
			return 0, 0, 0, err
		}
		if len(pts) != 1 {
			return 0, 0, 0, fmt.Errorf("expected one operating point, got %d", len(pts))
		}
		st := pts[0].Noise[2]
		return st.Fano, st.FanoErr, pts[0].Current[2], nil
	}

	// N1/N2: Fano factor across tunnel-rate asymmetry. The drain
	// junction is fixed at 1 MΩ; the source junction sweeps from
	// matched to 1000x slower, carrying F from 1/2 up to 1.
	fmt.Fprintln(stdout, "N1/N2: Fano factor vs junction asymmetry (analytic (1+r²)/(1+r)², r = G1/G2)")
	fmt.Fprintln(f, "# N1/N2: G1(S) F dF F_analytic")
	for _, g1 := range []float64{1e-6, 3e-7, 1e-7, 1e-8, 1e-9} {
		fF, dF, _, err := fano(set(g1, "record fano 2"))
		if err != nil {
			return err
		}
		r := g1 / 1e-6
		want := (1 + r*r) / ((1 + r) * (1 + r))
		fmt.Fprintf(stdout, "  G1=%8.0e S: F = %.3f ± %.3f  (analytic %.3f)\n", g1, fF, dF, want)
		fmt.Fprintf(f, "%g %.4f %.4f %.4f\n", g1, fF, dF, want)
	}

	// N3: white spectral tail of the symmetric SET at the suppressed
	// level 2eI·F.
	d, err := semsim.ParseNetlist(strings.NewReader(set(1e-6, "record noise 2"+grid.String())))
	if err != nil {
		return err
	}
	pts, err := semsim.RunDeck(d)
	if err != nil {
		return err
	}
	st := pts[0].Noise[2]
	current := math.Abs(pts[0].Current[2])
	want := 2 * units.E * current * st.Fano
	fmt.Fprintf(stdout, "N3: S_I(omega) white tail vs 2eI*F = %.3e A^2/Hz (I = %.3e A, F = %.3f)\n", want, current, st.Fano)
	fmt.Fprintln(f, "# N3: omega(rad/s) S_I(A^2/Hz) 2eIF(A^2/Hz)")
	var band float64
	for k, s := range st.S {
		band += s
		fmt.Fprintf(f, "%g %e %e\n", w0+float64(k)*w0, s, want)
	}
	band /= float64(len(st.S))
	fmt.Fprintf(stdout, "    band average %.3e A^2/Hz (ratio to 2eI*F: %.2f)\n", band, band/want)
	return nil
}
