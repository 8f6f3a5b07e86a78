package jobs

import (
	"context"
	"errors"
	"math"
	"testing"
)

// noiseTestDeck is testDeck with noise recording on both junctions: a
// spectral grid plus explicit window on junction 1 and auto-calibrated
// counting statistics on junction 2.
const noiseTestDeck = `
junc 1 1 4 1e-6 1e-18
junc 2 2 4 1e-6 1e-18
cap 3 4 3e-18
vdc 1 0.02
vdc 2 -0.02
vdc 3 0.004
record noise 1 1e9 5e9
record fano 1 2e-11
record fano 2
jumps 4000 2
sweep 2 0.02 0.02
symm 1
seed 11
temp 5
adaptive 0.05
refresh 256
`

// sameNoise asserts two folded noise maps are bit-identical.
func sameNoise(t *testing.T, want, got []Point, label string) {
	t.Helper()
	for i := range want {
		w, g := want[i].Noise, got[i].Noise
		if len(w) != len(g) {
			t.Fatalf("%s: point %d records %d noise juncs, want %d", label, i, len(g), len(w))
		}
		for j, ws := range w {
			gs, ok := g[j]
			if !ok {
				t.Fatalf("%s: point %d lost noise junction %d", label, i, j)
			}
			if ws.Runs != gs.Runs || ws.Windows != gs.Windows ||
				math.Float64bits(ws.MeanI) != math.Float64bits(gs.MeanI) ||
				math.Float64bits(ws.Window) != math.Float64bits(gs.Window) ||
				math.Float64bits(ws.Fano) != math.Float64bits(gs.Fano) ||
				math.Float64bits(ws.FanoErr) != math.Float64bits(gs.FanoErr) {
				t.Fatalf("%s: point %d junction %d noise differs:\nwant %+v\ngot  %+v", label, i, j, ws, gs)
			}
			if len(ws.S) != len(gs.S) {
				t.Fatalf("%s: point %d junction %d spectral grid differs", label, i, j)
			}
			for k := range ws.S {
				if math.Float64bits(ws.S[k]) != math.Float64bits(gs.S[k]) ||
					math.Float64bits(ws.SErr[k]) != math.Float64bits(gs.SErr[k]) {
					t.Fatalf("%s: point %d junction %d S[%d] differs: %g±%g vs %g±%g",
						label, i, j, k, ws.S[k], ws.SErr[k], gs.S[k], gs.SErr[k])
				}
			}
		}
	}
}

// TestNoiseDeckFoldsDeterministically: the folded noise statistics
// must be bit-identical at any worker count and schedule, like the
// currents they ride along with.
func TestNoiseDeckFoldsDeterministically(t *testing.T) {
	d := parseDeck(t, noiseTestDeck)
	ref, err := ExecuteDeck(context.Background(), d, Overrides{}, RunConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range ref {
		if len(p.Noise) != 2 {
			t.Fatalf("point %d: %d noise junctions, want 2", i, len(p.Noise))
		}
		if st := p.Noise[1]; st.Runs != 2 || len(st.S) != 2 || st.Windows == 0 {
			t.Fatalf("point %d junction 1 fold looks wrong: %+v", i, st)
		}
		if st := p.Noise[2]; st.Window <= 0 {
			t.Fatalf("point %d junction 2 auto window not calibrated: %+v", i, st)
		}
	}
	par, err := ExecuteDeck(context.Background(), d, Overrides{}, RunConfig{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	samePoints(t, ref, par, "parallel")
	sameNoise(t, ref, par, "parallel")
}

// TestNoiseDeckResumeBitIdentical extends the drain/resume tentpole
// invariant to noise state: interrupting at every checkpoint boundary
// and resuming must fold to the exact statistics of an uninterrupted
// execution — the accumulators (including auto-calibrated windows)
// travel in the checkpoints.
func TestNoiseDeckResumeBitIdentical(t *testing.T) {
	d := parseDeck(t, noiseTestDeck)
	ref, err := ExecuteDeck(context.Background(), d, Overrides{}, RunConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	closed := make(chan struct{})
	close(closed)
	var got []Point
	resumes := 0
	for {
		got, err = ExecuteDeck(context.Background(), d, Overrides{}, RunConfig{
			Dir: dir, Every: 1, Resume: true, Workers: 2, Stop: closed,
		})
		if err == nil {
			break
		}
		if !errors.Is(err, ErrInterrupted) {
			t.Fatal(err)
		}
		resumes++
		if resumes > 500 {
			t.Fatal("drain/resume loop does not converge")
		}
	}
	if resumes == 0 {
		t.Fatal("test never interrupted a run; it proves nothing")
	}
	t.Logf("converged after %d interrupt/resume cycles", resumes)
	samePoints(t, ref, got, "resumed")
	sameNoise(t, ref, got, "resumed")
}

// TestFanoWindowOverride: the submission-level window override changes
// the counting statistics' τ but — being measurement-only state — must
// leave the trajectory (currents, event counts) untouched.
func TestFanoWindowOverride(t *testing.T) {
	d := parseDeck(t, noiseTestDeck)
	base, err := ExecuteDeck(context.Background(), d, Overrides{}, RunConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	const tau = 3e-11
	ov, err := ExecuteDeck(context.Background(), d, Overrides{FanoWindow: tau}, RunConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	samePoints(t, base, ov, "fano-window override")
	for i, p := range ov {
		for j, st := range p.Noise {
			if math.Abs(st.Window-tau) > tau*1e-12 {
				t.Errorf("point %d junction %d window %g, want override %g", i, j, st.Window, tau)
			}
		}
		if base[i].Noise[2].Window == tau {
			t.Errorf("point %d: base run already used the override window; test proves nothing", i)
		}
	}
	// Folding with different windows must actually change the counting
	// statistics (sanity that the override reached the accumulators).
	if base[0].Noise[1].Windows == ov[0].Noise[1].Windows {
		t.Errorf("window counts identical (%d) despite different τ", base[0].Noise[1].Windows)
	}
}
