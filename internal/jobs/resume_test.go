package jobs

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"semsim/internal/netlist"
	"semsim/internal/solver"
)

// testDeck is a small swept SET deck exercising the adaptive solver:
// 3 sweep points x 2 runs, with a refresh period small enough that a
// run crosses many checkpointable boundaries.
const testDeck = `
junc 1 1 4 1e-6 1e-18
junc 2 2 4 1e-6 1e-18
cap 3 4 3e-18
vdc 1 0.02
vdc 2 -0.02
vdc 3 0.004
record 1 2
jumps 4000 2
sweep 2 0.02 0.02
symm 1
seed 11
temp 5
adaptive 0.05
refresh 256
`

func parseDeck(t *testing.T, src string) *netlist.Deck {
	t.Helper()
	d, err := netlist.Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func samePoints(t *testing.T, want, got []Point, label string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d points, want %d", label, len(got), len(want))
	}
	for i := range want {
		w, g := want[i], got[i]
		if w.SweepV != g.SweepV || w.Blockaded != g.Blockaded || w.Events != g.Events {
			t.Fatalf("%s: point %d header differs:\nwant %+v\ngot  %+v", label, i, w, g)
		}
		if len(w.Current) != len(g.Current) {
			t.Fatalf("%s: point %d records %d juncs, want %d", label, i, len(g.Current), len(w.Current))
		}
		for j, c := range w.Current {
			if g.Current[j] != c {
				t.Fatalf("%s: point %d junction %d current %g, want %g (bit-exact)", label, i, j, g.Current[j], c)
			}
		}
	}
}

// TestDeckResumeBitIdentical is the tentpole invariant: a deck
// execution interrupted at EVERY checkpoint boundary and resumed from
// disk each time must fold to exactly the same points as one
// uninterrupted execution — serially and with run-level workers.
func TestDeckResumeBitIdentical(t *testing.T) {
	cases := []struct {
		name    string
		workers int
	}{
		{"serial", 1},
		{"parallel", 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := parseDeck(t, testDeck)
			ref, err := ExecuteDeck(context.Background(), d, Overrides{}, RunConfig{Workers: tc.workers})
			if err != nil {
				t.Fatal(err)
			}

			dir := t.TempDir()
			closed := make(chan struct{})
			close(closed)
			// A pre-closed Stop makes every task drain at its next refresh
			// boundary, so each ExecuteDeck call advances each task by one
			// checkpoint interval and then persists. Looping until success
			// exercises an interrupt+resume cycle at every single boundary.
			var got []Point
			resumes := 0
			for {
				got, err = ExecuteDeck(context.Background(), d, Overrides{}, RunConfig{
					Dir: dir, Every: 1, Resume: true, Workers: tc.workers, Stop: closed,
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
			t.Logf("%s: converged after %d interrupt/resume cycles", tc.name, resumes)
			samePoints(t, ref, got, tc.name)

			// Completed tasks must have cleaned up their checkpoints.
			left, err := filepath.Glob(filepath.Join(dir, "*.ckpt"))
			if err != nil {
				t.Fatal(err)
			}
			if len(left) != 0 {
				t.Fatalf("completed execution left checkpoints behind: %v", left)
			}
		})
	}
}

// A resumed execution must refuse checkpoints that belong to different
// work: same directory, different deck content.
func TestResumeRejectsForeignCheckpoint(t *testing.T) {
	d := parseDeck(t, testDeck)
	dir := t.TempDir()
	closed := make(chan struct{})
	close(closed)
	_, err := ExecuteDeck(context.Background(), d, Overrides{}, RunConfig{
		Dir: dir, Every: 1, Resume: true, Workers: 1, Stop: closed,
	})
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("expected an interrupt, got %v", err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.ckpt"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no checkpoint written (%v)", err)
	}

	// A different deck derives a different key, so its tasks never even
	// look at the foreign file — but a file renamed to collide with the
	// new key must be rejected by the embedded key check.
	d2 := parseDeck(t, strings.Replace(testDeck, "seed 11", "seed 12", 1))
	key2, err := deckKey(d2)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(files[0], checkpointPath(dir, key2, 0, 0)); err != nil {
		t.Fatal(err)
	}
	_, err = ExecuteDeck(context.Background(), d2, Overrides{}, RunConfig{
		Dir: dir, Resume: true, Workers: 1,
	})
	if err == nil {
		t.Fatal("foreign checkpoint accepted")
	}
}

// Deck execution through the checkpointed path must stay bit-identical
// to the plain path, and to itself at any worker count.
func TestExecuteDeckWorkerCountInvariance(t *testing.T) {
	d := parseDeck(t, testDeck)
	ref, err := ExecuteDeck(context.Background(), d, Overrides{}, RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 6} {
		got, err := ExecuteDeck(context.Background(), d, Overrides{}, RunConfig{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		samePoints(t, ref, got, "workers")
	}
	// And with checkpointing enabled but never interrupted.
	got, err := ExecuteDeck(context.Background(), d, Overrides{}, RunConfig{
		Dir: t.TempDir(), Every: 1, Resume: true, Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	samePoints(t, ref, got, "checkpointed")
}

// RunSim + Checkpointer must resume a single (non-deck) simulation
// bit-identically, including its waveform record — the logicsim
// -resume path.
func TestRunSimResumeBitIdentical(t *testing.T) {
	deckSrc := `
junc 1 1 3 1e-6 1e-18
junc 2 2 3 1e-6 1e-18
vdc 1 0.02
vdc 2 -0.02
record 1
jumps 100
seed 5
temp 5
refresh 256
`
	mk := func(t *testing.T) *solver.Sim {
		d := parseDeck(t, deckSrc)
		cc, err := d.Compile(nil)
		if err != nil {
			t.Fatal(err)
		}
		s, err := solver.New(cc.Circuit, solver.Options{
			Temp: d.Spec.Temp, Seed: d.Spec.Seed, RefreshEvery: d.Spec.RefreshEvery,
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	ref := mk(t)
	if _, err := RunSim(context.Background(), ref, 3000, 0, nil); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "run.ckpt")
	a := mk(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // pre-canceled: drain at the very first refresh boundary
	_, err := RunSim(ctx, a, 3000, 0, &Checkpointer{Path: path, Every: 1})
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("want ErrInterrupted, got %v", err)
	}

	b := mk(t)
	cp, err := LoadSim(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Restore(cp); err != nil {
		t.Fatal(err)
	}
	if b.Stats().Events == 0 {
		t.Fatal("checkpoint carries no progress")
	}
	if _, err := RunSim(context.Background(), b, 3000, 0, nil); err != nil {
		t.Fatal(err)
	}

	if ref.Time() != b.Time() || ref.Stats().Events != b.Stats().Events {
		t.Fatalf("resumed run diverged: t=%g/%g events=%d/%d",
			ref.Time(), b.Time(), ref.Stats().Events, b.Stats().Events)
	}
	if ref.JunctionCharge(0) != b.JunctionCharge(0) {
		t.Fatal("resumed run charge differs")
	}
}
