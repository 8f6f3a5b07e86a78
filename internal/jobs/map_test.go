package jobs

import (
	"context"
	"errors"
	"path/filepath"
	"testing"
	"time"
)

// mapDeck is a small adaptive stability-map deck: a 4x3 coarse grid
// over (drain bias, gate bias) refined two dyadic levels onto a 13x9
// fine lattice wherever the coarse currents show contrast.
const mapDeck = `
junc 1 1 4 1e-6 1e-18
junc 2 2 4 1e-6 1e-18
cap 3 4 3e-18
vdc 1 0.02
vdc 2 -0.02
vdc 3 0
record 1 2
jumps 1200
map x 1 -0.03 0.03 4
map y 3 0 0.04 3
refine 2 0.15
seed 7
temp 5
adaptive 0.05
refresh 256
`

func sameMapPoints(t *testing.T, want, got []Point, label string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d points, want %d", label, len(got), len(want))
	}
	for i := range want {
		w, g := want[i], got[i]
		if w.SweepV != g.SweepV || w.Y != g.Y || w.Blockaded != g.Blockaded || w.Events != g.Events {
			t.Fatalf("%s: point %d header differs:\nwant %+v\ngot  %+v", label, i, w, g)
		}
		for j, c := range w.Current {
			if g.Current[j] != c {
				t.Fatalf("%s: point %d junction %d current %g, want %g (bit-exact)", label, i, j, g.Current[j], c)
			}
		}
	}
}

// A map deck must simulate the coarse grid plus adaptively planned
// refinement points — strictly fewer than the uniform fine lattice —
// and fold to the identical points at any worker count.
func TestExecuteDeckMapRefines(t *testing.T) {
	d := parseDeck(t, mapDeck)
	ref, err := ExecuteDeck(context.Background(), d, Overrides{}, RunConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	coarse := 4 * 3
	fine := 13 * 9
	if len(ref) <= coarse {
		t.Fatalf("no refinement happened: %d points (coarse grid is %d)", len(ref), coarse)
	}
	if len(ref) >= fine {
		t.Fatalf("refinement simulated the whole fine lattice: %d of %d", len(ref), fine)
	}
	// Output is sorted by fine-lattice index: (y, x) lexicographic.
	for i := 1; i < len(ref); i++ {
		a, b := ref[i-1], ref[i]
		if b.Y < a.Y || (b.Y == a.Y && b.SweepV <= a.SweepV) {
			t.Fatalf("points not in fine-lattice order at %d: (%g,%g) then (%g,%g)",
				i, a.SweepV, a.Y, b.SweepV, b.Y)
		}
	}
	for _, workers := range []int{2, 5} {
		got, err := ExecuteDeck(context.Background(), d, Overrides{}, RunConfig{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		sameMapPoints(t, ref, got, "workers")
	}
}

// A map execution interrupted at every checkpoint boundary and resumed
// each time — replaying completed tasks from done markers, re-planning
// refinement waves from identical folded currents — must converge to
// the exact uninterrupted result.
func TestMapDeckResumeBitIdentical(t *testing.T) {
	d := parseDeck(t, mapDeck)
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
		if resumes > 800 {
			t.Fatal("drain/resume loop does not converge")
		}
	}
	if resumes == 0 {
		t.Fatal("test never interrupted a run; it proves nothing")
	}
	t.Logf("map deck converged after %d interrupt/resume cycles", resumes)
	sameMapPoints(t, ref, got, "resumed")
	left, err := filepath.Glob(filepath.Join(dir, "*.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Fatalf("completed execution left checkpoints behind: %v", left)
	}
}

// The Engine must execute map decks with dynamic refinement fan-out —
// new waves queued as earlier ones complete — and produce exactly the
// synchronous ExecuteDeck result at any worker count.
func TestEngineMapJobMatchesExecuteDeck(t *testing.T) {
	d := parseDeck(t, mapDeck)
	ref, err := ExecuteDeck(context.Background(), d, Overrides{}, RunConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3} {
		e := NewEngine(EngineConfig{Workers: workers})
		j, err := e.Submit(parseDeck(t, mapDeck), Overrides{})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
		if err := j.Wait(ctx); err != nil {
			t.Fatalf("map job stuck: %v", err)
		}
		cancel()
		pts, err := e.Result(j)
		if err != nil {
			t.Fatal(err)
		}
		sameMapPoints(t, ref, pts, "engine")
		st := e.Status(j)
		if st.TasksTotal <= 4*3 {
			t.Fatalf("engine never fanned out a refinement wave: %d tasks", st.TasksTotal)
		}
		e.Close()
	}
}

// With ResultCache the engine keeps done markers after a job folds, so
// an identical deck submitted later resumes every task from its marker
// instead of re-simulating.
func TestEngineResultCacheAcrossJobs(t *testing.T) {
	dir := t.TempDir()
	e := NewEngine(EngineConfig{Workers: 2, CheckpointDir: dir, ResultCache: true})
	defer e.Close()

	j1, err := e.Submit(parseDeck(t, testDeck), Overrides{})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, e, j1, StateDone)
	p1, err := e.Result(j1)
	if err != nil {
		t.Fatal(err)
	}
	markers, err := filepath.Glob(filepath.Join(dir, "*.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if len(markers) == 0 {
		t.Fatal("ResultCache kept no done markers")
	}

	j2, err := e.Submit(parseDeck(t, testDeck), Overrides{})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, e, j2, StateDone)
	p2, err := e.Result(j2)
	if err != nil {
		t.Fatal(err)
	}
	samePoints(t, p1, p2, "cached")
	if st := e.Status(j2); st.Resumed != st.TasksTotal {
		t.Fatalf("second job resumed %d of %d tasks; every one should hit the result cache",
			st.Resumed, st.TasksTotal)
	}
}

// The session-reuse path (per-worker compiled deck + solver Reset) must
// be bit-identical to building a fresh solver per task.
func TestRunDeckPointSessionMatchesFresh(t *testing.T) {
	for _, src := range []string{testDeck, mapDeck} {
		d := parseDeck(t, src)
		key, err := deckKey(d, Overrides{})
		if err != nil {
			t.Fatal(err)
		}
		pts := deckPoints(&d.Spec)
		ds := &deckSession{}
		for _, pt := range pts {
			fresh, err := runDeckPoint(context.Background(), d, Overrides{}, key, pt, 0, RunConfig{})
			if err != nil {
				t.Fatal(err)
			}
			reused, err := runDeckPoint(context.Background(), d, Overrides{}, key, pt, 0, RunConfig{session: ds})
			if err != nil {
				t.Fatal(err)
			}
			if fresh.Events != reused.Events || fresh.Blockaded != reused.Blockaded {
				t.Fatalf("point %d: session run diverged: %+v vs %+v", pt.Fine, reused, fresh)
			}
			for j, c := range fresh.Current {
				if reused.Current[j] != c {
					t.Fatalf("point %d junction %d: session current %g != fresh %g (bit-exact)",
						pt.Fine, j, reused.Current[j], c)
				}
			}
		}
	}
}
