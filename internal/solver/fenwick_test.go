package solver

import (
	"math"
	"testing"

	"semsim/internal/rng"
)

// put assigns v to index i as a one-entry batch, committed at once.
func put(f *fenwick, i int, v float64) {
	f.stage(i, v)
	f.flush()
}

func TestFenwickBasics(t *testing.T) {
	f := newFenwick(5)
	put(f, 0, 1)
	put(f, 2, 3)
	put(f, 4, 0.5)
	if got := f.total(); math.Abs(got-4.5) > 1e-12 {
		t.Fatalf("total = %g, want 4.5", got)
	}
	if f.vals[2] != 3 {
		t.Fatalf("vals[2] = %g", f.vals[2])
	}
	put(f, 2, 1)
	if got := f.total(); math.Abs(got-2.5) > 1e-12 {
		t.Fatalf("total after update = %g, want 2.5", got)
	}
}

func TestFenwickNegativeClamped(t *testing.T) {
	f := newFenwick(3)
	put(f, 1, -5)
	if f.total() != 0 || f.vals[1] != 0 {
		t.Fatal("negative rates must clamp to zero")
	}
}

func TestFenwickFind(t *testing.T) {
	f := newFenwick(4)
	put(f, 0, 1)
	put(f, 1, 0)
	put(f, 2, 2)
	put(f, 3, 1)
	cases := []struct {
		u    float64
		want int
	}{
		{0, 0}, {0.99, 0}, {1.0, 2}, {2.9, 2}, {3.0, 3}, {3.99, 3},
	}
	for _, c := range cases {
		if got := f.find(c.u); got != c.want {
			t.Fatalf("find(%g) = %d, want %d", c.u, got, c.want)
		}
	}
}

func TestFenwickFindNeverZeroRate(t *testing.T) {
	f := newFenwick(6)
	put(f, 1, 1e-20)
	put(f, 4, 2e-20)
	r := rng.New(1)
	for i := 0; i < 10000; i++ {
		idx := f.find(r.Float64() * f.total())
		if f.vals[idx] <= 0 {
			t.Fatalf("selected zero-rate channel %d", idx)
		}
	}
}

func TestFenwickSamplingDistribution(t *testing.T) {
	f := newFenwick(3)
	put(f, 0, 1)
	put(f, 1, 2)
	put(f, 2, 7)
	r := rng.New(42)
	counts := [3]int{}
	const n = 200000
	for i := 0; i < n; i++ {
		counts[f.find(r.Float64()*f.total())]++
	}
	want := [3]float64{0.1, 0.2, 0.7}
	for i := range counts {
		got := float64(counts[i]) / n
		if math.Abs(got-want[i]) > 0.01 {
			t.Fatalf("channel %d sampled %.3f, want %.3f", i, got, want[i])
		}
	}
}

func TestFenwickRebuildMatchesIncremental(t *testing.T) {
	f := newFenwick(64)
	r := rng.New(7)
	for i := 0; i < 1000; i++ {
		put(f, r.Intn(64), r.Float64()*1e12)
	}
	before := f.total()
	f.rebuild()
	after := f.total()
	if math.Abs(before-after) > 1e-3*after {
		t.Fatalf("rebuild changed total: %g vs %g", before, after)
	}
}

func TestFenwickFromBulkBuild(t *testing.T) {
	weights := []float64{0.5, 0, 3, -2, 1e-9, 7}
	f := newFenwick(len(weights))
	g := newFenwick(len(weights))
	for i, w := range weights {
		f.stage(i, w)
		put(g, i, w)
	}
	f.rebuild()
	if f.total() != g.total() {
		t.Fatalf("bulk total %g != incremental total %g", f.total(), g.total())
	}
	for i := range weights {
		if f.vals[i] != g.vals[i] {
			t.Fatalf("vals[%d]: bulk %g != incremental %g", i, f.vals[i], g.vals[i])
		}
	}
	if f.vals[3] != 0 {
		t.Fatal("negative weight must clamp to zero in bulk build")
	}
}

func TestFenwickSingleChannel(t *testing.T) {
	f := newFenwick(1)
	f.stage(0, 2.5)
	f.rebuild()
	if f.total() != 2.5 {
		t.Fatalf("total = %g, want 2.5", f.total())
	}
	if got := f.find(1.0); got != 0 {
		t.Fatalf("find = %d, want 0", got)
	}
	f.stage(0, 4)
	f.flush()
	if f.total() != 4 {
		t.Fatalf("total after stage+flush = %g, want 4", f.total())
	}
}

func TestFenwickAllZeroWeights(t *testing.T) {
	f := newFenwick(8)
	if f.total() != 0 {
		t.Fatalf("total = %g, want 0", f.total())
	}
	// Sampling an all-zero tree is the blockade case; the solver checks
	// total() first, but find must still not walk out of bounds.
	if got := f.find(0); got < 0 || got >= 8 {
		t.Fatalf("find on empty tree returned out-of-range index %d", got)
	}
}

func TestFenwickBulkBuildVsIncrementalRandom(t *testing.T) {
	// Stage random batches on one tree and mirror every assignment onto
	// a tree committed one entry at a time: totals and prefix structure
	// must agree to rounding at every checkpoint.
	const n = 257 // off power-of-two size
	a := newFenwick(n)
	b := newFenwick(n)
	r := rng.New(99)
	for round := 0; round < 50; round++ {
		batch := 1 + r.Intn(2*n)
		for k := 0; k < batch; k++ {
			i := r.Intn(n)
			v := r.Float64() * 1e10
			if r.Intn(10) == 0 {
				v = 0 // exercise zeroing channels
			}
			a.stage(i, v)
			put(b, i, v)
		}
		a.flush()
		if math.Abs(a.total()-b.total()) > 1e-6*(1+b.total()) {
			t.Fatalf("round %d: staged total %g != incremental %g", round, a.total(), b.total())
		}
		for i := 0; i < n; i++ {
			if a.vals[i] != b.vals[i] {
				t.Fatalf("round %d: vals[%d] %g != %g", round, i, a.vals[i], b.vals[i])
			}
		}
		// Both trees must sample identically for the same u after a
		// rebuild clears rounding drift.
		a.rebuild()
		b.rebuild()
		for k := 0; k < 20; k++ {
			u := r.Float64() * a.total()
			if ga, gb := a.find(u), b.find(u); ga != gb {
				t.Fatalf("round %d: find(%g) %d != %d", round, u, ga, gb)
			}
		}
	}
}

func TestFenwickStageSameIndexTwice(t *testing.T) {
	f := newFenwick(4)
	f.stage(2, 5)
	f.stage(2, 1) // second stage in the same batch must win
	f.flush()
	if f.vals[2] != 1 || math.Abs(f.total()-1) > 1e-12 {
		t.Fatalf("vals[2]=%g total=%g, want 1, 1", f.vals[2], f.total())
	}
}

func TestFenwickDeferredFlush(t *testing.T) {
	// Staged values are visible in vals immediately; the tree only
	// catches up at flush. This is the contract the solver's deferred
	// per-event flush relies on.
	f := newFenwick(8)
	f.stage(1, 2)
	f.stage(5, 3)
	if f.vals[1] != 2 || f.vals[5] != 3 {
		t.Fatal("staged values must be visible in vals before flush")
	}
	if f.pendingCount() != 2 {
		t.Fatalf("pendingCount = %d, want 2", f.pendingCount())
	}
	batch, rebuilt := f.flush()
	if batch != 2 || rebuilt {
		t.Fatalf("flush = (%d, %v), want (2, false)", batch, rebuilt)
	}
	if math.Abs(f.total()-5) > 1e-12 {
		t.Fatalf("total = %g, want 5", f.total())
	}
	if batch, _ := f.flush(); batch != 0 {
		t.Fatalf("second flush reported batch %d, want 0", batch)
	}
}
