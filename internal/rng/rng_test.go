package rng

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical values in 100", same)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(7)
	for i := 0; i < 100000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(123)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("mean of uniforms = %v, want ~0.5", mean)
	}
}

func TestExpMean(t *testing.T) {
	r := New(99)
	const n = 200000
	const rate = 3.0
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Exp(rate)
	}
	mean := sum / n
	if math.Abs(mean-1/rate)/(1/rate) > 0.02 {
		t.Fatalf("mean waiting time %v, want ~%v", mean, 1/rate)
	}
}

func TestExpPanicsOnZeroRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Exp(0) did not panic")
		}
	}()
	New(1).Exp(0)
}

func TestIntnBounds(t *testing.T) {
	r := New(5)
	counts := make([]int, 10)
	for i := 0; i < 100000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn(10) out of range: %d", v)
		}
		counts[v]++
	}
	for d, c := range counts {
		if c < 9000 || c > 11000 {
			t.Fatalf("digit %d count %d far from uniform 10000", d, c)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestSplitIndependence(t *testing.T) {
	parent := New(11)
	c1 := parent.Split()
	c2 := parent.Split()
	if c1.Uint64() == c2.Uint64() {
		t.Fatal("split children start identically")
	}
}

func TestIntnUnbiasedSmallRanges(t *testing.T) {
	// Property: for any seed and any n in [1, 64], Intn(n) stays in range.
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%64) + 1
		r := New(seed)
		for i := 0; i < 50; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestOpenNeverZero(t *testing.T) {
	r := New(3)
	for i := 0; i < 100000; i++ {
		if r.Open() <= 0 {
			t.Fatal("Open returned non-positive value")
		}
	}
}

// TestBatchMatchesSource is the bit-identity oracle for the buffered
// generator: a long interleaved sequence of every draw kind must equal
// the unbatched stream value for value. The interleaving crosses refill
// boundaries many times (each Exp consumes at least two raw values via
// Open/Float64, each Intn at least one), so buffer bookkeeping errors
// at the edges cannot hide.
func TestBatchMatchesSource(t *testing.T) {
	for _, seed := range []uint64{0, 1, 42, 0xdeadbeef} {
		src, bat := New(seed), NewBatch(seed)
		for i := 0; i < 5000; i++ {
			switch i % 5 {
			case 0:
				if a, b := src.Uint64(), bat.Uint64(); a != b {
					t.Fatalf("seed %d step %d: Uint64 %d != %d", seed, i, a, b)
				}
			case 1:
				if a, b := src.Float64(), bat.Float64(); a != b {
					t.Fatalf("seed %d step %d: Float64 %v != %v", seed, i, a, b)
				}
			case 2:
				if a, b := src.Open(), bat.Open(); a != b {
					t.Fatalf("seed %d step %d: Open %v != %v", seed, i, a, b)
				}
			case 3:
				if a, b := src.Exp(3.0), bat.Exp(3.0); a != b {
					t.Fatalf("seed %d step %d: Exp %v != %v", seed, i, a, b)
				}
			case 4:
				if a, b := src.Intn(1000), bat.Intn(1000); a != b {
					t.Fatalf("seed %d step %d: Intn %d != %d", seed, i, a, b)
				}
			}
		}
	}
}

// TestBatchMarshalMidBuffer checks that a snapshot taken at an
// arbitrary point inside the prefetch buffer encodes the logical
// position — the state a plain Source would have after the same
// consumed draws — and that both a Source and a fresh Batch restored
// from it continue the stream bit-exactly.
func TestBatchMarshalMidBuffer(t *testing.T) {
	for _, consumed := range []int{0, 1, 100, batchSize - 1, batchSize, batchSize + 7, 3*batchSize + 13} {
		bat := NewBatch(77)
		ref := New(77)
		for i := 0; i < consumed; i++ {
			if bat.Uint64() != ref.Uint64() {
				t.Fatalf("streams diverged before snapshot at %d", i)
			}
		}
		blob, err := bat.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if string(blob) != string(want) {
			t.Fatalf("consumed=%d: batch snapshot differs from unbatched source snapshot", consumed)
		}

		var asSource Source
		if err := asSource.UnmarshalBinary(blob); err != nil {
			t.Fatal(err)
		}
		asBatch := NewBatch(0)
		if err := asBatch.UnmarshalBinary(blob); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 600; i++ {
			live := bat.Uint64()
			if v := asSource.Uint64(); v != live {
				t.Fatalf("consumed=%d draw %d: restored Source %d != live batch %d", consumed, i, v, live)
			}
			if v := asBatch.Uint64(); v != live {
				t.Fatalf("consumed=%d draw %d: restored Batch %d != live batch %d", consumed, i, v, live)
			}
		}
	}
}

func TestBatchPanicsLikeSource(t *testing.T) {
	b := NewBatch(1)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Batch.Exp(0) did not panic")
			}
		}()
		b.Exp(0)
	}()
	defer func() {
		if recover() == nil {
			t.Fatal("Batch.Intn(0) did not panic")
		}
	}()
	b.Intn(0)
}

func BenchmarkSourceFloat64(b *testing.B) {
	r := New(9)
	sink := 0.0
	for i := 0; i < b.N; i++ {
		sink += r.Float64()
	}
	_ = sink
}

func BenchmarkBatchFloat64(b *testing.B) {
	r := NewBatch(9)
	sink := 0.0
	for i := 0; i < b.N; i++ {
		sink += r.Float64()
	}
	_ = sink
}

// Derive must give every (seed, fine index, run) task of a deck its own
// stream over the ranges decks use, and must break the aliases of the
// linear schemes it replaced: seed+idx made (s, point 1) the stream of
// (s+1, point 0), and seed+1009·fine+104729·run made (s, fine 1, run 0)
// the stream of (s+1009, fine 0, run 0).
func TestDeriveNoCollisions(t *testing.T) {
	const seeds, fines, runs = 64, 4096, 8
	vs := make([]uint64, 0, seeds*fines*runs)
	for s := uint64(0); s < seeds; s++ {
		for f := uint64(0); f < fines; f++ {
			for r := uint64(0); r < runs; r++ {
				vs = append(vs, Derive(s, f, r))
			}
		}
	}
	sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
	for i := 1; i < len(vs); i++ {
		if vs[i] == vs[i-1] {
			t.Fatalf("two (seed, fine, run) tasks derive the same seed %#x", vs[i])
		}
	}
	for s := uint64(0); s < seeds; s++ {
		if Derive(s, 1) == Derive(s+1, 0) {
			t.Fatalf("seed %d point 1 aliases seed %d point 0", s, s+1)
		}
		if Derive(s, 1, 0) == Derive(s+1009, 0, 0) {
			t.Fatalf("seed %d fine 1 aliases seed %d fine 0", s, s+1009)
		}
	}
	// Key order matters: (fine, run) = (1, 2) and (2, 1) are different tasks.
	if Derive(7, 1, 2) == Derive(7, 2, 1) {
		t.Fatal("Derive ignores key order")
	}
}
