package solver

import "testing"

// FuzzFenwick differentially tests the selection tree against a naive
// O(n) model under arbitrary op sequences. All weights are multiples of
// 0.25 with magnitude below 2^12, and the sampling point is floored to
// the same grid, so every partial sum and subtraction in both
// implementations is exact in float64 — the comparisons below are
// legitimately bitwise, with no rounding slop to hide bugs in.
func FuzzFenwick(f *testing.F) {
	f.Add([]byte{8, 0, 3, 100, 1, 5, 200, 2, 4, 5, 128})
	f.Add([]byte{1, 0, 0, 65, 4, 5, 255})
	f.Add([]byte{63, 1, 62, 90, 1, 62, 10, 3, 4, 5, 1})
	f.Add([]byte{16, 1, 2, 0, 1, 2, 64, 2, 5, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		n := int(data[0])%64 + 1
		fen := newFenwick(n)
		model := make([]float64, n)
		naiveTotal := func() float64 {
			s := 0.0
			for _, v := range model {
				s += v
			}
			return s
		}
		naiveFind := func(u float64) int {
			s := 0.0
			last := -1
			for i, v := range model {
				s += v
				if v > 0 {
					last = i
				}
				if s > u {
					return i
				}
			}
			return last
		}
		checkTotals := func(op string) {
			for i, v := range model {
				if got := fen.vals[i]; got != v {
					t.Fatalf("after %s: vals[%d] = %g, model %g", op, i, got, v)
				}
			}
			if got, want := fen.total(), naiveTotal(); got != want {
				t.Fatalf("after %s: total() = %g, naive sum %g", op, got, want)
			}
		}
		staged := false
		for p := 1; p+2 < len(data); p += 3 {
			op, idx := data[p]%6, int(data[p+1])%n
			// Grid-exact weight in [-16, 47.75]; negatives exercise the
			// clamp-to-zero rule.
			val := float64(int(data[p+2])-64) / 4
			mval := val
			if mval < 0 {
				mval = 0
			}
			switch op {
			case 0: // one-entry batch, committed at once
				if !staged {
					fen.stage(idx, val)
					fen.flush()
					model[idx] = mval
					checkTotals("stage+flush")
				}
			case 1: // staged update, tree stale until flush
				fen.stage(idx, val)
				model[idx] = mval
				staged = true
			case 2:
				fen.flush()
				staged = false
				checkTotals("flush")
			case 3:
				fen.rebuild()
				staged = false
				checkTotals("rebuild")
			case 4:
				if !staged {
					checkTotals("query")
				}
			case 5:
				if staged {
					continue
				}
				total := fen.total()
				if total <= 0 {
					continue
				}
				frac := float64(data[p+2]) / 256
				u := float64(int(frac*total*4)) / 4 // floor to the 0.25 grid
				got, want := fen.find(u), naiveFind(u)
				if got != want {
					t.Fatalf("find(%g) = %d, naive %d (total %g, model %v)", u, got, want, total, model)
				}
			}
		}
	})
}
