package matrix

import (
	"errors"
	"math"
	"sort"
	"testing"

	"semsim/internal/rng"
)

// randSparseSPD builds a random sparse symmetric diagonally dominant
// matrix (hence SPD) with roughly deg off-diagonal couplings per row —
// the shape of an island capacitance matrix — plus its triplet list.
func randSparseSPD(n, deg int, r *rng.Source) *CSR {
	var ts []Triplet
	diag := make([]float64, n)
	for i := 0; i < n; i++ {
		diag[i] = 1 + r.Float64()
	}
	for i := 0; i < n; i++ {
		for k := 0; k < deg; k++ {
			j := int(r.Uint64() % uint64(n))
			if j == i {
				continue
			}
			c := 0.1 + r.Float64()
			ts = append(ts, Triplet{i, j, -c}, Triplet{j, i, -c})
			diag[i] += c
			diag[j] += c
		}
	}
	for i := 0; i < n; i++ {
		ts = append(ts, Triplet{i, i, diag[i]})
	}
	return CSRFromTriplets(n, n, ts)
}

func csrToSym(a *CSR) *Sym {
	m := NewSym(a.NumRows)
	for i := 0; i < a.NumRows; i++ {
		cols, vals := a.Row(i)
		for k, c := range cols {
			m.data[i*a.NumRows+int(c)] = vals[k]
		}
	}
	return m
}

func TestCSRFromTriplets(t *testing.T) {
	a := CSRFromTriplets(3, 3, []Triplet{
		{0, 1, 2}, {1, 0, 2}, {0, 0, 5}, {0, 1, 3}, {2, 2, 1}, {0, 0, -1},
	})
	if got := a.At(0, 1); got != 5 {
		t.Errorf("duplicate (0,1) entries not summed: got %g, want 5", got)
	}
	if got := a.At(0, 0); got != 4 {
		t.Errorf("duplicate (0,0) entries not summed: got %g, want 4", got)
	}
	if got := a.At(1, 1); got != 0 {
		t.Errorf("absent entry reads %g, want 0", got)
	}
	if a.NNZ() != 4 {
		t.Errorf("nnz = %d, want 4", a.NNZ())
	}
	// Column indices must be strictly increasing within each row.
	for i := 0; i < a.NumRows; i++ {
		cols, _ := a.Row(i)
		for k := 1; k < len(cols); k++ {
			if cols[k] <= cols[k-1] {
				t.Fatalf("row %d columns not strictly increasing: %v", i, cols)
			}
		}
	}
	x := []float64{1, 2, 3}
	dst := make([]float64, 3)
	a.MulVec(dst, x)
	want := []float64{4*1 + 5*2, 2 * 1, 3}
	for i := range want {
		if dst[i] != want[i] {
			t.Errorf("MulVec[%d] = %g, want %g", i, dst[i], want[i])
		}
	}
}

// TestRCMIsPermutation is the property test of the ordering: for any
// pattern — connected or not — RCM must return a permutation of 0..n-1.
func TestRCMIsPermutation(t *testing.T) {
	r := rng.New(7)
	for trial := 0; trial < 50; trial++ {
		n := 1 + int(r.Uint64()%200)
		deg := int(r.Uint64() % 4) // deg 0 gives diagonal matrices: many components
		a := randSparseSPD(n, deg, r)
		perm := RCM(a)
		if len(perm) != n {
			t.Fatalf("n=%d: perm length %d", n, len(perm))
		}
		sorted := append([]int(nil), perm...)
		sort.Ints(sorted)
		for i, v := range sorted {
			if v != i {
				t.Fatalf("n=%d: RCM is not a permutation: sorted[%d]=%d", n, i, v)
			}
		}
	}
}

// TestRCMReducesFill checks the ordering earns its keep on a
// shuffled banded matrix: factor fill under RCM must not exceed fill
// under the shuffled natural order.
func TestRCMReducesFill(t *testing.T) {
	r := rng.New(9)
	n := 200
	shuf := make([]int, n)
	for i := range shuf {
		shuf[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := int(r.Uint64() % uint64(i+1))
		shuf[i], shuf[j] = shuf[j], shuf[i]
	}
	var ts []Triplet
	diag := make([]float64, n)
	for i := range diag {
		diag[i] = 1
	}
	for i := 0; i+1 < n; i++ {
		a, b := shuf[i], shuf[i+1]
		ts = append(ts, Triplet{a, b, -1}, Triplet{b, a, -1})
		diag[a]++
		diag[b]++
	}
	for i := 0; i < n; i++ {
		ts = append(ts, Triplet{i, i, diag[i]})
	}
	a := CSRFromTriplets(n, n, ts)
	natural, err := FactorCSR(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	ordered, err := FactorCSR(a, RCM(a))
	if err != nil {
		t.Fatal(err)
	}
	if ordered.NNZ() > natural.NNZ() {
		t.Errorf("RCM fill %d exceeds natural-order fill %d", ordered.NNZ(), natural.NNZ())
	}
	// A shuffled path graph has a chain factor under RCM: no fill at all.
	if want := a.LowerNNZ(); ordered.NNZ() != want {
		t.Errorf("RCM factor of a path graph has fill: nnz %d, want %d", ordered.NNZ(), want)
	}
}

func TestFactorCSRMatchesDense(t *testing.T) {
	r := rng.New(3)
	for _, n := range []int{1, 2, 5, 40, 120} {
		a := randSparseSPD(n, 3, r)
		ch, err := FactorCSR(a, RCM(a))
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		dense, err := Factor(csrToSym(a))
		if err != nil {
			t.Fatalf("n=%d dense: %v", n, err)
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = r.Float64() - 0.5
		}
		want := append([]float64(nil), b...)
		dense.Solve(want)
		row := make([]float64, n)
		w := make([]float64, n)
		for i := range want {
			ch.InverseRow(i, row, w)
			got := 0.0
			for j, v := range row {
				got += v * b[j]
			}
			if d := math.Abs(got - want[i]); d > 1e-10*(math.Abs(want[i])+1) {
				t.Fatalf("n=%d: sparse solve[%d]=%g, dense %g", n, i, got, want[i])
			}
		}
	}
}

// TestInverseRowRoundTrip is the factorization property test: every
// computed inverse row must satisfy A * row = e_i to tight tolerance.
func TestInverseRowRoundTrip(t *testing.T) {
	r := rng.New(5)
	n := 150
	a := randSparseSPD(n, 3, r)
	ch, err := FactorCSR(a, RCM(a))
	if err != nil {
		t.Fatal(err)
	}
	row := make([]float64, n)
	w := make([]float64, n)
	res := make([]float64, n)
	for i := 0; i < n; i++ {
		ch.InverseRow(i, row, w)
		a.MulVec(res, row)
		for j := 0; j < n; j++ {
			want := 0.0
			if j == i {
				want = 1
			}
			if d := math.Abs(res[j] - want); d > 1e-10 {
				t.Fatalf("row %d: (A * Ainv_row)[%d] = %g, want %g", i, j, res[j], want)
			}
		}
	}
}

func TestFactorCSRNotPositiveDefinite(t *testing.T) {
	a := CSRFromTriplets(2, 2, []Triplet{
		{0, 0, 1}, {0, 1, 2}, {1, 0, 2}, {1, 1, 1},
	})
	if _, err := FactorCSR(a, nil); err == nil {
		t.Fatal("indefinite matrix factored without error")
	}
	// Missing diagonal must be reported, not crash.
	b := CSRFromTriplets(2, 2, []Triplet{{0, 0, 1}, {0, 1, -0.5}, {1, 0, -0.5}})
	if _, err := FactorCSR(b, nil); err == nil {
		t.Fatal("matrix with missing diagonal factored without error")
	}
}

// TestFactorCSRSingularToRounding: a singular capacitance matrix (two
// islands joined by one capacitor, neither tied to a lead) must be
// rejected even when cancellation leaves its last pivot a few ulps
// above zero — c = 1e-8 does, since sqrt(c)² rounds away from c.
func TestFactorCSRSingularToRounding(t *testing.T) {
	for _, c := range []float64{1e-8, 0.01, 1e-18, 3e-18} {
		a := CSRFromTriplets(2, 2, []Triplet{{0, 0, c}, {0, 1, -c}, {1, 0, -c}, {1, 1, c}})
		if _, err := FactorCSR(a, nil); !errors.Is(err, ErrNotPositiveDefinite) {
			t.Fatalf("c = %g: singular matrix factored (err %v)", c, err)
		}
	}
	// A weakly but genuinely grounded pair still factors.
	a := CSRFromTriplets(2, 2, []Triplet{{0, 0, 1e-18 + 1e-24}, {0, 1, -1e-18}, {1, 0, -1e-18}, {1, 1, 1e-18}})
	if _, err := FactorCSR(a, nil); err != nil {
		t.Fatalf("grounded pair (pivot ratio 1e-6): %v", err)
	}
}

// blockDiag returns diag(a, b): a matrix of two components that share
// no column of the factor.
func blockDiag(a, b *CSR) *CSR {
	var ts []Triplet
	n := 0
	for _, m := range []*CSR{a, b} {
		for i := 0; i < m.NumRows; i++ {
			cols, vals := m.Row(i)
			for k, c := range cols {
				ts = append(ts, Triplet{n + i, n + int(c), vals[k]})
			}
		}
		n += m.NumRows
	}
	return CSRFromTriplets(n, n, ts)
}

// TestInverseRowsMatchesInverseRow: a block of every length 1..RowBlock
// at every start position of the ordering, the short tail blocks
// included, must reproduce InverseRow bit for bit, signed zeros
// included. On the block-diagonal matrix the blocks that straddle the
// two components have right-hand sides that are zero in columns where
// others are not, so InverseRow's zero skip is taken lane by lane.
func TestInverseRowsMatchesInverseRow(t *testing.T) {
	r := rng.New(13)
	cases := []struct {
		name string
		a    *CSR
	}{
		{"random n=5", randSparseSPD(5, 2, r)},
		{"random n=61", randSparseSPD(61, 3, r)},
		{"two components", blockDiag(randSparseSPD(37, 2, r), randSparseSPD(29, 3, r))},
	}
	for _, tc := range cases {
		n := tc.a.NumRows
		perm := RCM(tc.a)
		ch, err := FactorCSR(tc.a, perm)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		want := make([][]float64, n)
		w1 := make([]float64, n)
		for i := range want {
			want[i] = make([]float64, n)
			ch.InverseRow(i, want[i], w1)
		}
		w := make([]float64, RowBlock*n)
		for k := range w {
			w[k] = math.NaN() // the scratch may hold anything
		}
		out := make([][]float64, RowBlock)
		for j := range out {
			out[j] = make([]float64, n)
		}
		for k0 := 0; k0 < n; k0++ {
			for m := 1; m <= RowBlock && k0+m <= n; m++ {
				ch.InverseRows(k0, out[:m], w)
				for j, got := range out[:m] {
					i := perm[k0+j]
					for c := range got {
						if math.Float64bits(got[c]) != math.Float64bits(want[i][c]) {
							t.Fatalf("%s: block (k0=%d, m=%d) row %d col %d: %v, InverseRow %v",
								tc.name, k0, m, i, c, got[c], want[i][c])
						}
					}
				}
			}
		}
	}
}
