package matrix

import (
	"math"
	"testing"
	"testing/quick"

	"semsim/internal/rng"
)

// randSPD builds a random diagonally dominant symmetric matrix, which
// is guaranteed SPD — the same structural class as capacitance matrices.
func randSPD(n int, r *rng.Source) *Sym {
	m := NewSym(n)
	for i := 0; i < n; i++ {
		rowSum := 0.0
		for j := i + 1; j < n; j++ {
			v := -r.Float64() // off-diagonals negative, like -C_ij couplings
			m.SetSym(i, j, v)
		}
		for j := 0; j < n; j++ {
			if j != i {
				rowSum += math.Abs(m.At(i, j))
			}
		}
		m.SetSym(i, i, rowSum+0.5+r.Float64())
	}
	return m
}

func TestSolveReconstructs(t *testing.T) {
	r := rng.New(1)
	for _, n := range []int{1, 2, 3, 8, 25, 60} {
		m := randSPD(n, r)
		ch, err := Factor(m)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		x := make([]float64, n)
		for i := range x {
			x[i] = r.Float64()*2 - 1
		}
		b := make([]float64, n)
		m.MulVec(b, x)
		ch.Solve(b)
		for i := range x {
			if math.Abs(b[i]-x[i]) > 1e-9 {
				t.Fatalf("n=%d: solve mismatch at %d: got %g want %g", n, i, b[i], x[i])
			}
		}
	}
}

// invertSPD computes the explicit inverse of m the one way the package
// offers: a sparse RCM-ordered Cholesky factor, one InverseRow solve per
// row. The rows are stored as solved, without symmetrization.
func invertSPD(m *Sym) (*Sym, error) {
	n := m.N()
	var ts []Triplet
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if v := m.At(i, j); v != 0 {
				ts = append(ts, Triplet{i, j, v})
			}
		}
	}
	a := CSRFromTriplets(n, n, ts)
	ch, err := FactorCSR(a, RCM(a))
	if err != nil {
		return nil, err
	}
	inv := NewSym(n)
	w := make([]float64, n)
	for i := 0; i < n; i++ {
		ch.InverseRow(i, inv.Row(i), w)
	}
	return inv, nil
}

func TestInverseIdentity(t *testing.T) {
	r := rng.New(2)
	for _, n := range []int{1, 4, 17, 40} {
		m := randSPD(n, r)
		inv, err := invertSPD(m)
		if err != nil {
			t.Fatal(err)
		}
		// Check M * M^-1 ~ I column by column.
		col := make([]float64, n)
		prod := make([]float64, n)
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				col[i] = inv.At(i, j)
			}
			m.MulVec(prod, col)
			for i := 0; i < n; i++ {
				want := 0.0
				if i == j {
					want = 1.0
				}
				if math.Abs(prod[i]-want) > 1e-8 {
					t.Fatalf("n=%d: (M*Minv)[%d][%d] = %g, want %g", n, i, j, prod[i], want)
				}
			}
		}
	}
}

// TestInverseIsSymmetric: a row solve and its transpose round
// differently, so the inverse rows are symmetric to rounding, not bit
// for bit; both must also match the dense Cholesky reference.
func TestInverseIsSymmetric(t *testing.T) {
	const n = 20
	m := randSPD(n, rng.New(3))
	inv, err := invertSPD(m)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := Factor(m)
	if err != nil {
		t.Fatal(err)
	}
	scale := 0.0
	for i := 0; i < n; i++ {
		scale = math.Max(scale, math.Abs(inv.At(i, i)))
	}
	tol := 1e-13 * scale
	ref := make([]float64, n)
	for j := 0; j < n; j++ {
		for i := range ref {
			ref[i] = 0
		}
		ref[j] = 1
		ch.Solve(ref) // column j of the dense reference inverse
		for i := 0; i < n; i++ {
			if d := math.Abs(inv.At(i, j) - inv.At(j, i)); d > tol {
				t.Fatalf("inverse rows differ from their transpose at (%d,%d) by %g > %g", i, j, d, tol)
			}
			if d := math.Abs(inv.At(i, j) - ref[i]); d > tol {
				t.Fatalf("inverse (%d,%d) = %g, dense reference %g", i, j, inv.At(i, j), ref[i])
			}
		}
	}
}

func TestNotPositiveDefinite(t *testing.T) {
	m := NewSym(2)
	m.SetSym(0, 0, 1)
	m.SetSym(1, 1, -1) // indefinite
	if _, err := Factor(m); err == nil {
		t.Fatal("expected ErrNotPositiveDefinite")
	}
	zero := NewSym(3) // all-zero: island with no capacitance
	if _, err := Factor(zero); err == nil {
		t.Fatal("expected error factoring the zero matrix")
	}
}

func TestAddSymDiagonalOnce(t *testing.T) {
	m := NewSym(2)
	m.AddSym(0, 0, 2)
	if m.At(0, 0) != 2 {
		t.Fatalf("diagonal AddSym applied twice: got %g", m.At(0, 0))
	}
	m.AddSym(0, 1, -1)
	if m.At(0, 1) != -1 || m.At(1, 0) != -1 {
		t.Fatalf("off-diagonal AddSym not mirrored: %g %g", m.At(0, 1), m.At(1, 0))
	}
}

func TestCloneIndependent(t *testing.T) {
	m := NewSym(2)
	m.SetSym(0, 1, 5)
	c := m.Clone()
	c.SetSym(0, 1, 7)
	if m.At(0, 1) != 5 {
		t.Fatal("Clone shares storage with original")
	}
}

func TestRowView(t *testing.T) {
	m := NewSym(3)
	m.SetSym(1, 0, 4)
	m.SetSym(1, 2, 6)
	row := m.Row(1)
	if row[0] != 4 || row[2] != 6 {
		t.Fatalf("Row(1) = %v", row)
	}
}

// Property: for random SPD matrices, solving twice against M*x always
// recovers x to tight tolerance.
func TestQuickSolveProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%20) + 1
		r := rng.New(seed)
		m := randSPD(n, r)
		ch, err := Factor(m)
		if err != nil {
			return false
		}
		x := make([]float64, n)
		for i := range x {
			x[i] = r.Float64()*10 - 5
		}
		b := make([]float64, n)
		m.MulVec(b, x)
		ch.Solve(b)
		for i := range x {
			if math.Abs(b[i]-x[i]) > 1e-7*(1+math.Abs(x[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMulVecDimensionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MulVec with wrong dims did not panic")
		}
	}()
	NewSym(3).MulVec(make([]float64, 2), make([]float64, 3))
}

func BenchmarkFactor100(b *testing.B) {
	m := randSPD(100, rng.New(9))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Factor(m); err != nil {
			b.Fatal(err)
		}
	}
}
