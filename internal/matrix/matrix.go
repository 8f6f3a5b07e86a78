// Package matrix implements the symmetric linear algebra the simulator
// needs: a dense symmetric matrix type with a dense Cholesky
// factorization and solve (the reference the sparse code is tested
// against), and the sparse path every circuit build uses — CSR
// assembly, a reverse Cuthill–McKee ordering, sparse Cholesky, and
// explicit inverse rows by sparse solves (sparse.go).
//
// The one SPD matrix in the problem is the island capacitance matrix
// C_II (diagonally dominant with positive diagonal by construction, so
// SPD whenever every island has nonzero total capacitance). Its inverse
// appears directly in the free-energy expression (Eq. 2 of the paper)
// and in every node-potential update, so we factor once per circuit and
// solve its inverse rows eight at a time (SparseChol.InverseRows), each
// bit for bit the row the one-row reference SparseChol.InverseRow
// computes.
package matrix

import (
	"errors"
	"fmt"
	"math"
)

// ErrNotPositiveDefinite is returned when Cholesky factorization
// encounters a non-positive pivot. For a capacitance matrix this means
// an island is floating with no capacitance at all, which is a circuit
// description error.
var ErrNotPositiveDefinite = errors.New("matrix: not positive definite")

// Sym is a dense symmetric n-by-n matrix stored as a full square for
// simple indexing. Only SetSym keeps the two triangles consistent;
// callers constructing a Sym by hand must preserve symmetry themselves.
type Sym struct {
	n    int
	data []float64
}

// NewSym returns an n-by-n symmetric matrix of zeros.
func NewSym(n int) *Sym {
	if n < 0 {
		panic("matrix: negative dimension")
	}
	return &Sym{n: n, data: make([]float64, n*n)}
}

// N returns the dimension.
func (m *Sym) N() int { return m.n }

// At returns element (i, j).
func (m *Sym) At(i, j int) float64 { return m.data[i*m.n+j] }

// SetSym sets elements (i, j) and (j, i) to v.
func (m *Sym) SetSym(i, j int, v float64) {
	m.data[i*m.n+j] = v
	m.data[j*m.n+i] = v
}

// AddSym adds v to elements (i, j) and (j, i); for diagonal entries the
// value is added once.
func (m *Sym) AddSym(i, j int, v float64) {
	m.data[i*m.n+j] += v
	if i != j {
		m.data[j*m.n+i] += v
	}
}

// Row returns a read-only view of row i (valid until the matrix is
// modified). For a symmetric matrix this is also column i.
func (m *Sym) Row(i int) []float64 { return m.data[i*m.n : (i+1)*m.n] }

// Clone returns a deep copy.
func (m *Sym) Clone() *Sym {
	c := NewSym(m.n)
	copy(c.data, m.data)
	return c
}

// MulVec computes dst = M * x. dst and x must have length N and must
// not alias.
func (m *Sym) MulVec(dst, x []float64) {
	if len(dst) != m.n || len(x) != m.n {
		panic(fmt.Sprintf("matrix: MulVec dimension mismatch: n=%d len(dst)=%d len(x)=%d", m.n, len(dst), len(x)))
	}
	for i := 0; i < m.n; i++ {
		row := m.data[i*m.n : (i+1)*m.n]
		s := 0.0
		for j, v := range row {
			s += v * x[j]
		}
		dst[i] = s
	}
}

// Cholesky holds the lower-triangular factor L with M = L * L^T,
// packed: row i occupies l[i*(i+1)/2 : i*(i+1)/2 + i + 1], so the
// factor costs n*(n+1)/2 floats instead of a full square. It is the
// dense reference the sparse factorization (SparseChol) is tested
// against.
type Cholesky struct {
	n int
	l []float64 // packed row-major lower triangle
}

// Factor computes the Cholesky factorization of m. It returns
// ErrNotPositiveDefinite if a pivot is not strictly positive. The input
// is read directly (no full-matrix clone) and the factor is stored
// packed; the arithmetic — operation order included — matches the
// classic full-storage loop exactly, so factors and everything derived
// from them are bit-identical to the earlier implementation.
func Factor(m *Sym) (*Cholesky, error) {
	n := m.n
	ch := &Cholesky{n: n, l: make([]float64, n*(n+1)/2)}
	l := ch.l
	for j := 0; j < n; j++ {
		oj := j * (j + 1) / 2
		lj := l[oj : oj+j]
		d := m.At(j, j)
		for _, v := range lj {
			d -= v * v
		}
		if d <= 0 || math.IsNaN(d) {
			return nil, fmt.Errorf("%w (pivot %d = %g)", ErrNotPositiveDefinite, j, d)
		}
		d = math.Sqrt(d)
		l[oj+j] = d
		inv := 1 / d
		for i := j + 1; i < n; i++ {
			oi := i * (i + 1) / 2
			s := m.At(i, j)
			li := l[oi : oi+j]
			for k, v := range lj {
				s -= li[k] * v
			}
			l[oi+j] = s * inv
		}
	}
	return ch, nil
}

// Solve solves M x = b in place: on return b contains x.
func (c *Cholesky) Solve(b []float64) {
	n := c.n
	if len(b) != n {
		panic("matrix: Solve dimension mismatch")
	}
	l := c.l
	// Forward substitution L y = b.
	for i := 0; i < n; i++ {
		oi := i * (i + 1) / 2
		s := b[i]
		row := l[oi : oi+i]
		for k, v := range row {
			s -= v * b[k]
		}
		b[i] = s / l[oi+i]
	}
	// Back substitution L^T x = y.
	for i := n - 1; i >= 0; i-- {
		s := b[i]
		for k := i + 1; k < n; k++ {
			s -= l[k*(k+1)/2+i] * b[k]
		}
		b[i] = s / l[i*(i+1)/2+i]
	}
}
