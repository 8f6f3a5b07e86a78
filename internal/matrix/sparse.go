package matrix

// Sparse symmetric linear algebra for the locality-aware potential
// engine: CSR assembly from triplets, a reverse Cuthill–McKee
// fill-reducing ordering, and an elimination-tree up-looking sparse
// Cholesky factorization with triangular solves. Everything is standard
// library only.
//
// The target matrix is the island capacitance matrix C_II: SPD,
// diagonally dominant, with a handful of nonzeros per row (an island
// couples only to its junction and capacitor neighbours). Its Cholesky
// factor stays sparse under a bandwidth-reducing ordering, so solving
// C x = e_i per row costs O(nnz(L)) instead of the dense O(n^2), and
// all n rows cost O(n·nnz(L)) against O(n^3) for a dense inversion.
// InverseRows solves RowBlock such rows in one pass over L, which reads
// the factor an eighth as often and gives the backward sweep eight
// independent chains of subtractions instead of one, with every row
// bit-identical to the one-row InverseRow.

import (
	"fmt"
	"math"
	"sort"
)

// Triplet is one (row, col, value) matrix entry; duplicates are summed
// by CSRFromTriplets.
type Triplet struct {
	I, J int
	V    float64
}

// CSR is a sparse matrix in compressed sparse row form. Within a row,
// column indices are strictly increasing. The fields are exported for
// allocation-free walks in hot code; treat them as read-only.
type CSR struct {
	NumRows, NumCols int
	// RowPtr has length NumRows+1; row i occupies Col/Val[RowPtr[i]:RowPtr[i+1]].
	RowPtr []int
	Col    []int32
	Val    []float64
}

// CSRFromTriplets assembles a CSR matrix, summing duplicate entries.
// The sort is stable and duplicate values are added left to right in
// input order, so assembly is bit-reproducible and matches a
// dense-accumulation loop applying the same triplets in the same order.
func CSRFromTriplets(rows, cols int, ts []Triplet) *CSR {
	for _, t := range ts {
		if t.I < 0 || t.I >= rows || t.J < 0 || t.J >= cols {
			panic(fmt.Sprintf("matrix: triplet (%d,%d) outside %dx%d", t.I, t.J, rows, cols))
		}
	}
	sorted := make([]Triplet, len(ts))
	copy(sorted, ts)
	sort.SliceStable(sorted, func(a, b int) bool {
		if sorted[a].I != sorted[b].I {
			return sorted[a].I < sorted[b].I
		}
		return sorted[a].J < sorted[b].J
	})
	m := &CSR{NumRows: rows, NumCols: cols, RowPtr: make([]int, rows+1)}
	for k := 0; k < len(sorted); {
		i, j := sorted[k].I, sorted[k].J
		v := sorted[k].V
		for k++; k < len(sorted) && sorted[k].I == i && sorted[k].J == j; k++ {
			v += sorted[k].V
		}
		m.Col = append(m.Col, int32(j))
		m.Val = append(m.Val, v)
		m.RowPtr[i+1] = len(m.Col)
	}
	// Rows with no entries inherit the running offset.
	for i := 1; i <= rows; i++ {
		if m.RowPtr[i] < m.RowPtr[i-1] {
			m.RowPtr[i] = m.RowPtr[i-1]
		}
	}
	return m
}

// NNZ returns the stored entry count.
func (m *CSR) NNZ() int { return len(m.Val) }

// Row returns the column indices and values of row i.
func (m *CSR) Row(i int) ([]int32, []float64) {
	lo, hi := m.RowPtr[i], m.RowPtr[i+1]
	return m.Col[lo:hi], m.Val[lo:hi]
}

// At returns entry (i, j) by binary search, 0 when absent.
func (m *CSR) At(i, j int) float64 {
	cols, vals := m.Row(i)
	lo, hi := 0, len(cols)
	for lo < hi {
		mid := (lo + hi) / 2
		if int(cols[mid]) < j {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(cols) && int(cols[lo]) == j {
		return vals[lo]
	}
	return 0
}

// MulVec computes dst = M x; dst and x must not alias.
func (m *CSR) MulVec(dst, x []float64) {
	if len(dst) != m.NumRows || len(x) != m.NumCols {
		panic(fmt.Sprintf("matrix: CSR MulVec dimension mismatch: %dx%d, len(dst)=%d len(x)=%d",
			m.NumRows, m.NumCols, len(dst), len(x)))
	}
	for i := 0; i < m.NumRows; i++ {
		cols, vals := m.Row(i)
		s := 0.0
		for k, c := range cols {
			s += vals[k] * x[c]
		}
		dst[i] = s
	}
}

// LowerNNZ counts the entries on or below the diagonal (the natural
// denominator for Cholesky fill-in ratios of a symmetric matrix).
func (m *CSR) LowerNNZ() int {
	n := 0
	for i := 0; i < m.NumRows; i++ {
		cols, _ := m.Row(i)
		for _, c := range cols {
			if int(c) <= i {
				n++
			}
		}
	}
	return n
}

// RCM returns a reverse Cuthill–McKee ordering of the (structurally
// symmetric) sparsity pattern of a: perm[new] = old. Each connected
// component is numbered by breadth-first search from a pseudo-peripheral
// node with neighbours visited in ascending degree, and the whole
// ordering is reversed — the classic bandwidth/fill-reducing ordering
// for the mesh-like graphs capacitance matrices form. The result is
// deterministic (ties break on node index).
func RCM(a *CSR) []int {
	n := a.NumRows
	deg := make([]int, n)
	for i := 0; i < n; i++ {
		deg[i] = a.RowPtr[i+1] - a.RowPtr[i]
	}
	visited := make([]bool, n)
	perm := make([]int, 0, n)
	queue := make([]int, 0, n)
	nbrs := make([]int, 0, 16)

	// bfs appends the component reachable from root to out in BFS order
	// (degree-ascending neighbours) and returns the slice plus the index
	// where the last level starts.
	bfs := func(root int, mark []bool, out []int) ([]int, int) {
		start := len(out)
		mark[root] = true
		out = append(out, root)
		lastLevel := start
		levelEnd := len(out)
		for head := start; head < len(out); head++ {
			if head == levelEnd {
				lastLevel = head
				levelEnd = len(out)
			}
			u := out[head]
			nbrs = nbrs[:0]
			cols, _ := a.Row(u)
			for _, c := range cols {
				v := int(c)
				if v != u && !mark[v] {
					mark[v] = true
					nbrs = append(nbrs, v)
				}
			}
			sort.Slice(nbrs, func(x, y int) bool {
				if deg[nbrs[x]] != deg[nbrs[y]] {
					return deg[nbrs[x]] < deg[nbrs[y]]
				}
				return nbrs[x] < nbrs[y]
			})
			out = append(out, nbrs...)
		}
		return out, lastLevel
	}

	scratch := make([]bool, n)
	for s := 0; s < n; s++ {
		if visited[s] {
			continue
		}
		// George–Liu pseudo-peripheral sweep: BFS from the current root,
		// re-root at a minimum-degree node of the deepest level, and stop
		// once the eccentricity (proxied by where the last level starts)
		// stops growing. A few sweeps suffice in practice.
		root, prevDepth := s, -1
		for iter := 0; iter < 8; iter++ {
			for i := range scratch {
				scratch[i] = false
			}
			queue = queue[:0]
			var last int
			queue, last = bfs(root, scratch, queue)
			if last <= prevDepth {
				break
			}
			prevDepth = last
			best, bestDeg := root, n+1
			for _, u := range queue[last:] {
				if deg[u] < bestDeg {
					best, bestDeg = u, deg[u]
				}
			}
			if best == root {
				break
			}
			root = best
		}
		perm, _ = bfs(root, visited, perm)
	}
	// Reverse Cuthill–McKee: reversing the concatenated component
	// orderings reverses each component internally, which is what empties
	// the factor's lower profile.
	for i, j := 0, len(perm)-1; i < j; i, j = i+1, j-1 {
		perm[i], perm[j] = perm[j], perm[i]
	}
	return perm
}

// SparseChol is a sparse Cholesky factorization P A P^T = L L^T of an
// SPD matrix in CSR form. L is stored in compressed sparse column form
// with the diagonal entry first in each column, which serves both
// triangular sweeps: the forward solve scatters down each column, the
// transposed solve gathers up it.
type SparseChol struct {
	n      int
	perm   []int // perm[new] = old
	pinv   []int // pinv[old] = new
	colptr []int // length n+1
	rowidx []int32
	val    []float64
}

// pivotTol is the relative rounding allowance per elimination term
// below which FactorCSR treats a pivot as zero (four units in the last
// place).
const pivotTol = 0x1p-50

// FactorCSR computes the sparse Cholesky factorization of a under the
// given ordering (perm[new] = old; nil means natural order). Only the
// lower triangle of a (in permuted coordinates) is read; a must be
// structurally and numerically symmetric. It returns
// ErrNotPositiveDefinite when a pivot is not positive beyond the
// rounding of its own elimination, i.e. when a is singular to working
// precision.
//
// The factorization is the standard up-looking algorithm: the
// elimination tree of the permuted pattern is computed first, each row's
// factor pattern is then enumerated by walking the tree (ereach), and
// the numeric pass solves one sparse triangular system per row. Cost is
// O(nnz(L)) space and O(sum of squared column counts) time — for
// RCM-ordered capacitance matrices both stay within a small constant of
// nnz(A).
func FactorCSR(a *CSR, perm []int) (*SparseChol, error) {
	n := a.NumRows
	if a.NumCols != n {
		panic("matrix: FactorCSR needs a square matrix")
	}
	if perm == nil {
		perm = make([]int, n)
		for i := range perm {
			perm[i] = i
		}
	}
	if len(perm) != n {
		panic("matrix: FactorCSR permutation length mismatch")
	}
	ch := &SparseChol{n: n, perm: perm, pinv: make([]int, n)}
	for newI, oldI := range perm {
		ch.pinv[oldI] = newI
	}

	// Permuted strictly-lower row pattern plus diagonal values: row k
	// (new order) lists entries (j, v) with j < k.
	rptr := make([]int, n+1)
	diag := make([]float64, n)
	hasDiag := make([]bool, n)
	for k := 0; k < n; k++ {
		cols, _ := a.Row(perm[k])
		cnt := 0
		for _, c := range cols {
			if j := ch.pinv[c]; j < k {
				cnt++
			}
		}
		rptr[k+1] = rptr[k] + cnt
	}
	rcol := make([]int32, rptr[n])
	rval := make([]float64, rptr[n])
	fill := make([]int, n)
	copy(fill, rptr)
	for k := 0; k < n; k++ {
		cols, vals := a.Row(perm[k])
		for idx, c := range cols {
			j := ch.pinv[c]
			switch {
			case j < k:
				rcol[fill[k]] = int32(j)
				rval[fill[k]] = vals[idx]
				fill[k]++
			case j == k:
				diag[k] = vals[idx]
				hasDiag[k] = true
			}
		}
	}
	for k := 0; k < n; k++ {
		if !hasDiag[k] {
			return nil, fmt.Errorf("%w (row %d has no diagonal entry)", ErrNotPositiveDefinite, perm[k])
		}
	}

	// Elimination tree via path-compressing ancestor pointers.
	parent := make([]int, n)
	ancestor := make([]int, n)
	for k := 0; k < n; k++ {
		parent[k] = -1
		ancestor[k] = -1
		for p := rptr[k]; p < rptr[k+1]; p++ {
			for j := int(rcol[p]); j != -1 && j < k; {
				next := ancestor[j]
				ancestor[j] = k
				if next == -1 {
					parent[j] = k
					break
				}
				j = next
			}
		}
	}

	// ereach enumerates the nonzero pattern of factor row k (excluding
	// the diagonal) in topological order onto stack[top:], using marker w
	// stamped with k.
	w := make([]int, n)
	stack := make([]int, n)
	path := make([]int, n)
	for i := range w {
		w[i] = -1
	}
	ereach := func(k int) int {
		top := n
		w[k] = k
		for p := rptr[k]; p < rptr[k+1]; p++ {
			ln := 0
			for j := int(rcol[p]); w[j] != k; j = parent[j] {
				path[ln] = j
				ln++
				w[j] = k
			}
			for ln > 0 {
				ln--
				top--
				stack[top] = path[ln]
			}
		}
		return top
	}

	// Symbolic pass: column counts (diagonal included).
	count := make([]int, n)
	for i := range count {
		count[i] = 1
	}
	for k := 0; k < n; k++ {
		for idx := ereach(k); idx < n; idx++ {
			count[stack[idx]]++
		}
	}
	ch.colptr = make([]int, n+1)
	for j := 0; j < n; j++ {
		ch.colptr[j+1] = ch.colptr[j] + count[j]
	}
	nnz := ch.colptr[n]
	ch.rowidx = make([]int32, nnz)
	ch.val = make([]float64, nnz)

	// Numeric pass: up-looking, one sparse triangular solve per row.
	for i := range w {
		w[i] = -1
	}
	cend := make([]int, n)
	for j := 0; j < n; j++ {
		cend[j] = ch.colptr[j] + 1 // slot 0 of each column is the diagonal
	}
	x := make([]float64, n)
	for k := 0; k < n; k++ {
		for p := rptr[k]; p < rptr[k+1]; p++ {
			x[rcol[p]] = rval[p]
		}
		d := diag[k]
		top := ereach(k)
		for idx := top; idx < n; idx++ {
			j := stack[idx]
			lkj := x[j] / ch.val[ch.colptr[j]]
			x[j] = 0
			for p := ch.colptr[j] + 1; p < cend[j]; p++ {
				x[ch.rowidx[p]] -= ch.val[p] * lkj
			}
			d -= lkj * lkj
			ch.rowidx[cend[j]] = int32(k)
			ch.val[cend[j]] = lkj
			cend[j]++
		}
		// d is diag[k] minus n-top rounded squares. A pivot within that
		// rounding of zero belongs to a singular matrix that cancellation
		// left barely positive (a cluster of islands with no capacitance
		// to any lead).
		if !(d > float64(n-top+1)*pivotTol*diag[k]) {
			return nil, fmt.Errorf("%w (pivot %d = %g)", ErrNotPositiveDefinite, k, d)
		}
		ch.rowidx[ch.colptr[k]] = int32(k)
		ch.val[ch.colptr[k]] = math.Sqrt(d)
	}
	return ch, nil
}

// N returns the matrix dimension.
func (c *SparseChol) N() int { return c.n }

// NNZ returns the stored entry count of the factor L.
func (c *SparseChol) NNZ() int { return c.colptr[c.n] }

// InverseRow computes row i of A^-1 into out (length n, original
// indexing) using scratch w (length n, any contents). By symmetry this
// is also column i, i.e. the solution of A x = e_i. The call performs no
// allocations. It is the one-row reference: InverseRows must match it
// bit for bit, and the tests compare stored C^-1 entries against it.
func (c *SparseChol) InverseRow(i int, out, w []float64) {
	if len(out) != c.n || len(w) != c.n {
		panic("matrix: InverseRow dimension mismatch")
	}
	for k := range w {
		w[k] = 0
	}
	k0 := c.pinv[i]
	w[k0] = 1
	c.solvePermuted(w, k0)
	for k := 0; k < c.n; k++ {
		out[c.perm[k]] = w[k]
	}
}

// solvePermuted runs both triangular sweeps on a right-hand side already
// in permuted coordinates, skipping the leading zeros of the forward
// sweep (from solving against e_{k0}).
func (c *SparseChol) solvePermuted(w []float64, k0 int) {
	n := c.n
	for k := k0; k < n; k++ {
		xk := w[k]
		if xk == 0 {
			continue
		}
		xk /= c.val[c.colptr[k]]
		w[k] = xk
		for p := c.colptr[k] + 1; p < c.colptr[k+1]; p++ {
			w[c.rowidx[p]] -= c.val[p] * xk
		}
	}
	for k := n - 1; k >= 0; k-- {
		s := w[k]
		for p := c.colptr[k] + 1; p < c.colptr[k+1]; p++ {
			s -= c.val[p] * w[c.rowidx[p]]
		}
		w[k] = s / c.val[c.colptr[k]]
	}
}

// RowBlock is the most rows InverseRows solves in one pass over L.
const RowBlock = 8

// InverseRows computes the rows of A^-1 at the m = len(out) consecutive
// positions k0, ..., k0+m-1 (1 <= m <= RowBlock) of the factor's
// ordering: out[j] (length n, original indexing) receives row
// perm[k0+j], perm being the ordering given to FactorCSR. Scratch w
// (length RowBlock·n, any contents) holds the right-hand sides
// interleaved, position-major, so both sweeps read each column of L
// once for the whole block and keep one accumulator per right-hand side
// in a local.
//
// Each right-hand side sees exactly InverseRow's operations in
// InverseRow's order, written in the same expression shapes, so out[j]
// equals InverseRow(perm[k0+j]) bit for bit: the forward sweep skips a
// column for every right-hand side that is zero there, and the backward
// sweep skips nothing. Lanes past m repeat the last right-hand side, so
// a short block takes the same path as a full one. The call performs no
// allocations.
func (c *SparseChol) InverseRows(k0 int, out [][]float64, w []float64) {
	n, m := c.n, len(out)
	if m < 1 || m > RowBlock || k0 < 0 || k0+m > n || len(w) != RowBlock*n {
		panic("matrix: InverseRows dimension mismatch")
	}
	for _, o := range out {
		if len(o) != n {
			panic("matrix: InverseRows dimension mismatch")
		}
	}
	clear(w)
	for j := 0; j < RowBlock; j++ {
		w[RowBlock*(k0+min(j, m-1))+j] = 1
	}
	for k := k0; k < n; k++ {
		x := (*[RowBlock]float64)(w[RowBlock*k:])
		d := c.val[c.colptr[k]]
		lo, hi := c.colptr[k]+1, c.colptr[k+1]
		if x[0] == 0 || x[1] == 0 || x[2] == 0 || x[3] == 0 ||
			x[4] == 0 || x[5] == 0 || x[6] == 0 || x[7] == 0 {
			// Some right-hand side is zero at k: InverseRow skips the
			// column for it, so do it lane by lane.
			for j, xk := range x {
				if xk == 0 {
					continue
				}
				xk /= d
				x[j] = xk
				for p := lo; p < hi; p++ {
					w[RowBlock*int(c.rowidx[p])+j] -= c.val[p] * xk
				}
			}
			continue
		}
		x0, x1, x2, x3 := x[0]/d, x[1]/d, x[2]/d, x[3]/d
		x4, x5, x6, x7 := x[4]/d, x[5]/d, x[6]/d, x[7]/d
		x[0], x[1], x[2], x[3] = x0, x1, x2, x3
		x[4], x[5], x[6], x[7] = x4, x5, x6, x7
		for p := lo; p < hi; p++ {
			v := c.val[p]
			y := (*[RowBlock]float64)(w[RowBlock*int(c.rowidx[p]):])
			y[0] -= v * x0
			y[1] -= v * x1
			y[2] -= v * x2
			y[3] -= v * x3
			y[4] -= v * x4
			y[5] -= v * x5
			y[6] -= v * x6
			y[7] -= v * x7
		}
	}
	for k := n - 1; k >= 0; k-- {
		x := (*[RowBlock]float64)(w[RowBlock*k:])
		s0, s1, s2, s3 := x[0], x[1], x[2], x[3]
		s4, s5, s6, s7 := x[4], x[5], x[6], x[7]
		for p := c.colptr[k] + 1; p < c.colptr[k+1]; p++ {
			v := c.val[p]
			y := (*[RowBlock]float64)(w[RowBlock*int(c.rowidx[p]):])
			s0 -= v * y[0]
			s1 -= v * y[1]
			s2 -= v * y[2]
			s3 -= v * y[3]
			s4 -= v * y[4]
			s5 -= v * y[5]
			s6 -= v * y[6]
			s7 -= v * y[7]
		}
		d := c.val[c.colptr[k]]
		x[0], x[1], x[2], x[3] = s0/d, s1/d, s2/d, s3/d
		x[4], x[5], x[6], x[7] = s4/d, s5/d, s6/d, s7/d
	}
	for k, i := range c.perm {
		x := w[RowBlock*k : RowBlock*k+m]
		for j, o := range out {
			o[i] = x[j]
		}
	}
}
