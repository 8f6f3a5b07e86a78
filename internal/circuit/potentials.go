package circuit

// The potential engine: one object owning every C^-1-mediated quantity
// the solver reads — per-event potential shifts, full potential solves,
// free-energy changes and external-input deltas. A circuit always has a
// built-in engine (dense by default); sparse views over the same
// circuit are derived on demand through PotentialEngine.
//
// Two backends share the interface:
//
//   - dense: the explicit exact inverse, full rows, O(n) per event. The
//     reference implementation.
//   - sparse: ε-truncated C^-1 rows in CSR form. Each row keeps only
//     entries with |v| >= ε·‖row‖∞; per-event shifts and refresh solves
//     walk stored nonzeros only, O(k) per row. With ε = 0 the stored
//     values are exactly the dense inverse's (only exact zeros are
//     dropped), so every accumulation visits the same floats in the
//     same order and trajectories are bit-identical to the dense
//     engine. With ε > 0 the engine carries a provable per-potential
//     error bound (EventErrorBound / RefreshErrorBound /
//     InputErrorBound) that the solver accumulates into its Stats.
//
// C^-1 entries of a diagonally dominant capacitance matrix decay
// exponentially with graph distance, which is why a relative threshold
// as small as 1e-8 already drops the vast majority of entries on the
// logic benchmarks while the bound stays far below thermal noise.

import (
	"errors"
	"fmt"
	"math"

	"semsim/internal/matrix"
	"semsim/internal/numeric"
	"semsim/internal/units"
)

// BuildOptions selects the potential backend assembled by BuildWith.
type BuildOptions struct {
	// SparsePotentials builds the sparse locality-aware potential
	// engine instead of the dense inverse. Every build factors C
	// sparsely under an RCM ordering and computes the C^-1 rows by
	// sparse solves. With CinvTruncation = 0 the dense inverse is still
	// kept and compressed (bit-identical trajectories, no memory
	// saving); with CinvTruncation > 0 each row is truncated as it is
	// solved and the dense inverse is never formed.
	SparsePotentials bool
	// CinvTruncation is the relative row-truncation threshold ε:
	// entries of a C^-1 row (and of mext) smaller in magnitude than
	// ε·‖row‖∞ are dropped. 0 keeps everything (exact). Implies
	// SparsePotentials.
	CinvTruncation float64
}

// Potentials is a potential engine bound to one built circuit. It is
// immutable after construction and safe for concurrent readers.
type Potentials struct {
	c      *Circuit
	sparse bool
	eps    float64

	// Sparse backend: ε-truncated C^-1 rows and mext rows, CSR layout.
	// Row i of C^-1 occupies rowCol/rowVal[rowPtr[i]:rowPtr[i+1]]; the
	// mext (external-coupling) rows use mPtr/mCol/mVal the same way.
	rowPtr []int
	rowCol []int32
	rowVal []float64
	mPtr   []int
	mCol   []int32
	mVal   []float64

	// Truncation error metadata; all zero for dense and ε = 0 engines.
	dropInf    float64 // largest dropped |C^-1 entry| over all rows
	dropL1     float64 // largest per-row sum of dropped |C^-1 entries|
	mextDropL1 float64 // largest per-row sum of dropped |mext entries|
	fill       float64 // sparse Cholesky fill nnz(L)/nnz(tril(C)); 0 over the dense inverse
}

// Sparse reports whether the engine walks truncated rows (true) or full
// dense rows (false).
func (p *Potentials) Sparse() bool { return p.sparse }

// Eps returns the relative truncation threshold (0 for exact engines).
func (p *Potentials) Eps() float64 { return p.eps }

// Truncated reports whether the engine has dropped any nonzero entry,
// i.e. whether its potentials deviate from the exact solve at all.
func (p *Potentials) Truncated() bool { return p.dropInf > 0 || p.mextDropL1 > 0 }

// NNZ returns the number of stored C^-1 entries (n^2 for dense).
func (p *Potentials) NNZ() int {
	if !p.sparse {
		n := len(p.c.islands)
		return n * n
	}
	return len(p.rowVal)
}

// TruncationRatio returns stored C^-1 entries as a fraction of the full
// n^2 (1 for dense engines).
func (p *Potentials) TruncationRatio() float64 {
	n := len(p.c.islands)
	if n == 0 {
		return 0
	}
	return float64(p.NNZ()) / (float64(n) * float64(n))
}

// Fill returns the sparse Cholesky fill-in ratio nnz(L)/nnz(tril(C)) of
// the factorization behind a natively truncated engine, or 0 for the
// dense engine and the views derived from the dense inverse.
func (p *Potentials) Fill() float64 { return p.fill }

// at returns C^-1 element (i, j) in island coordinates.
func (p *Potentials) at(i, j int) float64 {
	if !p.sparse {
		return p.c.cinv.At(i, j)
	}
	cols := p.rowCol[p.rowPtr[i]:p.rowPtr[i+1]]
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
		return p.rowVal[p.rowPtr[i]+lo]
	}
	return 0
}

// Cinv returns the (a, b) element of C^-1 by node id; entries involving
// external nodes are zero (a voltage source absorbs charge with no
// potential change).
func (p *Potentials) Cinv(a, b int) float64 {
	ia, ib := p.c.islandIdx[a], p.c.islandIdx[b]
	if ia < 0 || ib < 0 {
		return 0
	}
	return p.at(ia, ib)
}

// DeltaW returns the free-energy change (joules) for a carrier of
// charge -q to tunnel src -> dst given the pre-event node potentials
// (Eq. 2 of the paper; see Circuit.DeltaW).
func (p *Potentials) DeltaW(src, dst int, q, vSrc, vDst float64) float64 {
	self := p.Cinv(src, src) - 2*p.Cinv(src, dst) + p.Cinv(dst, dst)
	return -q*(vDst-vSrc) + self*q*q/2
}

// DeltaWElectron is DeltaW for a single electron.
func (p *Potentials) DeltaWElectron(src, dst int, vSrc, vDst float64) float64 {
	return p.DeltaW(src, dst, units.E, vSrc, vDst)
}

// PotentialShift returns the island-k potential change caused by moving
// charge mq from node src to node dst: mq*(Cinv[k][src] - Cinv[k][dst]).
func (p *Potentials) PotentialShift(k, src, dst int, mq float64) float64 {
	acc := 0.0
	if i := p.c.islandIdx[src]; i >= 0 {
		acc += p.at(k, i)
	}
	if i := p.c.islandIdx[dst]; i >= 0 {
		acc -= p.at(k, i)
	}
	return mq * acc
}

// Shift applies the potential change of one transfer of charge mq from
// src to dst to every island potential in v, returning the number of
// row entries touched (the per-event work the obs layer histograms).
// The dense path is a fused pass over two full C^-1 rows; the sparse
// path walks only stored nonzeros.
func (p *Potentials) Shift(v []float64, src, dst int, mq float64) int {
	touched := 0
	if !p.sparse {
		if k := p.c.islandIdx[src]; k >= 0 {
			row := p.c.cinv.Row(k)
			for i := range v {
				v[i] += mq * row[i]
			}
			touched += len(v)
		}
		if k := p.c.islandIdx[dst]; k >= 0 {
			row := p.c.cinv.Row(k)
			for i := range v {
				v[i] -= mq * row[i]
			}
			touched += len(v)
		}
		return touched
	}
	if k := p.c.islandIdx[src]; k >= 0 {
		lo, hi := p.rowPtr[k], p.rowPtr[k+1]
		cols, vals := p.rowCol[lo:hi], p.rowVal[lo:hi]
		for idx, cc := range cols {
			v[cc] += mq * vals[idx]
		}
		touched += hi - lo
	}
	if k := p.c.islandIdx[dst]; k >= 0 {
		lo, hi := p.rowPtr[k], p.rowPtr[k+1]
		cols, vals := p.rowCol[lo:hi], p.rowVal[lo:hi]
		for idx, cc := range cols {
			v[cc] -= mq * vals[idx]
		}
		touched += hi - lo
	}
	return touched
}

// SolveRange computes rows [lo, hi) of the potential solve
// v = Cinv*q + mext*vext into dst (island order). Rows are independent,
// so disjoint ranges may run concurrently; see RowShards for
// nnz-balanced shard boundaries on sparse engines.
func (p *Potentials) SolveRange(dst, q, vext []float64, lo, hi int) {
	if !p.sparse {
		for i := lo; i < hi; i++ {
			row := p.c.cinv.Row(i)
			acc := 0.0
			for k, qk := range q {
				acc += row[k] * qk
			}
			for s, vs := range vext {
				acc += p.c.mext[i][s] * vs
			}
			dst[i] = acc
		}
		return
	}
	for i := lo; i < hi; i++ {
		acc := 0.0
		for idx := p.rowPtr[i]; idx < p.rowPtr[i+1]; idx++ {
			acc += p.rowVal[idx] * q[p.rowCol[idx]]
		}
		for idx := p.mPtr[i]; idx < p.mPtr[i+1]; idx++ {
			acc += p.mVal[idx] * vext[p.mCol[idx]]
		}
		dst[i] = acc
	}
}

// ExternalDelta fills dst (island order) with the island potential
// change caused by external voltages moving from vext0 to vext1:
// dv = mext * (v1 - v0).
func (p *Potentials) ExternalDelta(dst, vext0, vext1 []float64) {
	if !p.sparse {
		for i := range dst {
			acc := 0.0
			for s := range vext0 {
				acc += p.c.mext[i][s] * (vext1[s] - vext0[s])
			}
			dst[i] = acc
		}
		return
	}
	for i := range dst {
		acc := 0.0
		for idx := p.mPtr[i]; idx < p.mPtr[i+1]; idx++ {
			s := p.mCol[idx]
			acc += p.mVal[idx] * (vext1[s] - vext0[s])
		}
		dst[i] = acc
	}
}

// RowShards returns parts+1 monotone row boundaries splitting
// [0, NumIslands) into contiguous shards of approximately equal stored
// nonzero count, so a parallel refresh stays balanced when truncation
// leaves skewed row lengths. Dense engines return nil (equal row counts
// are already balanced).
func (p *Potentials) RowShards(parts int) []int {
	if !p.sparse || parts <= 1 {
		return nil
	}
	ni := len(p.c.islands)
	if parts > ni {
		parts = ni
	}
	bounds := make([]int, parts+1)
	bounds[parts] = ni
	total := p.rowPtr[ni] + p.mPtr[ni]
	row := 0
	for w := 1; w < parts; w++ {
		target := total * w / parts
		for row < ni && p.rowPtr[row]+p.mPtr[row] < target {
			row++
		}
		bounds[w] = row
	}
	return bounds
}

// --- Truncation error bounds ---
//
// Write the stored row as Cinv[k] = exact[k] - err[k] where err[k]
// holds the dropped entries. Then:
//
//   - one Shift of charge q perturbs island i by
//     q*(err[i][src] - err[i][dst]), bounded by 2*q*dropInf;
//   - a full solve v = Cinv*q + mext*vext is off by
//     err[i]·q + errM[i]·vext, bounded per island by
//     dropL1*max|q| + mextDropL1*max|vext|;
//   - an input change dv = mext*(v1-v0) is off by errM[i]·(v1-v0),
//     bounded by mextDropL1*max|v1-v0|.
//
// The solver keeps a running bound: reset to the refresh bound at each
// full refresh, incremented by the event/input terms in between.

// EventErrorBound bounds the per-island potential error introduced by
// one Shift of charge q. Zero for exact engines.
func (p *Potentials) EventErrorBound(q float64) float64 {
	return 2 * q * p.dropInf
}

// RefreshErrorBound bounds the per-island error of a full SolveRange
// given the largest island charge magnitude and external voltage
// magnitude. Zero for exact engines.
func (p *Potentials) RefreshErrorBound(qmax, vmax float64) float64 {
	return p.dropL1*qmax + p.mextDropL1*vmax
}

// InputErrorBound bounds the per-island error of one ExternalDelta
// given the largest source-voltage change magnitude. Zero for exact
// engines.
func (p *Potentials) InputErrorBound(dvmax float64) float64 {
	return p.mextDropL1 * dvmax
}

// --- Construction ---

func newDensePotentials(c *Circuit) *Potentials {
	return &Potentials{c: c}
}

// truncRow appends the entries of dense row `row` with magnitude at
// least eps*‖row‖∞ to (cols, vals), always dropping exact zeros, and
// returns the updated slices plus the L1 sum and max magnitude of the
// dropped entries.
func truncRow(cols []int32, vals []float64, row []float64, eps float64) ([]int32, []float64, float64, float64) {
	rmax := 0.0
	for _, v := range row {
		if a := math.Abs(v); a > rmax {
			rmax = a
		}
	}
	thr := eps * rmax
	dropSum, dropMax := 0.0, 0.0
	for j, v := range row {
		if v == 0 {
			continue
		}
		if a := math.Abs(v); a < thr {
			dropSum += a
			if a > dropMax {
				dropMax = a
			}
			continue
		}
		cols = append(cols, int32(j))
		vals = append(vals, v)
	}
	return cols, vals, dropSum, dropMax
}

// newSparseFromDense compresses an already-computed dense inverse into
// truncated rows. With eps = 0 only exact zeros are dropped, so the
// stored values are the dense inverse's own floats — the basis of the
// sparse engine's bit-identity guarantee.
func newSparseFromDense(c *Circuit, eps float64) *Potentials {
	ni := len(c.islands)
	p := &Potentials{c: c, sparse: true, eps: eps,
		rowPtr: make([]int, ni+1), mPtr: make([]int, ni+1)}
	for i := 0; i < ni; i++ {
		var ds, dm float64
		p.rowCol, p.rowVal, ds, dm = truncRow(p.rowCol, p.rowVal, c.cinv.Row(i), eps)
		p.rowPtr[i+1] = len(p.rowCol)
		if ds > p.dropL1 {
			p.dropL1 = ds
		}
		if dm > p.dropInf {
			p.dropInf = dm
		}
		p.mCol, p.mVal, ds, dm = truncRow(p.mCol, p.mVal, c.mext[i], eps)
		p.mPtr[i+1] = len(p.mCol)
		if ds > p.mextDropL1 {
			p.mextDropL1 = ds
		}
	}
	return p
}

// buildPotentials is the one C^-1 build: C is factored once under an
// RCM ordering and every C^-1 row comes from one sparse solve,
// O(n·nnz(L)) in total. Two row storages follow. At CinvTruncation = 0
// the rows are kept dense and symmetrized as the circuit's cinv, and
// mext is derived from them; the engine reads them directly (dense) or
// compresses them (SparsePotentials, bit-identical). With
// SparsePotentials and CinvTruncation > 0 each row is truncated into
// CSR as it is solved and the dense inverse is never formed.
func buildPotentials(c *Circuit, bo BuildOptions) (*Potentials, error) {
	chol, err := matrix.FactorCSR(c.ccsr, matrix.RCM(c.ccsr))
	if err != nil {
		return nil, err
	}
	cie := c.cieNonzeros()
	if bo.SparsePotentials && bo.CinvTruncation > 0 {
		return newSparseNative(c, chol, cie, bo.CinvTruncation), nil
	}
	// The island charge balance is q_e = C_II*v_I - C_IE*v_E (the C_IE
	// column holds the positive coupling capacitances), so
	// v_I = Cinv*q_e + (Cinv*C_IE)*v_E. Precompute mext = Cinv*C_IE.
	c.cinv = chol.Inverse()
	ni, ne := len(c.islands), len(c.externals)
	c.mext = make([][]float64, ni)
	for i := range c.mext {
		c.mext[i] = make([]float64, ne)
		cie.mulRow(c.mext[i], c.cinv.Row(i))
	}
	if bo.SparsePotentials {
		return newSparseFromDense(c, 0), nil
	}
	return newDensePotentials(c), nil
}

// couplings lists the nonzero island-external coupling capacitances
// C_IE in island-major order.
type couplings struct {
	island, ext []int32
	val         []float64
}

// cieNonzeros collects the nonzero entries of the assembled C_IE.
func (c *Circuit) cieNonzeros() couplings {
	var cp couplings
	for k, row := range c.cie {
		for s, v := range row {
			if v != 0 {
				cp.island = append(cp.island, int32(k))
				cp.ext = append(cp.ext, int32(s))
				cp.val = append(cp.val, v)
			}
		}
	}
	return cp
}

// mulRow sets dst (one slot per external) to row*C_IE. Each dst[s] sums
// over islands in ascending order; the exact zeros of C_IE it skips
// would add nothing, so the result is the dense product's, bit for bit.
func (cp couplings) mulRow(dst, row []float64) {
	for s := range dst {
		dst[s] = 0
	}
	for idx, k := range cp.island {
		dst[cp.ext[idx]] += row[k] * cp.val[idx]
	}
}

// newSparseNative builds a truncated engine without ever forming the
// dense inverse: each C^-1 row is computed by one sparse solve,
// truncated, and stored.
func newSparseNative(c *Circuit, chol *matrix.SparseChol, cie couplings, eps float64) *Potentials {
	ni, ne := len(c.islands), len(c.externals)
	p := &Potentials{c: c, sparse: true, eps: eps,
		rowPtr: make([]int, ni+1), mPtr: make([]int, ni+1)}
	if l := c.ccsr.LowerNNZ(); l > 0 {
		p.fill = float64(chol.NNZ()) / float64(l)
	}
	row := make([]float64, ni)
	w := make([]float64, ni)
	mrow := make([]float64, ne)
	for i := 0; i < ni; i++ {
		chol.InverseRow(i, row, w)
		cie.mulRow(mrow, row)
		var ds, dm float64
		p.rowCol, p.rowVal, ds, dm = truncRow(p.rowCol, p.rowVal, row, eps)
		p.rowPtr[i+1] = len(p.rowCol)
		if ds > p.dropL1 {
			p.dropL1 = ds
		}
		if dm > p.dropInf {
			p.dropInf = dm
		}
		p.mCol, p.mVal, ds, dm = truncRow(p.mCol, p.mVal, mrow, eps)
		p.mPtr[i+1] = len(p.mCol)
		if ds > p.mextDropL1 {
			p.mextDropL1 = ds
		}
	}
	return p
}

// reTruncate derives a more aggressively truncated engine from an
// existing sparse one (eps must exceed the base's). The row maxima are
// preserved by truncation (the largest entry is never dropped), so the
// thresholds match a from-scratch build; the error bounds compound the
// base's conservatively.
func reTruncate(base *Potentials, eps float64) *Potentials {
	c := base.c
	ni := len(c.islands)
	p := &Potentials{c: c, sparse: true, eps: eps, fill: base.fill,
		rowPtr: make([]int, ni+1), mPtr: make([]int, ni+1)}
	trunc := func(ptr []int, cols []int32, vals []float64, i int, outCols []int32, outVals []float64) ([]int32, []float64, float64, float64) {
		lo, hi := ptr[i], ptr[i+1]
		rmax := 0.0
		for _, v := range vals[lo:hi] {
			if a := math.Abs(v); a > rmax {
				rmax = a
			}
		}
		thr := eps * rmax
		dropSum, dropMax := 0.0, 0.0
		for idx := lo; idx < hi; idx++ {
			if a := math.Abs(vals[idx]); a < thr {
				dropSum += a
				if a > dropMax {
					dropMax = a
				}
				continue
			}
			outCols = append(outCols, cols[idx])
			outVals = append(outVals, vals[idx])
		}
		return outCols, outVals, dropSum, dropMax
	}
	var newDropL1, newDropInf, newMextL1 float64
	for i := 0; i < ni; i++ {
		var ds, dm float64
		p.rowCol, p.rowVal, ds, dm = trunc(base.rowPtr, base.rowCol, base.rowVal, i, p.rowCol, p.rowVal)
		p.rowPtr[i+1] = len(p.rowCol)
		if ds > newDropL1 {
			newDropL1 = ds
		}
		if dm > newDropInf {
			newDropInf = dm
		}
		p.mCol, p.mVal, ds, dm = trunc(base.mPtr, base.mCol, base.mVal, i, p.mCol, p.mVal)
		p.mPtr[i+1] = len(p.mCol)
		if ds > newMextL1 {
			newMextL1 = ds
		}
	}
	p.dropL1 = base.dropL1 + newDropL1
	p.dropInf = math.Max(base.dropInf, newDropInf)
	p.mextDropL1 = base.mextDropL1 + newMextL1
	return p
}

// PotentialEngine returns a potential engine over this circuit with the
// requested backend, deriving and caching one when it differs from the
// engine the circuit was built with. A positive eps implies sparse.
//
// Rules: on a dense-built circuit any sparse view can be derived (the
// dense inverse is compressed and truncated). On a circuit built with
// CinvTruncation > 0 the dense inverse never existed, so only the
// built engine or a coarser re-truncation (larger eps) is available;
// asking for dense or a smaller eps is an error. Asking for exactly the
// built configuration returns the built engine itself.
func (c *Circuit) PotentialEngine(sparse bool, eps float64) (*Potentials, error) {
	if !c.built {
		return nil, errors.New("circuit: PotentialEngine before Build")
	}
	if eps < 0 || math.IsNaN(eps) {
		return nil, fmt.Errorf("circuit: invalid C^-1 truncation threshold %g", eps)
	}
	if eps > 0 {
		sparse = true
	}
	if !sparse {
		if c.cinv == nil {
			return nil, fmt.Errorf("circuit: built with cinv truncation %g; the dense engine is unavailable", c.pot.eps)
		}
		if !c.pot.sparse {
			return c.pot, nil
		}
		// Built sparse-exact, dense data still present: serve a dense view.
		c.engMu.Lock()
		defer c.engMu.Unlock()
		if c.denseView == nil {
			c.denseView = newDensePotentials(c)
		}
		return c.denseView, nil
	}
	if c.pot.sparse && numeric.SameBits(c.pot.eps, eps) {
		return c.pot, nil
	}
	c.engMu.Lock()
	defer c.engMu.Unlock()
	if e, ok := c.derived[eps]; ok {
		return e, nil
	}
	var e *Potentials
	if c.cinv != nil {
		e = newSparseFromDense(c, eps)
	} else {
		if eps < c.pot.eps {
			return nil, fmt.Errorf("circuit: built with cinv truncation %g; cannot derive finer truncation %g", c.pot.eps, eps)
		}
		e = reTruncate(c.pot, eps)
	}
	if c.derived == nil {
		c.derived = map[float64]*Potentials{}
	}
	c.derived[eps] = e
	return e, nil
}

// Potentials returns the engine the circuit was built with (dense
// unless BuildWith selected the sparse backend).
func (c *Circuit) Potentials() *Potentials { return c.pot }
