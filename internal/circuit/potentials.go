package circuit

// The potential engine: one object owning every C^-1-mediated quantity
// the solver reads — per-event potential shifts, full potential solves,
// free-energy changes and external-input deltas. Every build stores
// C^-1 (and mext = C^-1·C_IE) as ε-truncated rows in CSR form: each row
// keeps only the entries with |v| >= ε·‖row‖∞, so per-event shifts and
// refresh solves walk stored nonzeros only, O(k) per row. The engine
// carries a provable per-potential error bound (EventErrorBound /
// RefreshErrorBound / InputErrorBound) that the solver accumulates into
// its Stats; there is no separate exact mode, the bound states how
// exact a run is.
//
// C^-1 entries of a diagonally dominant capacitance matrix decay
// exponentially with graph distance, so the default ε = 1e-14 already
// drops most entries of the large logic benchmarks while its bound
// stays below a picovolt, and a relative threshold as coarse as 1e-8
// drops the vast majority with the bound still far below thermal noise.

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"semsim/internal/matrix"
)

// DefaultCinvTruncation is the C^-1 truncation threshold ε a build uses
// when BuildOptions leaves it at 0.
const DefaultCinvTruncation = 1e-14

// BuildOptions configures the potential engine assembled by BuildWith.
type BuildOptions struct {
	// SparsePotentials is ignored: every build stores truncated rows.
	//
	// Deprecated: kept only while the benchmark harness still sets it.
	SparsePotentials bool
	// CinvTruncation is the relative row-truncation threshold ε, the
	// engine's only knob: each C^-1 row (and mext row) drops the entries
	// smaller in magnitude than ε·‖row‖∞ as it is solved. 0 means
	// DefaultCinvTruncation; any other value must be finite with
	// 0 < ε < 1 (see CheckCinvTruncation).
	CinvTruncation float64
}

// CheckCinvTruncation reports whether eps is a usable truncation
// threshold: finite with 0 <= eps < 1, 0 standing for
// DefaultCinvTruncation. At eps >= 1 a row keeps at most its largest
// entries, and Coulomb blockade vanishes with the rest.
func CheckCinvTruncation(eps float64) error {
	if !(eps >= 0 && eps < 1) {
		return fmt.Errorf("circuit: C^-1 truncation threshold %g outside [0, 1)", eps)
	}
	return nil
}

// Potentials is the potential engine of one built circuit. It is
// immutable after construction and safe for concurrent readers.
type Potentials struct {
	c   *Circuit
	eps float64 // C^-1 truncation threshold

	// ε-truncated C^-1 rows and mext rows, CSR layout. Row i of C^-1
	// occupies rowCol/rowVal[rowPtr[i]:rowPtr[i+1]]; the mext
	// (external-coupling) rows use mPtr/mCol/mVal the same way.
	rowPtr []int
	rowCol []int32
	rowVal []float64
	mPtr   []int
	mCol   []int32
	mVal   []float64

	// Truncation error metadata; all zero when nothing was dropped.
	dropInf    float64 // largest dropped |C^-1 entry| over all rows
	dropL1     float64 // largest per-row sum of dropped |C^-1 entries|
	mextDropL1 float64 // largest per-row sum of dropped |mext entries|
	fill       float64 // sparse Cholesky fill nnz(L)/nnz(tril(C))
}

// Sparse reports true: every engine walks truncated CSR rows.
//
// Deprecated: kept only while the benchmark harness still calls it.
func (p *Potentials) Sparse() bool { return true }

// Eps returns the relative truncation threshold the rows were built at.
func (p *Potentials) Eps() float64 { return p.eps }

// Truncated reports whether the engine has dropped any nonzero entry,
// i.e. whether its potentials deviate from the exact solve at all.
func (p *Potentials) Truncated() bool { return p.dropInf > 0 || p.mextDropL1 > 0 }

// NNZ returns the number of stored C^-1 entries.
func (p *Potentials) NNZ() int { return len(p.rowVal) }

// TruncationRatio returns stored C^-1 entries as a fraction of the full
// n^2.
func (p *Potentials) TruncationRatio() float64 {
	n := len(p.c.islands)
	if n == 0 {
		return 0
	}
	return float64(p.NNZ()) / (float64(n) * float64(n))
}

// Fill returns the fill-in ratio nnz(L)/nnz(tril(C)) of the sparse
// Cholesky factorization the engine's rows were solved from.
func (p *Potentials) Fill() float64 { return p.fill }

// at returns stored C^-1 element (i, j) in island coordinates, 0 when
// dropped, by binary search in row i. Build-time code only: the event
// loop reads the shift record Shift fills instead.
func (p *Potentials) at(i, j int) float64 {
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

// ShiftRecord is an epoch-stamped record of the per-island potential
// shift one Shift applied. Shift fills it while it walks the event's
// two C^-1 rows, so a reader gets the exact shift each island received
// without a C^-1 lookup.
type ShiftRecord struct {
	val   []float64
	stamp []uint32 // val[k] is this epoch's shift iff stamp[k] == epoch
	epoch uint32
}

// NewShiftRecord returns an empty record for a circuit of n islands.
func NewShiftRecord(n int) *ShiftRecord {
	return &ShiftRecord{val: make([]float64, n), stamp: make([]uint32, n)}
}

// At returns the shift island k received from the last recorded Shift:
// 0 for k < 0 (an external node) and for an island outside both rows.
func (r *ShiftRecord) At(k int32) float64 {
	if k < 0 || r.stamp[k] != r.epoch {
		return 0
	}
	return r.val[k]
}

// open starts a new epoch, in which every island reads 0 until Shift
// records into it.
func (r *ShiftRecord) open() {
	r.epoch++
	if r.epoch == 0 { // uint32 wrap: old stamps must not alias
		clear(r.stamp)
		r.epoch = 1
	}
}

// Shift applies the potential change of one transfer of charge mq from
// src to dst to every island potential in v, walking the stored
// nonzeros of rows C^-1[src] and C^-1[dst], and returns the number of
// row entries touched (the per-event work the obs layer histograms).
// A non-nil rec is reopened and records every island's shift as it is
// applied: Shift into a zero vector leaves exactly rec's values.
func (p *Potentials) Shift(v []float64, src, dst int, mq float64, rec *ShiftRecord) int {
	if rec != nil {
		rec.open()
	}
	touched := 0
	if k := p.c.islandIdx[src]; k >= 0 {
		touched += p.shiftRow(v, k, mq, rec)
	}
	if k := p.c.islandIdx[dst]; k >= 0 {
		touched += p.shiftRow(v, k, -mq, rec)
	}
	return touched
}

// shiftRow adds mq·C^-1[k] to v over the row's stored nonzeros, and
// into rec when non-nil.
func (p *Potentials) shiftRow(v []float64, k int, mq float64, rec *ShiftRecord) int {
	lo, hi := p.rowPtr[k], p.rowPtr[k+1]
	cols, vals := p.rowCol[lo:hi], p.rowVal[lo:hi]
	for idx, cc := range cols {
		// The conversion rounds the product, so neither sum below can
		// be fused into a multiply-add the other does not get.
		d := float64(mq * vals[idx])
		v[cc] += d
		if rec != nil {
			if rec.stamp[cc] != rec.epoch {
				rec.stamp[cc] = rec.epoch
				rec.val[cc] = 0
			}
			rec.val[cc] += d
		}
	}
	return hi - lo
}

// Solve computes the potential solve v = Cinv*q + mext*vext into dst
// (island order).
func (p *Potentials) Solve(dst, q, vext []float64) {
	for i := range dst {
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
	for i := range dst {
		acc := 0.0
		for idx := p.mPtr[i]; idx < p.mPtr[i+1]; idx++ {
			s := p.mCol[idx]
			acc += p.mVal[idx] * (vext1[s] - vext0[s])
		}
		dst[i] = acc
	}
}

// --- Truncation error bounds ---
//
// Write the stored row as Cinv[k] = exact[k] - err[k] where err[k]
// holds the dropped entries. Then:
//
//   - one Shift of charge q perturbs island i by
//     q*(err[src][i] - err[dst][i]), bounded by 2*q*dropInf;
//   - a full solve v = Cinv*q + mext*vext is off by
//     err[i]·q + errM[i]·vext, bounded per island by
//     dropL1*max|q| + mextDropL1*max|vext|;
//   - an input change dv = mext*(v1-v0) is off by errM[i]·(v1-v0),
//     bounded by mextDropL1*max|v1-v0|.
//
// The solver keeps a running bound: reset to the refresh bound at each
// full refresh, incremented by the event/input terms in between.

// EventErrorBound bounds the per-island potential error introduced by
// one Shift of charge q. Zero when nothing was dropped.
func (p *Potentials) EventErrorBound(q float64) float64 {
	return 2 * q * p.dropInf
}

// RefreshErrorBound bounds the per-island error of a full Solve
// given the largest island charge magnitude and external voltage
// magnitude. Zero when nothing was dropped.
func (p *Potentials) RefreshErrorBound(qmax, vmax float64) float64 {
	return p.dropL1*qmax + p.mextDropL1*vmax
}

// InputErrorBound bounds the per-island error of one ExternalDelta
// given the largest source-voltage change magnitude. Zero when nothing
// was dropped.
func (p *Potentials) InputErrorBound(dvmax float64) float64 {
	return p.mextDropL1 * dvmax
}

// --- Construction ---

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

// csrRows lays per-row slices out as one CSR row set, each array
// allocated once at its final size.
func csrRows(cols [][]int32, vals [][]float64) (ptr []int, col []int32, val []float64) {
	ptr = make([]int, len(cols)+1)
	for i, c := range cols {
		ptr[i+1] = ptr[i] + len(c)
	}
	nnz := ptr[len(cols)]
	col, val = make([]int32, 0, nnz), make([]float64, 0, nnz)
	for i := range cols {
		col = append(col, cols[i]...)
		val = append(val, vals[i]...)
	}
	return ptr, col, val
}

// buildPotentials is the one C^-1 build: C is factored once under an
// RCM ordering and the C^-1 rows come from sparse solves, RowBlock rows
// of that ordering per pass over L, O(n·nnz(L)) in total. Each row, and
// its mext row, is truncated at ε = bo.CinvTruncation
// (DefaultCinvTruncation when 0) as it is solved; the dense inverse is
// never formed.
func buildPotentials(c *Circuit, bo BuildOptions) (*Potentials, error) {
	perm := matrix.RCM(c.ccsr)
	chol, err := matrix.FactorCSR(c.ccsr, perm)
	if err != nil {
		return nil, err
	}
	p := &Potentials{c: c, eps: bo.CinvTruncation}
	if p.eps == 0 {
		p.eps = DefaultCinvTruncation
	}
	if l := c.ccsr.LowerNNZ(); l > 0 {
		p.fill = float64(chol.NNZ()) / float64(l)
	}
	p.truncateRows(chol, perm, c.cieNonzeros())
	return p, nil
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

// islandsPerWorker is the island count each build worker must have to
// itself: a circuit of n islands is solved by min(GOMAXPROCS, n/256)
// goroutines, so one under 512 islands is solved on the calling
// goroutine.
const islandsPerWorker = 256

// drops holds the largest dropped-entry measures one worker saw.
type drops struct{ l1, inf, mextL1 float64 }

// truncateRows fills p's rows at p.eps. The island charge balance is
// q_e = C_II*v_I - C_IE*v_E (the C_IE column holds the positive
// coupling capacitances), so v_I = Cinv*q_e + (Cinv*C_IE)*v_E: the
// C^-1 rows come from sparse solves and each mext row from C_IE. Rows
// are solved in blocks of matrix.RowBlock consecutive positions of the
// factor's ordering perm, which workers claim from an atomic counter.
// Each worker has its own O(n) scratch, writes only its own rows' slots
// and keeps its own drop maxima, combined after the join; every row is
// computed the same way whichever worker solves it, and max is exact in
// any order, so the result does not depend on the worker count. Rows
// are truncated through the scratch into exact-size copies, laid out as
// CSR once every row is known, so no stored array ever grows by
// appending.
func (p *Potentials) truncateRows(chol *matrix.SparseChol, perm []int, cie couplings) {
	ni, ne := len(p.c.islands), len(p.c.externals)
	cols, vals := make([][]int32, ni), make([][]float64, ni)
	mcols, mvals := make([][]int32, ni), make([][]float64, ni)
	const bw = matrix.RowBlock
	var next atomic.Int64 // the first position of the next unclaimed block
	solve := func() drops {
		slab := make([]float64, 2*bw*ni+ne)
		w, mrow := slab[:bw*ni], slab[2*bw*ni:]
		var out [bw][]float64
		for j := range out {
			out[j] = slab[(bw+j)*ni : (bw+j+1)*ni]
		}
		var d drops
		var sc []int32
		var sv []float64
		for k0 := int(next.Add(bw)) - bw; k0 < ni; k0 = int(next.Add(bw)) - bw {
			rows := out[:min(bw, ni-k0)]
			chol.InverseRows(k0, rows, w)
			for j, row := range rows {
				i := perm[k0+j]
				cie.mulRow(mrow, row)
				var ds, dm float64
				sc, sv, ds, dm = truncRow(sc[:0], sv[:0], row, p.eps)
				cols[i], vals[i] = slices.Clone(sc), slices.Clone(sv)
				d.l1, d.inf = max(d.l1, ds), max(d.inf, dm)
				sc, sv, ds, _ = truncRow(sc[:0], sv[:0], mrow, p.eps)
				mcols[i], mvals[i] = slices.Clone(sc), slices.Clone(sv)
				d.mextL1 = max(d.mextL1, ds)
			}
		}
		return d
	}
	found := make([]drops, max(1, min(runtime.GOMAXPROCS(0), ni/islandsPerWorker)))
	var wg sync.WaitGroup
	for g := 1; g < len(found); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			found[g] = solve()
		}()
	}
	found[0] = solve()
	wg.Wait()
	for _, d := range found {
		p.dropL1 = max(p.dropL1, d.l1)
		p.dropInf = max(p.dropInf, d.inf)
		p.mextDropL1 = max(p.mextDropL1, d.mextL1)
	}
	p.rowPtr, p.rowCol, p.rowVal = csrRows(cols, vals)
	p.mPtr, p.mCol, p.mVal = csrRows(mcols, mvals)
}

// Potentials returns the circuit's potential engine.
func (c *Circuit) Potentials() *Potentials { return c.pot }
