package solver

// fenwick is a binary indexed tree over non-negative channel rates. It
// supports O(n) bulk (re)construction and O(log n) sampling of an index
// by cumulative rate, which is what lets the adaptive solver pay only
// for the channels it actually recomputed.
//
// Updates are batched: stage(i, v) records the new value (vals is
// current immediately, the tree is not) and flush commits the whole
// batch, choosing between incremental point updates and a bulk O(n)
// rebuild, whichever is cheaper. The non-adaptive solver stages every
// channel each event, so its selection-tree maintenance costs O(n)
// instead of O(n log n).
//
// Staged deltas live in parallel index/delta arrays preallocated at n
// entries. The solver flushes at the top of every Step, so a batch is
// one update, and one update stages each channel at most once; a full
// refresh drops any batch a stopped run left behind before it stages
// every channel again. Callers may defer flush() until just before
// total()/find().
type fenwick struct {
	n    int
	tree []float64 // 1-based BIT partial sums
	vals []float64 // current value per index
	log2 int       // ceil(log2(n)), the per-update tree cost

	// Staged batch, struct-of-arrays: pendIdx[k] gets tree delta
	// pendDelta[k].
	pendIdx   []int32
	pendDelta []float64
}

func newFenwick(n int) *fenwick {
	log2 := 0
	for 1<<log2 < n {
		log2++
	}
	return &fenwick{
		n:         n,
		tree:      make([]float64, n+1),
		vals:      make([]float64, n),
		log2:      log2,
		pendIdx:   make([]int32, 0, n),
		pendDelta: make([]float64, 0, n),
	}
}

// stage assigns value v (>= 0) to index i without updating the tree;
// the caller must flush (or rebuild) before total() or find().
//
//semsim:hot
func (f *fenwick) stage(i int, v float64) {
	if v < 0 {
		v = 0
	}
	d := v - f.vals[i]
	if d == 0 {
		return
	}
	f.vals[i] = v
	f.pendIdx = append(f.pendIdx, int32(i)) //hotalloc:ok capacity n preallocated, a batch stages each channel at most once
	f.pendDelta = append(f.pendDelta, d)    //hotalloc:ok capacity n preallocated, a batch stages each channel at most once
}

// clearPending drops the staged batch.
func (f *fenwick) clearPending() {
	f.pendIdx = f.pendIdx[:0]
	f.pendDelta = f.pendDelta[:0]
}

// pendingCount reports the number of staged updates.
func (f *fenwick) pendingCount() int { return len(f.pendIdx) }

// flush commits the staged batch: incremental O(k log n) point updates
// for small batches, a bulk O(n) rebuild once that would be slower. It
// reports the batch size and which strategy it chose (observability
// input; callers that don't care ignore the results).
//
//semsim:hot
func (f *fenwick) flush() (batch int, rebuilt bool) {
	batch = len(f.pendIdx)
	if batch == 0 {
		return 0, false
	}
	if batch*f.log2 >= f.n {
		f.rebuild()
		return batch, true
	}
	for k, i := range f.pendIdx {
		d := f.pendDelta[k]
		for j := int(i) + 1; j <= f.n; j += j & (-j) {
			f.tree[j] += d
		}
	}
	f.clearPending()
	return batch, false
}

// total returns the sum of all values.
//
//semsim:hot
func (f *fenwick) total() float64 {
	s := 0.0
	for j := f.n; j > 0; j -= j & (-j) {
		s += f.tree[j]
	}
	return s
}

// rebuild recomputes the tree from vals in O(n), discarding any staged
// deltas (vals already holds the staged values) and clearing
// accumulated floating-point drift from incremental updates: each node
// accumulates its own value plus its children's partial sums, then
// pushes the total to its parent.
func (f *fenwick) rebuild() {
	f.clearPending()
	for i := 1; i <= f.n; i++ {
		f.tree[i] = f.vals[i-1]
	}
	for i := 1; i <= f.n; i++ {
		if j := i + i&(-i); j <= f.n {
			f.tree[j] += f.tree[i]
		}
	}
}

// find returns the smallest index i such that the cumulative sum
// through i exceeds u. u must be in [0, total()). If rounding pushes
// the search past the end, the last index with a positive value is
// returned.
//
//semsim:hot
func (f *fenwick) find(u float64) int {
	idx := 0
	// Highest power of two <= n.
	bit := 1
	for bit<<1 <= f.n {
		bit <<= 1
	}
	for ; bit > 0; bit >>= 1 {
		next := idx + bit
		if next <= f.n && f.tree[next] <= u {
			u -= f.tree[next]
			idx = next
		}
	}
	if idx >= f.n {
		idx = f.n - 1
	}
	// Guard against landing on a zero-rate channel through FP rounding.
	if f.vals[idx] <= 0 {
		for i := idx; i >= 0; i-- {
			if f.vals[i] > 0 {
				return i
			}
		}
		for i := idx + 1; i < f.n; i++ {
			if f.vals[i] > 0 {
				return i
			}
		}
	}
	return idx
}
