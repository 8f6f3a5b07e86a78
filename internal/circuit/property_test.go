package circuit

import (
	"math"
	"testing"
	"testing/quick"

	"semsim/internal/rng"
	"semsim/internal/units"
)

// randCircuit builds a random but electrically valid circuit: a few
// externals with DC sources, islands, random junctions and capacitors,
// with every island guaranteed some capacitance.
func randCircuit(r *rng.Source) *Circuit {
	c := New()
	nExt := 2 + r.Intn(3)
	nIsl := 1 + r.Intn(5)
	var exts, isls []int
	for i := 0; i < nExt; i++ {
		id := c.AddNode("", External)
		c.SetSource(id, DC(r.Float64()*0.1-0.05))
		exts = append(exts, id)
	}
	for i := 0; i < nIsl; i++ {
		isls = append(isls, c.AddNode("", Island))
	}
	anyNode := func() int {
		all := append(append([]int(nil), exts...), isls...)
		return all[r.Intn(len(all))]
	}
	// Anchor every island with a junction to something, plus a small
	// capacitor to a fixed potential so no island cluster floats (a
	// group of islands tied only to each other has a singular
	// capacitance matrix).
	for _, isl := range isls {
		for {
			other := anyNode()
			if other != isl {
				c.AddJunction(isl, other, 0.5e6+r.Float64()*2e6, (0.5+2*r.Float64())*units.Atto)
				break
			}
		}
		c.AddCap(isl, exts[0], (0.2+r.Float64())*units.Atto)
	}
	// Extra random junctions and caps.
	for i := 0; i < r.Intn(5); i++ {
		a, b := anyNode(), anyNode()
		if a != b {
			c.AddJunction(a, b, 0.5e6+r.Float64()*2e6, (0.5+2*r.Float64())*units.Atto)
		}
	}
	for i := 0; i < r.Intn(6); i++ {
		a, b := anyNode(), anyNode()
		if a != b {
			c.AddCap(a, b, (0.5+5*r.Float64())*units.Atto)
		}
	}
	if err := c.Build(); err != nil {
		panic(err)
	}
	return c
}

// TestPotentialSuperposition: potentials are affine in the electron
// configuration, so v(n+dn) - v(n) must be independent of n.
func TestPotentialSuperposition(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		c := randCircuit(r)
		ni := c.NumIslands()
		n1 := make([]int, ni)
		n2 := make([]int, ni)
		dn := make([]int, ni)
		for i := 0; i < ni; i++ {
			n1[i] = r.Intn(7) - 3
			n2[i] = r.Intn(7) - 3
			dn[i] = r.Intn(3) - 1
		}
		add := func(a, b []int) []int {
			out := make([]int, len(a))
			for i := range a {
				out[i] = a[i] + b[i]
			}
			return out
		}
		vA0 := c.IslandPotentials(nil, n1, 0)
		vA1 := c.IslandPotentials(nil, add(n1, dn), 0)
		vB0 := c.IslandPotentials(nil, n2, 0)
		vB1 := c.IslandPotentials(nil, add(n2, dn), 0)
		for k := 0; k < ni; k++ {
			d1 := vA1[k] - vA0[k]
			d2 := vB1[k] - vB0[k]
			if math.Abs(d1-d2) > 1e-9*(math.Abs(d1)+math.Abs(d2)+1e-6) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestPotentialShiftConsistency: the incremental per-transfer shift
// must equal the difference of full recomputations, for random
// circuits and random transfers.
func TestPotentialShiftConsistency(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		c := randCircuit(r)
		ni := c.NumIslands()
		n := make([]int, ni)
		for i := range n {
			n[i] = r.Intn(5) - 2
		}
		j := c.Junction(r.Intn(c.NumJunctions()))
		src, dst := j.A, j.B
		if r.Intn(2) == 0 {
			src, dst = dst, src
		}
		v0 := c.IslandPotentials(nil, n, 0)
		c.ApplyTransfer(n, src, dst, 1)
		v1 := c.IslandPotentials(nil, n, 0)
		for k := 0; k < ni; k++ {
			shift := c.PotentialShift(k, src, dst, units.E)
			if math.Abs(v0[k]+shift-v1[k]) > 1e-9*(math.Abs(v1[k])+1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestMicroreversibility: dW(src->dst) before an event plus
// dW(dst->src) after it must vanish for any junction of any circuit.
func TestMicroreversibility(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		c := randCircuit(r)
		n := make([]int, c.NumIslands())
		for i := range n {
			n[i] = r.Intn(5) - 2
		}
		j := c.Junction(r.Intn(c.NumJunctions()))
		v := c.IslandPotentials(nil, n, 0)
		nv := func(id int) float64 { return c.NodePotential(id, v, 0) }
		fwd := c.DeltaWElectron(j.A, j.B, nv(j.A), nv(j.B))
		c.ApplyTransfer(n, j.A, j.B, 1)
		v = c.IslandPotentials(v, n, 0)
		bwd := c.DeltaWElectron(j.B, j.A, nv(j.B), nv(j.A))
		scale := math.Abs(fwd) + math.Abs(bwd) + 1e-25
		return math.Abs(fwd+bwd)/scale < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestCapacitanceMatrixDiagonallyDominant: by construction the island
// capacitance matrix must be symmetric and diagonally dominant (hence
// SPD), for any random circuit.
func TestCapacitanceMatrixDiagonallyDominant(t *testing.T) {
	f := func(seed uint64) bool {
		c := randCircuit(rng.New(seed))
		m := c.CSR()
		ni := m.NumRows
		for i := 0; i < ni; i++ {
			off := 0.0
			for j := 0; j < ni; j++ {
				if j == i {
					continue
				}
				if m.At(i, j) != m.At(j, i) {
					return false
				}
				if m.At(i, j) > 0 {
					return false // off-diagonals are -C couplings
				}
				off += -m.At(i, j)
			}
			if m.At(i, i) < off-1e-30 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestAdjacencyIsSymmetric: junction adjacency is a symmetric relation
// and never contains the junction itself.
func TestAdjacencyIsSymmetric(t *testing.T) {
	f := func(seed uint64) bool {
		c := randCircuit(rng.New(seed))
		has := func(list []int, x int) bool {
			for _, v := range list {
				if v == x {
					return true
				}
			}
			return false
		}
		for j := 0; j < c.NumJunctions(); j++ {
			for _, nb := range c.JunctionNeighbors(j) {
				if nb == j {
					return false
				}
				if !has(c.JunctionNeighbors(nb), j) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
