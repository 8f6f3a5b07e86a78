package bench

import (
	"math"
	"os"
	"testing"

	"semsim/internal/circuit"
	"semsim/internal/logicnet"
)

// TestSparseVsDensePotentialsSuite cross-checks the truncated potential
// engine against the exact dense rows on the benchmark suite: a build
// at a near-exact threshold (eps = 1e-14, RCM + sparse Cholesky, no
// dense inverse formed) must agree with the default build to 1e-12 V.
// Benchmarks above c432 hold tens to hundreds of MB of dense C^-1 rows,
// so by default the check covers the twelve suite entries up to c432;
// set SEMSIM_FULL_XCHECK=1 to run all fifteen.
func TestSparseVsDensePotentialsSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-suite builds in -short mode")
	}
	full := os.Getenv("SEMSIM_FULL_XCHECK") != ""
	p := logicnet.DefaultParams()
	for _, b := range Suite() {
		if !full && b.PublishedJunctions > 2072 {
			continue
		}
		b := b
		t.Run(b.Name, func(t *testing.T) {
			ex, err := BuildWorkload(b, p)
			if err != nil {
				t.Fatal(err)
			}
			c := ex.Circuit
			ni := c.NumIslands()
			ns := make([]int, ni)
			for i := range ns {
				ns[i] = i%3 - 1
			}
			vd := c.IslandPotentials(nil, ns, SettleTime/2)

			exN, err := BuildWorkloadWith(b, p, circuit.BuildOptions{CinvTruncation: 1e-14})
			if err != nil {
				t.Fatal(err)
			}
			if !exN.Circuit.Potentials().Sparse() {
				t.Fatal("eps = 1e-14 build produced the dense engine")
			}
			vn := exN.Circuit.IslandPotentials(nil, ns, SettleTime/2)
			for i := range vd {
				if d := math.Abs(vd[i] - vn[i]); d > 1e-12 {
					t.Fatalf("island %d: truncated potential %v vs dense %v (|diff| %g > 1e-12)", i, vn[i], vd[i], d)
				}
			}
		})
	}
}

// TestExactCinvSuite checks the exact (eps = 0) C^-1 that every default
// build factors sparsely and solves row by row, on the suite circuits up
// to c432: the inverse must be bitwise symmetric, and C·C^-1 must be
// the identity to ‖C·C^-1 − I‖∞ ≤ 1e-12 (largest absolute row sum).
func TestExactCinvSuite(t *testing.T) {
	p := logicnet.DefaultParams()
	for _, b := range Suite() {
		if b.PublishedJunctions > 2072 {
			continue
		}
		t.Run(b.Name, func(t *testing.T) {
			ex, err := BuildWorkload(b, p)
			if err != nil {
				t.Fatal(err)
			}
			c := ex.Circuit
			ni := c.NumIslands()
			resid := make([]float64, ni) // row sums of |C·C^-1 − I|
			prod := make([]float64, ni)
			for j := 0; j < ni; j++ {
				col := c.CinvRow(j) // column j, by symmetry
				for i := 0; i < j; i++ {
					if math.Float64bits(col[i]) != math.Float64bits(c.CinvRow(i)[j]) {
						t.Fatalf("C^-1(%d,%d) = %v but C^-1(%d,%d) = %v", j, i, col[i], i, j, c.CinvRow(i)[j])
					}
				}
				c.CSR().MulVec(prod, col)
				prod[j]--
				for i, v := range prod {
					resid[i] += math.Abs(v)
				}
			}
			worst := 0.0
			for _, r := range resid {
				worst = math.Max(worst, r)
			}
			if worst > 1e-12 {
				t.Fatalf("‖C·C^-1 − I‖∞ = %g > 1e-12", worst)
			}
			t.Logf("%d islands: ‖C·C^-1 − I‖∞ = %.3g", ni, worst)
		})
	}
}
