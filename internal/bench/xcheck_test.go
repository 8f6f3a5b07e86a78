package bench

import (
	"math"
	"os"
	"testing"

	"semsim/internal/circuit"
	"semsim/internal/logicnet"
	"semsim/internal/matrix"
)

// exactPotentials is the test-local exact reference for a build's
// island potentials at electron counts ns and time tt: it assembles
// q + C_IE·v_ext from the element list and solves C v = q + C_IE·v_ext
// with an untruncated sparse Cholesky solve.
func exactPotentials(t *testing.T, c *circuit.Circuit, ns []int, tt float64) []float64 {
	t.Helper()
	ch, err := matrix.FactorCSR(c.CSR(), matrix.RCM(c.CSR()))
	if err != nil {
		t.Fatal(err)
	}
	v := c.ChargeVector(nil, ns)
	vext := c.ExternalVoltages(nil, tt)
	ext := map[int]int{}
	for s, id := range c.Externals() {
		ext[id] = s
	}
	couple := func(a, b int, cap float64) {
		for _, e := range [2][2]int{{a, b}, {b, a}} {
			if i := c.IslandIndex(e[0]); i >= 0 && c.IslandIndex(e[1]) < 0 {
				v[i] += cap * vext[ext[e[1]]]
			}
		}
	}
	for _, j := range c.Junctions() {
		couple(j.A, j.B, j.C)
	}
	for _, cp := range c.AllCapacitors() {
		couple(cp.A, cp.B, cp.C)
	}
	ch.Solve(v)
	return v
}

// TestSparseVsDensePotentialsSuite cross-checks the default build's
// truncated rows (ε = 1e-14, RCM + sparse Cholesky, no dense inverse
// formed) against the exact solve on the benchmark suite: the island
// potentials must agree to 1e-12 V. By default the check covers the
// twelve suite entries up to c432; set SEMSIM_FULL_XCHECK=1 to run all
// fifteen.
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
			if eps := c.Potentials().Eps(); eps != circuit.DefaultCinvTruncation {
				t.Fatalf("default build truncates at %g, want %g", eps, circuit.DefaultCinvTruncation)
			}
			ni := c.NumIslands()
			ns := make([]int, ni)
			for i := range ns {
				ns[i] = i%3 - 1
			}
			vd := exactPotentials(t, c, ns, SettleTime/2)
			vn := c.IslandPotentials(nil, ns, SettleTime/2)
			for i := range vd {
				if d := math.Abs(vd[i] - vn[i]); d > 1e-12 {
					t.Fatalf("island %d: truncated potential %v vs exact %v (|diff| %g > 1e-12)", i, vn[i], vd[i], d)
				}
			}
		})
	}
}

// TestExactCinvSuite checks the C^-1 every default build stores
// against a test-local exact inverse — every row of the same sparse
// factorization, untruncated — on the suite circuits up to c432. The
// exact rows X must satisfy ‖X·C − I‖∞ ≤ 1e-12 (largest absolute row
// sum). Each stored entry must be the exact entry bit for bit, each
// dropped one must lie below ε·‖row‖∞, and the largest dropped entry
// must be the one the engine's per-event error bound is built from.
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
			ch, err := matrix.FactorCSR(c.CSR(), matrix.RCM(c.CSR()))
			if err != nil {
				t.Fatal(err)
			}
			ni := c.NumIslands()
			isl := c.Islands()
			eps := c.Potentials().Eps()
			exact := make([]float64, ni)
			stored := make([]float64, ni)
			w := make([]float64, ni)
			prod := make([]float64, ni)
			worst, maxDropped := 0.0, 0.0
			for i := 0; i < ni; i++ {
				ch.InverseRow(i, exact, w)
				rmax := 0.0
				for _, v := range exact {
					rmax = math.Max(rmax, math.Abs(v))
				}
				for j := range stored {
					stored[j] = c.Cinv(isl[i], isl[j])
					kept := math.Float64bits(stored[j]) == math.Float64bits(exact[j])
					dropped := stored[j] == 0 && math.Abs(exact[j]) < eps*rmax
					if !kept && !dropped {
						t.Fatalf("C^-1(%d,%d) stored %v, exact %v (row max %g, eps %g)", i, j, stored[j], exact[j], rmax, eps)
					}
					if !kept {
						maxDropped = math.Max(maxDropped, math.Abs(exact[j]))
					}
				}
				c.CSR().MulVec(prod, exact) // row i of X·C, C being symmetric
				prod[i]--
				sum := 0.0
				for _, v := range prod {
					sum += math.Abs(v)
				}
				worst = math.Max(worst, sum)
			}
			if worst > 1e-12 {
				t.Fatalf("‖X·C − I‖∞ = %g > 1e-12", worst)
			}
			if got := c.Potentials().EventErrorBound(1); got != 2*maxDropped {
				t.Fatalf("per-event bound %g for a largest dropped entry %g", got, maxDropped)
			}
			t.Logf("%d islands: ‖X·C − I‖∞ = %.3g, largest dropped entry %.3g", ni, worst, maxDropped)
		})
	}
}
