package master

import (
	"math"
	"testing"

	"semsim/internal/circuit"
	"semsim/internal/solver"
	"semsim/internal/units"
)

const aF = units.Atto

func paperSET(vds, vg float64) (*circuit.Circuit, circuit.SETNodes) {
	return circuit.NewSET(circuit.SETConfig{
		R1: 1e6, C1: aF, R2: 1e6, C2: aF, Cg: 3 * aF,
		Vs: vds / 2, Vd: -vds / 2, Vg: vg,
	})
}

func TestProbabilitiesNormalized(t *testing.T) {
	c, _ := paperSET(0.02, 0.01)
	res, err := Solve(c, 5, -5, 5)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, p := range res.P {
		if p < 0 || math.IsNaN(p) || math.IsInf(p, 0) {
			t.Fatalf("bad probability %g", p)
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("probabilities sum to %g", sum)
	}
}

func TestEquilibriumBoltzmann(t *testing.T) {
	// At zero bias the stationary distribution must be the Gibbs
	// distribution over charging energies: p(n)/p(0) = exp(-dE/kT).
	c, _ := paperSET(0, 0)
	temp := 20.0
	res, err := Solve(c, temp, -4, 4)
	if err != nil {
		t.Fatal(err)
	}
	ec := units.ChargingEnergy(5 * aF)
	kT := units.KB * temp
	i0 := -res.NMin
	// E(n) = Ec * n^2 for the neutral symmetric device.
	for _, n := range []int{1, 2} {
		want := math.Exp(-ec * float64(n*n) / kT)
		got := res.P[i0+n] / res.P[i0]
		if math.Abs(got-want)/want > 1e-6 {
			t.Fatalf("Boltzmann ratio n=%d: got %g want %g", n, got, want)
		}
		gotM := res.P[i0-n] / res.P[i0]
		if math.Abs(gotM-want)/want > 1e-6 {
			t.Fatalf("Boltzmann ratio n=-%d: got %g want %g", n, gotM, want)
		}
	}
	// And the currents vanish identically.
	for j, i := range res.Current {
		if math.Abs(i) > 1e-25 {
			t.Fatalf("equilibrium current through junction %d: %g", j, i)
		}
	}
}

func TestCurrentContinuity(t *testing.T) {
	c, _ := paperSET(0.04, 0.007)
	res, err := Solve(c, 5, -6, 6)
	if err != nil {
		t.Fatal(err)
	}
	// Steady state: the same current must flow through both junctions
	// (junction orientations here are source->island, island->drain).
	if math.Abs(res.Current[0]-res.Current[1]) > 1e-12*math.Abs(res.Current[0]) {
		t.Fatalf("KCL violated: %g vs %g", res.Current[0], res.Current[1])
	}
	if res.Current[0] <= 0 {
		t.Fatalf("positive bias must drive positive current, got %g", res.Current[0])
	}
}

func TestMonteCarloMatchesMasterEquation(t *testing.T) {
	// The central cross-validation: MC time averages against the exact
	// stationary solution, at several operating points.
	cases := []struct{ vds, vg float64 }{
		{0.040, 0.000},
		{0.040, 0.009},
		{0.020, 0.0267}, // near degeneracy: e/(2Cg) = 26.7 mV
		{0.060, 0.005},
	}
	for _, tc := range cases {
		cME, _ := paperSET(tc.vds, tc.vg)
		ref, err := Solve(cME, 5, -8, 8)
		if err != nil {
			t.Fatal(err)
		}
		cMC, nd := paperSET(tc.vds, tc.vg)
		s, err := solver.New(cMC, solver.Options{Temp: 5, Seed: 31})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(20000, 0); err != nil {
			t.Fatal(err)
		}
		s.ResetMeasurement()
		if _, err := s.Run(120000, 0); err != nil {
			t.Fatal(err)
		}
		got := s.JunctionCurrent(nd.JuncDrain)
		want := ref.Current[1]
		if math.IsNaN(want) || math.IsInf(want, 0) || want == 0 {
			t.Fatalf("Vds=%g Vg=%g: master equation returned %g", tc.vds, tc.vg, want)
		}
		if !(math.Abs(got-want)/math.Abs(want) <= 0.05) {
			t.Fatalf("Vds=%g Vg=%g: MC current %g vs ME %g (>5%% off)",
				tc.vds, tc.vg, got, want)
		}
	}
}

func TestWideWindowStaysFinite(t *testing.T) {
	// Regression: intermediate-temperature rate ratios between adjacent
	// charge states reach ~e^60 per step; a 17-state window used to
	// overflow the probability recursion to Inf/NaN. The log-space
	// solver must stay finite and symmetric here.
	c, _ := paperSET(0.04, 0)
	res, err := Solve(c, 5, -8, 8)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for i, p := range res.P {
		if math.IsNaN(p) || math.IsInf(p, 0) || p < 0 {
			t.Fatalf("P[%d] = %g", i, p)
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("sum = %g", sum)
	}
	if math.IsNaN(res.Current[0]) || res.Current[0] <= 0 {
		t.Fatalf("current = %g", res.Current[0])
	}
	// Symmetric device at Vg=0: occupation symmetric about n=0.
	mid := -res.NMin
	for k := 1; k <= 3; k++ {
		a, b := res.P[mid-k], res.P[mid+k]
		den := math.Max(a, b)
		if den > 0 && math.Abs(a-b)/den > 1e-6 {
			t.Fatalf("P not symmetric at +-%d: %g vs %g", k, a, b)
		}
	}
}

func TestBlockadeSuppression(t *testing.T) {
	// Inside the blockade at low T the ME current must be exponentially
	// small compared to above threshold.
	cIn, _ := paperSET(0.016, 0) // half the 32 mV threshold
	rIn, err := Solve(cIn, 1, -4, 4)
	if err != nil {
		t.Fatal(err)
	}
	cOut, _ := paperSET(0.048, 0)
	rOut, err := Solve(cOut, 1, -4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rIn.Current[0]) > 1e-6*math.Abs(rOut.Current[0]) {
		t.Fatalf("blockade current not suppressed: %g vs %g", rIn.Current[0], rOut.Current[0])
	}
}

func TestGatePeriodicityOfCurrent(t *testing.T) {
	period := units.E / (3 * aF)
	c1, _ := paperSET(0.01, 0.004)
	c2, _ := paperSET(0.01, 0.004+period)
	r1, err := Solve(c1, 5, -6, 6)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Solve(c2, 5, -6, 6)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r1.Current[0]-r2.Current[0])/math.Abs(r1.Current[0]) > 1e-6 {
		t.Fatalf("current not e/Cg periodic: %g vs %g", r1.Current[0], r2.Current[0])
	}
}

func TestSuperconductingGapSuppression(t *testing.T) {
	mk := func(gap bool) *circuit.Circuit {
		cfg := circuit.SETConfig{
			R1: 210e3, C1: 110 * aF, R2: 210e3, C2: 110 * aF, Cg: 14 * aF,
			Vs: 1.0e-3, Vd: 0,
		}
		if gap {
			cfg.Super = circuit.SuperParams{GapAt0: units.MeV(0.23), Tc: 1.4}
		}
		c, _ := circuit.NewSET(cfg)
		return c
	}
	rN, err := Solve(mk(false), 0.1, -4, 4)
	if err != nil {
		t.Fatal(err)
	}
	rS, err := Solve(mk(true), 0.1, -4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rS.Current[0]) > 0.02*math.Abs(rN.Current[0]) {
		t.Fatalf("QP master equation misses gap suppression: %g vs normal %g",
			rS.Current[0], rN.Current[0])
	}
}

func TestSolveErrors(t *testing.T) {
	// Two islands are out of scope.
	c := circuit.New()
	g := c.AddNode("g", circuit.External)
	c.SetSource(g, circuit.DC(0))
	i1 := c.AddNode("i1", circuit.Island)
	i2 := c.AddNode("i2", circuit.Island)
	c.AddJunction(g, i1, 1e6, aF)
	c.AddJunction(i1, i2, 1e6, aF)
	c.AddJunction(i2, g, 1e6, aF)
	if err := c.Build(); err != nil {
		t.Fatal(err)
	}
	if _, err := Solve(c, 1, -2, 2); err == nil {
		t.Fatal("accepted two-island circuit")
	}
	cs, _ := paperSET(0.01, 0)
	if _, err := Solve(cs, 1, 3, 3); err == nil {
		t.Fatal("accepted empty charge window")
	}
}
