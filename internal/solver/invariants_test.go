package solver

import (
	"math"
	"testing"
	"testing/quick"

	"semsim/internal/circuit"
	"semsim/internal/rng"
	"semsim/internal/units"
)

// TestAdaptiveZeroAlphaMatchesNonAdaptive: with a vanishing threshold
// every tested junction recalculates and spills to its neighbours, so
// on a junction-connected circuit the adaptive solver degenerates to
// the non-adaptive one — including identical RNG consumption, hence an
// identical event trajectory.
func TestAdaptiveZeroAlphaMatchesNonAdaptive(t *testing.T) {
	build := func() *circuit.Circuit {
		c := circuit.New()
		l0 := c.AddNode("l0", circuit.External)
		l1 := c.AddNode("l1", circuit.External)
		c.SetSource(l0, circuit.DC(0.03))
		c.SetSource(l1, circuit.DC(-0.03))
		prev := l0
		for i := 0; i < 4; i++ {
			isl := c.AddNode("", circuit.Island)
			c.AddJunction(prev, isl, 1e6, 10*aF) // Ec ~ 8 mV: conducting at this bias
			prev = isl
		}
		c.AddJunction(prev, l1, 1e6, 10*aF)
		if err := c.Build(); err != nil {
			t.Fatal(err)
		}
		return c
	}
	// With Alpha -> 0 the adaptive cache must never hold a stale rate:
	// after any number of events, every channel rate equals what a full
	// recomputation produces.
	s, err := New(build(), Options{Temp: 5, Seed: 99, Adaptive: true, Alpha: 1e-300})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(2000, 0); err != nil {
		t.Fatal(err)
	}
	before := append([]float64(nil), s.fen.vals...)
	s.fullRefresh()
	for i, want := range s.fen.vals {
		got := before[i]
		den := math.Abs(want)
		if den == 0 {
			den = 1
		}
		if math.Abs(got-want)/den > 1e-9 {
			t.Fatalf("channel %d stale at alpha=0: cached %g, fresh %g", i, got, want)
		}
	}

	// And with a normal threshold on a stage-isolated circuit (weakly
	// coupled SET stages behind big wire capacitors), staleness must
	// actually exist — the approximation is doing something — but stay
	// bounded.
	buildStages := func() *circuit.Circuit {
		c := circuit.New()
		gnd := c.AddNode("gnd", circuit.External)
		c.SetSource(gnd, circuit.DC(0))
		prevWire := -1
		for st := 0; st < 8; st++ {
			vs := c.AddNode("", circuit.External)
			vd := c.AddNode("", circuit.External)
			c.SetSource(vs, circuit.DC(0.025))
			c.SetSource(vd, circuit.DC(-0.025))
			isl := c.AddNode("", circuit.Island)
			wire := c.AddNode("", circuit.Island)
			c.AddJunction(vs, isl, 1e6, aF)
			c.AddJunction(isl, vd, 1e6, aF)
			c.AddCap(isl, wire, 2*aF)
			c.AddCap(wire, gnd, 100*aF)
			if prevWire >= 0 {
				// Fig. 4-style chaining: the previous stage's wire gates
				// this stage's island — weak but nonzero coupling, so
				// distant rates drift slightly and go stale.
				c.AddCap(prevWire, isl, 2*aF)
			}
			prevWire = wire
		}
		if err := c.Build(); err != nil {
			t.Fatal(err)
		}
		return c
	}
	s2, err := New(buildStages(), Options{Temp: 5, Seed: 99, Adaptive: true, Alpha: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Run(2000, 0); err != nil {
		t.Fatal(err)
	}
	before2 := append([]float64(nil), s2.fen.vals...)
	s2.fullRefresh()
	maxRate := 0.0
	for _, v := range s2.fen.vals {
		if v > maxRate {
			maxRate = v
		}
	}
	anyStale := false
	maxRelSignificant := 0.0
	for i, want := range s2.fen.vals {
		if before2[i] != want {
			anyStale = true
		}
		// Exponentially suppressed channels may be off by large factors
		// while contributing nothing to the dynamics; the alpha bound
		// only protects the channels that actually fire.
		if want < 1e-3*maxRate {
			continue
		}
		if rel := math.Abs(before2[i]-want) / want; rel > maxRelSignificant {
			maxRelSignificant = rel
		}
	}
	if !anyStale {
		t.Fatal("alpha=0.05 produced no staleness at all (adaptive path inert?)")
	}
	if maxRelSignificant > 0.5 {
		t.Fatalf("alpha=0.05 staleness on significant channels out of control: %g", maxRelSignificant)
	}
}

// TestChargeConservation: electrons are only created or destroyed at
// external leads; with every junction internal, the total electron
// number on the islands is invariant.
func TestChargeConservation(t *testing.T) {
	c := circuit.New()
	gnd := c.AddNode("gnd", circuit.External)
	c.SetSource(gnd, circuit.DC(0))
	gate := c.AddNode("gate", circuit.External)
	// Strong gate bias drives internal rearrangement.
	c.SetSource(gate, circuit.DC(0.05))
	var isls []int
	for i := 0; i < 3; i++ {
		isls = append(isls, c.AddNode("", circuit.Island))
	}
	// A ring of junctions between the islands only.
	c.AddJunction(isls[0], isls[1], 1e6, aF)
	c.AddJunction(isls[1], isls[2], 1e6, aF)
	c.AddJunction(isls[2], isls[0], 1e6, aF)
	// Capacitive anchors (no tunneling to the leads).
	c.AddCap(isls[0], gnd, 2*aF)
	c.AddCap(isls[1], gnd, 2*aF)
	c.AddCap(isls[2], gate, 2*aF)
	if err := c.Build(); err != nil {
		t.Fatal(err)
	}
	s, err := New(c, Options{Temp: 20, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 2000; step++ {
		if _, err := s.Step(); err != nil {
			t.Fatal(err)
		}
		total := 0
		for _, isl := range isls {
			total += s.ElectronCount(isl)
		}
		if total != 0 {
			t.Fatalf("step %d: total island electrons %d, want 0", step, total)
		}
	}
}

// TestRunNeverOvershootsHorizon (regression): the last Monte Carlo
// waiting interval used to overshoot the requested stop time by however
// long the final random wait was, corrupting measurement windows.
func TestRunNeverOvershootsHorizon(t *testing.T) {
	f := func(seed uint64) bool {
		c, _ := circuit.NewSET(circuit.SETConfig{
			R1: 1e6, C1: aF, R2: 1e6, C2: aF, Cg: 3 * aF,
			Vs: 0.002, Vd: -0.002, // deep blockade: huge waiting times
		})
		s, err := New(c, Options{Temp: 1, Seed: seed})
		if err != nil {
			return false
		}
		const horizon = 1e-7
		if _, err := s.Run(0, horizon); err != nil && err != ErrBlockaded {
			return false
		}
		return s.Time() <= horizon*(1+1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestEquilibriumOccupationMatchesBoltzmann: with no bias the island
// charge histogram sampled over time must follow exp(-E(n)/kT).
func TestEquilibriumOccupationMatchesBoltzmann(t *testing.T) {
	c, nd := circuit.NewSET(circuit.SETConfig{
		R1: 1e6, C1: aF, R2: 1e6, C2: aF, Cg: 3 * aF,
		Vs: 0, Vd: 0, Vg: 0,
	})
	temp := 40.0 // hot enough that n = +-1 states are well populated
	s, err := New(c, Options{Temp: temp, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	// Time-weighted histogram of the island occupation.
	occ := map[int]float64{}
	last := s.Time()
	for i := 0; i < 120000; i++ {
		n := s.ElectronCount(nd.Island)
		if _, err := s.Step(); err != nil {
			t.Fatal(err)
		}
		occ[n] += s.Time() - last
		last = s.Time()
	}
	ec := units.ChargingEnergy(5 * aF)
	kT := units.KB * temp
	want := math.Exp(-ec / kT) // p(+-1)/p(0)
	for _, n := range []int{1, -1} {
		got := occ[n] / occ[0]
		if math.Abs(got-want)/want > 0.08 {
			t.Fatalf("p(%d)/p(0) = %.4f, Boltzmann %.4f", n, got, want)
		}
	}
}

// TestFenwickMatchesLinearScan cross-validates the event-selection tree
// against a direct prefix-sum scan under random updates.
func TestFenwickMatchesLinearScan(t *testing.T) {
	r := rng.New(31)
	const n = 37
	f := newFenwick(n)
	vals := make([]float64, n)
	for iter := 0; iter < 5000; iter++ {
		i := r.Intn(n)
		v := r.Float64() * 1e9
		if r.Intn(5) == 0 {
			v = 0
		}
		put(f, i, v)
		vals[i] = v
		total := 0.0
		for _, x := range vals {
			total += x
		}
		if total == 0 {
			continue
		}
		if math.Abs(f.total()-total) > 1e-6*total {
			t.Fatalf("totals diverged: %g vs %g", f.total(), total)
		}
		u := r.Float64() * total
		// Linear-scan reference.
		wantIdx := n - 1
		acc := 0.0
		for i, x := range vals {
			acc += x
			if u < acc {
				wantIdx = i
				break
			}
		}
		got := f.find(u)
		if got != wantIdx {
			// FP ordering differences are acceptable only at zero-width
			// boundaries; both picks must carry positive rate and the
			// cumulative sums must agree at the boundary.
			if vals[got] <= 0 {
				t.Fatalf("find(%g) chose zero-rate channel %d (want %d)", u, got, wantIdx)
			}
			// Tolerate off-by-boundary mismatch when u is within FP noise
			// of the cumulative edge.
			edge := 0.0
			for i := 0; i <= wantIdx; i++ {
				edge += vals[i]
			}
			if math.Abs(u-edge) > 1e-6*total && math.Abs(u-(edge-vals[wantIdx])) > 1e-6*total {
				t.Fatalf("find(%g) = %d, want %d", u, got, wantIdx)
			}
		}
	}
}
