package solver

import (
	"math"
	"testing"

	"semsim/internal/circuit"
	"semsim/internal/cotunnel"
	"semsim/internal/units"
)

const aF = units.Atto

// paperSET builds the Fig. 1b device: R = 1 MOhm, C = 1 aF junctions,
// Cg = 3 aF, symmetric bias +-Vds/2.
func paperSET(vds, vg float64) (*circuit.Circuit, circuit.SETNodes) {
	return circuit.NewSET(circuit.SETConfig{
		R1: 1e6, C1: aF, R2: 1e6, C2: aF, Cg: 3 * aF,
		Vs: vds / 2, Vd: -vds / 2, Vg: vg,
	})
}

// setCurrent runs a SET and returns the time-averaged drain current.
// A fully blockaded device (possible at very low T where even thermal
// rates underflow) reads as zero current.
func setCurrent(t *testing.T, c *circuit.Circuit, nd circuit.SETNodes, opt Options, events uint64) float64 {
	t.Helper()
	s, err := New(c, opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(events/5, 0); err != nil { // warm-up
		if err == ErrBlockaded {
			return 0
		}
		t.Fatal(err)
	}
	s.ResetMeasurement()
	if _, err := s.Run(events, 0); err != nil {
		if err == ErrBlockaded {
			return 0
		}
		t.Fatal(err)
	}
	return s.JunctionCurrent(nd.JuncDrain)
}

func TestHighTemperatureOhmicSeries(t *testing.T) {
	// With kT >> Ec (big capacitances) the SET is just two resistors in
	// series: I = Vds/(R1+R2). Quantitative MC validation.
	c, nd := circuit.NewSET(circuit.SETConfig{
		R1: 1e6, C1: 100 * aF,
		R2: 1e6, C2: 100 * aF,
		Cg: 300 * aF,
		Vs: 0.05, Vd: -0.05,
	})
	got := setCurrent(t, c, nd, Options{Temp: 300, Seed: 1}, 60000)
	want := 0.1 / 2e6
	if math.Abs(got-want)/want > 0.05 {
		t.Fatalf("ohmic series current: got %g want %g", got, want)
	}
}

func TestCurrentContinuity(t *testing.T) {
	// The average current through both junctions of a SET must agree
	// (charge conservation on the island).
	c, nd := paperSET(0.04, 0)
	s, err := New(c, Options{Temp: 5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	s.ResetMeasurement()
	if _, err := s.Run(40000, 0); err != nil {
		t.Fatal(err)
	}
	i1 := s.JunctionCurrent(nd.JuncSource)
	i2 := s.JunctionCurrent(nd.JuncDrain)
	if math.Abs(i1-i2)/math.Abs(i1) > 0.02 {
		t.Fatalf("junction currents differ: %g vs %g", i1, i2)
	}
	if i1 <= 0 {
		t.Fatalf("positive bias should drive positive source->drain current, got %g", i1)
	}
}

func TestCoulombBlockadeThresholdT0(t *testing.T) {
	// Symmetric SET at T=0: hard blockade below Vds = e/Csum, conduction
	// above. Csum = 5 aF -> threshold 32 mV.
	vth := units.E / (5 * aF)
	c, _ := paperSET(0.6*vth, 0)
	s, err := New(c, Options{Temp: 0, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(10, 0); err != ErrBlockaded {
		t.Fatalf("below threshold at T=0: want ErrBlockaded, got %v", err)
	}
	c2, nd2 := paperSET(1.4*vth, 0)
	got := setCurrent(t, c2, nd2, Options{Temp: 0, Seed: 1}, 20000)
	if got <= 0 {
		t.Fatalf("above threshold at T=0: current %g, want > 0", got)
	}
}

func TestGateLiftsBlockade(t *testing.T) {
	// At the charge degeneracy point Vg = e/(2 Cg) the blockade vanishes
	// and the device conducts at small bias even at T=0.
	vdeg := units.E / (2 * 3 * aF)
	c, nd := paperSET(0.004, vdeg)
	got := setCurrent(t, c, nd, Options{Temp: 0, Seed: 2}, 20000)
	if got <= 0 {
		t.Fatalf("degeneracy point should conduct at T=0, got %g", got)
	}
}

func TestCoulombOscillations(t *testing.T) {
	// At small bias and low T the current is periodic in Vg with period
	// e/Cg: maxima at half-integer charge, minima at integer.
	period := units.E / (3 * aF)
	iMin := 0.0
	iMax := 0.0
	{
		c, nd := paperSET(0.01, 0)
		iMin = setCurrent(t, c, nd, Options{Temp: 5, Seed: 4}, 30000)
	}
	{
		c, nd := paperSET(0.01, period/2)
		iMax = setCurrent(t, c, nd, Options{Temp: 5, Seed: 4}, 30000)
	}
	if iMax < 3*iMin {
		t.Fatalf("no Coulomb oscillation contrast: Imin=%g Imax=%g", iMin, iMax)
	}
	// One full period later the current must return close to the minimum.
	c, nd := paperSET(0.01, period)
	iPer := setCurrent(t, c, nd, Options{Temp: 5, Seed: 4}, 30000)
	if math.Abs(iPer-iMin) > 0.35*(iMax-iMin) {
		t.Fatalf("periodicity broken: I(0)=%g I(e/Cg)=%g Imax=%g", iMin, iPer, iMax)
	}
}

func TestEquilibriumZeroCurrent(t *testing.T) {
	// At zero bias the net current must vanish within statistics.
	c, nd := paperSET(0, 0.02)
	s, err := New(c, Options{Temp: 10, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	s.ResetMeasurement()
	if _, err := s.Run(50000, 0); err != nil {
		t.Fatal(err)
	}
	i := s.JunctionCurrent(nd.JuncDrain)
	// Scale: single-electron shot scale e * Gamma0.
	scale := units.E / (units.E * units.E * 1e6 / (units.KB * 10)) // e * kT/(e^2 R)
	if math.Abs(i) > 0.05*scale {
		t.Fatalf("equilibrium current %g exceeds noise bound %g", i, 0.05*scale)
	}
}

func TestCurrentSignReverses(t *testing.T) {
	c1, nd1 := paperSET(0.04, 0)
	ip := setCurrent(t, c1, nd1, Options{Temp: 5, Seed: 6}, 20000)
	c2, nd2 := paperSET(-0.04, 0)
	im := setCurrent(t, c2, nd2, Options{Temp: 5, Seed: 6}, 20000)
	if ip <= 0 || im >= 0 {
		t.Fatalf("current signs wrong: I(+V)=%g I(-V)=%g", ip, im)
	}
	if math.Abs(ip+im)/ip > 0.1 {
		t.Fatalf("I-V not antisymmetric: %g vs %g", ip, im)
	}
}

func TestAdaptiveMatchesNonAdaptive(t *testing.T) {
	// The headline accuracy claim: adaptive current within a few percent
	// of non-adaptive on the same device.
	c1, nd1 := paperSET(0.04, 0.01)
	iRef := setCurrent(t, c1, nd1, Options{Temp: 5, Seed: 7}, 60000)
	c2, nd2 := paperSET(0.04, 0.01)
	iAd := setCurrent(t, c2, nd2, Options{Temp: 5, Seed: 8, Adaptive: true}, 60000)
	if math.Abs(iAd-iRef)/math.Abs(iRef) > 0.08 {
		t.Fatalf("adaptive current %g deviates from non-adaptive %g", iAd, iRef)
	}
}

func TestAdaptiveReducesRateCalcsOnChain(t *testing.T) {
	// A chain of weakly coupled SET stages: the adaptive solver should
	// do substantially fewer rate calculations per event.
	build := func() *circuit.Circuit {
		c := circuit.New()
		gnd := c.AddNode("gnd", circuit.External)
		c.SetSource(gnd, circuit.DC(0))
		const stages = 12
		for st := 0; st < stages; st++ {
			vs := c.AddNode("", circuit.External)
			vd := c.AddNode("", circuit.External)
			c.SetSource(vs, circuit.DC(0.025))
			c.SetSource(vd, circuit.DC(-0.025))
			isl := c.AddNode("", circuit.Island)
			out := c.AddNode("", circuit.Island) // interconnect node
			c.AddJunction(vs, isl, 1e6, aF)
			c.AddJunction(isl, vd, 1e6, aF)
			c.AddCap(isl, out, 2*aF)
			c.AddCap(out, gnd, 100*aF) // big wire capacitance isolates stages
		}
		if err := c.Build(); err != nil {
			panic(err)
		}
		return c
	}
	run := func(opt Options) Stats {
		s, err := New(build(), opt)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(8000, 0); err != nil {
			t.Fatal(err)
		}
		return s.Stats()
	}
	na := run(Options{Temp: 5, Seed: 9})
	ad := run(Options{Temp: 5, Seed: 9, Adaptive: true})
	perEvNA := float64(na.RateCalcs) / float64(na.Events)
	perEvAD := float64(ad.RateCalcs) / float64(ad.Events)
	if perEvAD > perEvNA/3 {
		t.Fatalf("adaptive rate calcs/event = %.1f, non-adaptive = %.1f: expected >3x reduction",
			perEvAD, perEvNA)
	}
}

func TestCotunnelingCarriesBlockadeCurrent(t *testing.T) {
	// Inside the blockade at low T, first-order current is exponentially
	// suppressed but cotunneling flows.
	vth := units.E / (5 * aF)
	c1, nd1 := paperSET(0.5*vth, 0)
	iSeq := setCurrent(t, c1, nd1, Options{Temp: 0.5, Seed: 10}, 4000)
	c2, nd2 := paperSET(0.5*vth, 0)
	iCot := setCurrent(t, c2, nd2, Options{Temp: 0.5, Seed: 10, Cotunneling: true}, 4000)
	if iCot < 5*math.Abs(iSeq) {
		t.Fatalf("cotunneling current %g not dominant over sequential %g in blockade", iCot, iSeq)
	}
}

// TestCotunnelTablesMatchExact is the cotunneling counterpart of
// TestRateTablesMatchExactStatistically: on a SET biased below its
// threshold, where most events cotunnel, the same seed through exact
// and tabulated rates runs the same event sequence, and the drain
// currents agree far inside the tables' 1e-6 rate bound.
func TestCotunnelTablesMatchExact(t *testing.T) {
	run := func(tables bool) (*Sim, circuit.SETNodes) {
		c, nd := paperSET(0.03, 0)
		s, err := New(c, Options{Temp: 5, Seed: 6, Cotunneling: true, RateTables: tables})
		if err != nil {
			t.Fatal(err)
		}
		if got := s.cotFlat != nil; got != tables {
			t.Fatalf("RateTables %v: tabulated cotunneling %v", tables, got)
		}
		if _, err := s.Run(5000, 0); err != nil {
			t.Fatal(err)
		}
		return s, nd
	}
	exact, nd := run(false)
	tab, _ := run(true)
	if exact.stats.Events != tab.stats.Events || exact.stats.CotunnelEvents != tab.stats.CotunnelEvents {
		t.Fatalf("event sequences diverged: exact %d events (%d cotunnel), tables %d (%d)",
			exact.stats.Events, exact.stats.CotunnelEvents, tab.stats.Events, tab.stats.CotunnelEvents)
	}
	if exact.stats.CotunnelEvents < exact.stats.Events/2 {
		t.Fatalf("only %d of %d events cotunneled; the bias no longer exercises the kernel",
			exact.stats.CotunnelEvents, exact.stats.Events)
	}
	ie, it := exact.JunctionCurrent(nd.JuncDrain), tab.JunctionCurrent(nd.JuncDrain)
	if math.Abs(ie-it) > 1e-6*math.Abs(ie) {
		t.Fatalf("drain current: exact %g vs tables %g", ie, it)
	}
}

// TestCotunnelTablesCoexistenceRule checks the solver's tabulated
// cotunneling rates channel by channel against cotunnel.Rate: a channel
// whose intermediate state is not blockaded (E1 <= 0 or E2 <= 0) stages
// exactly zero, above the tabulated band the rate truncates to zero,
// and every other rate is within the tables' 1e-6 bound. Just below
// threshold, the few thermally activated sequential hops change the
// island charge, and with it which channels are blockaded.
func TestCotunnelTablesCoexistenceRule(t *testing.T) {
	c, _ := paperSET(0.03, 0)
	s, err := New(c, Options{Temp: 5, Seed: 6, Cotunneling: true, RateTables: true})
	if err != nil {
		t.Fatal(err)
	}
	kT := units.KB * s.opt.Temp
	forbidden, inBand := 0, 0
	for step := 0; step < 400; step++ {
		if _, err := s.Step(); err != nil {
			t.Fatal(err)
		}
		for i, ci := range s.secChans {
			vSrc := pick(s.v, s.extV, s.secSrcIsl[i], s.secSrcExt[i])
			vMid := pick(s.v, s.extV, s.secMidIsl[i], s.secMidExt[i])
			vDst := pick(s.v, s.extV, s.secDstIsl[i], s.secDstExt[i])
			dw := -units.E*(vDst-vSrc) + s.secSelfSD[i]
			e1 := -units.E*(vMid-vSrc) + s.secSelfSM[i]
			e2 := -units.E*(vDst-vMid) + s.secSelfMD[i]
			exact := cotunnel.Rate(dw, e1, e2, s.secR1[i], s.secR2[i], s.opt.Temp)
			got := s.fen.vals[ci]
			switch {
			case e1 <= 0 || e2 <= 0:
				forbidden++
				if got != 0 || exact != 0 {
					t.Fatalf("step %d channel %d: E1 %g, E2 %g: tables %g, exact %g, want 0", step, ci, e1, e2, got, exact)
				}
			case dw/kT > cotunnel.KernelXMax:
				if got != 0 {
					t.Fatalf("step %d channel %d: x %g above the band: tables %g, want 0", step, ci, dw/kT, got)
				}
			default:
				inBand++
				if math.Abs(got-exact) > 1e-6*exact {
					t.Fatalf("step %d channel %d: tables %g vs exact %g", step, ci, got, exact)
				}
			}
		}
	}
	if forbidden == 0 || inBand == 0 {
		t.Fatalf("%d forbidden and %d in-band channel rates seen: the bias no longer exercises both", forbidden, inBand)
	}
}

// TestRateTablesZeroTemperatureExact: the kernels are functions of
// dW/kT, so at T = 0 RateTables must leave the exact T = 0 kernels in
// charge, bit for bit the run without tables.
func TestRateTablesZeroTemperatureExact(t *testing.T) {
	run := func(tables bool) *Sim {
		s, err := New(biasedChain(t, 3, 0.2, nil), Options{Seed: 7, Cotunneling: true, RateTables: tables})
		if err != nil {
			t.Fatal(err)
		}
		if s.kern != kernExactT0 || s.flatK != nil || s.cotFlat != nil {
			t.Fatalf("RateTables %v at T = 0: kernel %d, tables %v/%v", tables, s.kern, s.flatK != nil, s.cotFlat != nil)
		}
		if _, err := s.Run(2000, 0); err != nil {
			t.Fatal(err)
		}
		return s
	}
	a, b := run(false), run(true)
	if a.stats != b.stats || a.t != b.t {
		t.Fatalf("T = 0 runs diverged: %+v at %g vs %+v at %g", a.stats, a.t, b.stats, b.t)
	}
	for j := range a.charge {
		if a.charge[j] != b.charge[j] {
			t.Fatalf("junction %d charge: %g vs %g", j, a.charge[j], b.charge[j])
		}
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (float64, uint64) {
		c, nd := paperSET(0.04, 0)
		s, err := New(c, Options{Temp: 5, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(5000, 0); err != nil {
			t.Fatal(err)
		}
		return s.JunctionCurrent(nd.JuncDrain), s.Stats().Events
	}
	i1, e1 := run()
	i2, e2 := run()
	if i1 != i2 || e1 != e2 {
		t.Fatalf("identical seeds diverged: (%g,%d) vs (%g,%d)", i1, e1, i2, e2)
	}
}

func TestSeedsProduceDifferentPaths(t *testing.T) {
	run := func(seed uint64) float64 {
		c, _ := paperSET(0.04, 0)
		s, err := New(c, Options{Temp: 5, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(200, 0); err != nil {
			t.Fatal(err)
		}
		return s.Time()
	}
	if run(1) == run(2) {
		t.Fatal("different seeds gave identical trajectories")
	}
}

func TestRunByTime(t *testing.T) {
	c, _ := paperSET(0.04, 0)
	s, err := New(c, Options{Temp: 5, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	const horizon = 1e-7
	if _, err := s.Run(0, horizon); err != nil {
		t.Fatal(err)
	}
	if s.Time() < horizon {
		t.Fatalf("run stopped early at t=%g", s.Time())
	}
	if s.Time() > horizon*1.2 {
		t.Fatalf("run badly overshot the horizon: t=%g", s.Time())
	}
}

func TestPWLDrivenGate(t *testing.T) {
	// Drive the gate with a step; the device must switch from blockaded
	// (essentially zero current) to conducting within the run.
	c := circuit.New()
	src := c.AddNode("s", circuit.External)
	drn := c.AddNode("d", circuit.External)
	gate := c.AddNode("g", circuit.External)
	isl := c.AddNode("i", circuit.Island)
	c.SetSource(src, circuit.DC(0.005))
	c.SetSource(drn, circuit.DC(-0.005))
	vdeg := units.E / (2 * 3 * aF)
	c.SetSource(gate, circuit.PWL{T: []float64{0, 50e-9, 51e-9}, Volt: []float64{0, 0, vdeg}})
	j1 := c.AddJunction(src, isl, 1e6, aF)
	_ = j1
	j2 := c.AddJunction(isl, drn, 1e6, aF)
	c.AddCap(gate, isl, 3*aF)
	if err := c.Build(); err != nil {
		t.Fatal(err)
	}
	s, err := New(c, Options{Temp: 1, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	// Phase 1: blockaded region, up to the step.
	if _, err := s.Run(0, 45e-9); err != nil {
		t.Fatal(err)
	}
	evBefore := s.Stats().Events
	// Phase 2: after the gate step the device conducts.
	if _, err := s.Run(0, 300e-9); err != nil {
		t.Fatal(err)
	}
	evAfter := s.Stats().Events - evBefore
	if evAfter < 10*max(evBefore, 1) {
		t.Fatalf("gate step did not open the device: %d events before, %d after", evBefore, evAfter)
	}
	i := s.JunctionCurrent(j2)
	if i <= 0 {
		t.Fatalf("no current after gate opened: %g", i)
	}
}

func max(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

func TestSineDrivenGate(t *testing.T) {
	// A sinusoidal gate swings the SET through its degeneracy point
	// twice per cycle: the solver must cap its steps below the sine
	// period (no event may integrate across a rate change) and the
	// device must conduct during the open phases.
	c := circuit.New()
	src := c.AddNode("s", circuit.External)
	drn := c.AddNode("d", circuit.External)
	gate := c.AddNode("g", circuit.External)
	isl := c.AddNode("i", circuit.Island)
	c.SetSource(src, circuit.DC(0.004))
	c.SetSource(drn, circuit.DC(-0.004))
	const freq = 1e8
	vdeg := units.E / (2 * 3 * aF)
	c.SetSource(gate, circuit.Sine{Offset: vdeg / 2, Amp: vdeg, Freq: freq})
	c.AddJunction(src, isl, 1e6, aF)
	j2 := c.AddJunction(isl, drn, 1e6, aF)
	c.AddCap(gate, isl, 3*aF)
	if err := c.Build(); err != nil {
		t.Fatal(err)
	}
	s, err := New(c, Options{Temp: 1, Seed: 15})
	if err != nil {
		t.Fatal(err)
	}
	const horizon = 20 / freq // twenty full cycles
	if _, err := s.Run(0, horizon); err != nil && err != ErrBlockaded {
		t.Fatal(err)
	}
	st := s.Stats()
	// The sine cap forces at least period/64 subdivisions even when the
	// device is quiet: many steps are capped, not events.
	if st.Steps < st.Events+20*32 {
		t.Fatalf("sine capping missing: %d steps for %d events", st.Steps, st.Events)
	}
	if st.Events < 100 {
		t.Fatalf("gate modulation produced only %d events", st.Events)
	}
	if i := s.JunctionCurrent(j2); i <= 0 {
		t.Fatalf("biased, gate-modulated SET should conduct on average: %g", i)
	}
	if s.Time() < horizon {
		t.Fatalf("run stopped early at %g", s.Time())
	}
}

func TestProbes(t *testing.T) {
	c, nd := paperSET(0.04, 0)
	s, err := New(c, Options{Temp: 5, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	s.AddProbe(nd.Island)
	if _, err := s.Run(500, 0); err != nil {
		t.Fatal(err)
	}
	w := s.Waveform(nd.Island)
	if len(w) < 100 {
		t.Fatalf("probe recorded only %d samples", len(w))
	}
	for i := 1; i < len(w); i++ {
		if w[i].T < w[i-1].T {
			t.Fatal("waveform timestamps not monotone")
		}
	}
}

func TestElectronCountTracksEvents(t *testing.T) {
	c, nd := paperSET(0.08, 0)
	s, err := New(c, Options{Temp: 5, Seed: 14})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(1000, 0); err != nil {
		t.Fatal(err)
	}
	// The island occupation must stay physical (bounded: strong bias can
	// hold at most a few extra electrons for these capacitances).
	if n := s.ElectronCount(nd.Island); n < -5 || n > 5 {
		t.Fatalf("unphysical island occupation %d", n)
	}
}

func TestNewValidation(t *testing.T) {
	// No junctions.
	c := circuit.New()
	g := c.AddNode("g", circuit.External)
	c.SetSource(g, circuit.DC(0))
	i := c.AddNode("i", circuit.Island)
	c.AddCap(g, i, aF)
	if err := c.Build(); err != nil {
		t.Fatal(err)
	}
	if _, err := New(c, Options{Temp: 1}); err == nil {
		t.Fatal("accepted circuit without junctions")
	}
	// Superconducting at T = 0.
	sc, _ := circuit.NewSET(circuit.SETConfig{
		R1: 1e6, C1: aF, R2: 1e6, C2: aF, Cg: 3 * aF,
		Super: circuit.SuperParams{GapAt0: units.MeV(0.2), Tc: 1.2},
	})
	if _, err := New(sc, Options{Temp: 0}); err == nil {
		t.Fatal("accepted superconducting circuit at T=0")
	}
	// Superconducting + cotunneling unsupported.
	if _, err := New(sc, Options{Temp: 0.05, Cotunneling: true}); err == nil {
		t.Fatal("accepted superconducting cotunneling")
	}
}

// TestNewUsesBuiltEngine: the circuit's build picks the potential
// engine. The deprecated CinvTruncation option may only repeat the
// build's threshold (1e-14 for a default build), and the deprecated
// SparsePotentials is ignored.
func TestNewUsesBuiltEngine(t *testing.T) {
	def, _ := setAt(0.02, -0.02, 0, 0)
	trunc, _ := setAt(0.02, -0.02, 0, 1e-6)
	for _, tc := range []struct {
		name string
		c    *circuit.Circuit
		opt  Options
		ok   bool
	}{
		{"default", def, Options{Temp: 5}, true},
		{"default/sparse-ignored", def, Options{Temp: 5, SparsePotentials: true}, true},
		{"default/same-eps", def, Options{Temp: 5, CinvTruncation: circuit.DefaultCinvTruncation}, true},
		{"default/foreign-eps", def, Options{Temp: 5, CinvTruncation: 1e-6}, false},
		{"truncated", trunc, Options{Temp: 5}, true},
		{"truncated/same-eps", trunc, Options{Temp: 5, CinvTruncation: 1e-6}, true},
		{"truncated/foreign-eps", trunc, Options{Temp: 5, CinvTruncation: 1e-3}, false},
	} {
		s, err := New(tc.c, tc.opt)
		if (err == nil) != tc.ok {
			t.Fatalf("%s: New error %v, want ok=%v", tc.name, err, tc.ok)
		}
		if err == nil {
			if s.pe != tc.c.Potentials() {
				t.Fatalf("%s: solver does not run the circuit's engine", tc.name)
			}
		}
	}

	unbuilt := circuit.New()
	src := unbuilt.AddNode("src", circuit.External)
	isl := unbuilt.AddNode("isl", circuit.Island)
	unbuilt.SetSource(src, circuit.DC(0.01))
	unbuilt.AddJunction(src, isl, 1e6, aF)
	if _, err := New(unbuilt, Options{Temp: 5}); err == nil {
		t.Fatal("accepted an unbuilt circuit")
	}
}

// TestNegativeFrequencySineIsCapped: Sine{Freq: -f, Phase: π} is the
// waveform of Sine{Freq: f}, so it must get the same step cap and as
// many capped steps. Without a cap the solver never stopped to fold the
// gate's motion into the island potential.
func TestNegativeFrequencySineIsCapped(t *testing.T) {
	run := func(gate circuit.Sine) (maxStep float64, capped uint64) {
		c := circuit.New()
		src := c.AddNode("s", circuit.External)
		drn := c.AddNode("d", circuit.External)
		g := c.AddNode("g", circuit.External)
		isl := c.AddNode("i", circuit.Island)
		c.SetSource(src, circuit.DC(0.02))
		c.SetSource(drn, circuit.DC(-0.02))
		c.SetSource(g, gate)
		c.AddJunction(src, isl, 1e6, aF)
		c.AddJunction(isl, drn, 1e6, aF)
		c.AddCap(g, isl, 3*aF)
		if err := c.Build(); err != nil {
			t.Fatal(err)
		}
		s, err := New(c, Options{Temp: 5, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(0, 20e-9); err != nil {
			t.Fatal(err)
		}
		st := s.Stats()
		return s.maxStep, st.Steps - st.Events
	}
	wantStep, wantCapped := run(circuit.Sine{Amp: 0.02, Freq: 1e9})
	gotStep, gotCapped := run(circuit.Sine{Amp: 0.02, Freq: -1e9, Phase: math.Pi})
	if wantStep <= 0 || gotStep != wantStep {
		t.Errorf("step cap: Freq -1e9 got %g, Freq 1e9 got %g", gotStep, wantStep)
	}
	if gotCapped != wantCapped {
		t.Errorf("capped steps: Freq -1e9 got %d, Freq 1e9 got %d", gotCapped, wantCapped)
	}
}
