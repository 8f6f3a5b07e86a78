package solver

import (
	"encoding/json"
	"math"
	"testing"

	"semsim/internal/circuit"
	"semsim/internal/units"
)

// resetSET builds the paper SET at the given bias point.
func resetSET(vs, vd, vg float64, sup circuit.SuperParams) (*circuit.Circuit, circuit.SETNodes) {
	return circuit.NewSET(circuit.SETConfig{
		R1: 1e6, C1: aF, R2: 1e6, C2: aF, Cg: 3 * aF,
		Vs: vs, Vd: vd, Vg: vg, Super: sup,
	})
}

// setAt builds the paper SET of resetSET (normal state) with the C^-1
// truncation threshold eps.
func setAt(vs, vd, vg, eps float64) (*circuit.Circuit, circuit.SETNodes) {
	c := circuit.New()
	var nd circuit.SETNodes
	nd.Source = c.AddNode("source", circuit.External)
	nd.Drain = c.AddNode("drain", circuit.External)
	nd.Gate = c.AddNode("gate", circuit.External)
	nd.Island = c.AddNode("island", circuit.Island)
	c.SetSource(nd.Source, circuit.DC(vs))
	c.SetSource(nd.Drain, circuit.DC(vd))
	c.SetSource(nd.Gate, circuit.DC(vg))
	nd.JuncSource = c.AddJunction(nd.Source, nd.Island, 1e6, aF)
	nd.JuncDrain = c.AddJunction(nd.Island, nd.Drain, 1e6, aF)
	c.AddCap(nd.Gate, nd.Island, 3*aF)
	nd.Gate2 = -1
	if err := c.BuildWith(circuit.BuildOptions{CinvTruncation: eps}); err != nil {
		panic(err)
	}
	return c, nd
}

// fingerprint serializes the full dynamic state of a simulation — time,
// electrons, RNG stream position, measurement counters, stats and
// waveforms — so two trajectories can be compared bit-for-bit.
func fingerprint(t *testing.T, s *Sim) string {
	t.Helper()
	cp, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(cp)
	if err != nil {
		t.Fatal(err)
	}
	return string(blob)
}

// TestResetMatchesFresh is the load-bearing guarantee of the amortized
// sweep engine: a reused, Reset simulation must follow bit-for-bit the
// trajectory of a freshly compiled and constructed one at the same seed
// and bias point — across solver configurations, across consecutive
// points (no state leakage).
func TestResetMatchesFresh(t *testing.T) {
	points := []struct{ vs, vd, vg float64 }{
		{0.02, -0.02, 0.005},
		{0.013, -0.007, -0.011},
		{0.001, -0.024, 0.019},
	}
	cases := map[string]struct {
		opt Options
		eps float64 // C^-1 truncation threshold of the build
	}{
		"plain":       {opt: Options{Temp: 5}},
		"adaptive":    {opt: Options{Temp: 5, Adaptive: true}},
		"rate-tables": {opt: Options{Temp: 5, RateTables: true}},
		"cinv-eps":    {opt: Options{Temp: 5}, eps: 1e-6},
		"t0":          {opt: Options{Temp: 0}},
	}
	const events = 1500
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			// One long-lived session Sim, compiled at a bias point no
			// sweep point uses, reused across all points via Reset.
			base, nd := setAt(0.042, 0.001, -0.03, tc.eps)
			opt := tc.opt
			opt.Seed = 1234
			sess, err := New(base, opt)
			if err != nil {
				t.Fatal(err)
			}
			for i, p := range points {
				seed := uint64(9000 + 17*i)
				fresh, _ := func() (*Sim, circuit.SETNodes) {
					c, n := setAt(p.vs, p.vd, p.vg, tc.eps)
					o := opt
					o.Seed = seed
					s, err := New(c, o)
					if err != nil {
						t.Fatal(err)
					}
					return s, n
				}()
				if _, err := fresh.Run(events, 0); err != nil {
					t.Fatal(err)
				}
				err := sess.Reset(seed, map[int]float64{
					nd.Source: p.vs, nd.Drain: p.vd, nd.Gate: p.vg,
				})
				if err != nil {
					t.Fatal(err)
				}
				if _, err := sess.Run(events, 0); err != nil {
					t.Fatal(err)
				}
				if got, want := fingerprint(t, sess), fingerprint(t, fresh); got != want {
					t.Fatalf("point %d: reused-session trajectory diverged from fresh build\nreused: %s\nfresh:  %s", i, got, want)
				}
				if sess.JunctionCurrent(0) != fresh.JunctionCurrent(0) {
					t.Fatalf("point %d: currents differ: %g vs %g", i, sess.JunctionCurrent(0), fresh.JunctionCurrent(0))
				}
			}
		})
	}
}

// A superconducting session must rebuild its quasi-particle table
// voltage range on Reset: the table bucket depends on the source
// magnitudes, and a reused session biased far from its compile point
// must still match a fresh build bit-for-bit.
func TestResetMatchesFreshSuper(t *testing.T) {
	sup := circuit.SuperParams{GapAt0: units.MeV(0.23), Tc: 1.4}
	base, nd := resetSET(0.0001, -0.0001, 0, sup)
	opt := Options{Temp: 0.5, Seed: 5}
	sess, err := New(base, opt)
	if err != nil {
		t.Fatal(err)
	}
	// A bias point large enough to land in a different vmax bucket than
	// the compile point's.
	const vs, vd, vg = 0.0035, -0.0035, 0.0008
	fresh, _ := func() (*Sim, circuit.SETNodes) {
		c, n := resetSET(vs, vd, vg, sup)
		s, err := New(c, Options{Temp: 0.5, Seed: 77})
		if err != nil {
			t.Fatal(err)
		}
		return s, n
	}()
	if _, err := fresh.Run(800, 0); err != nil {
		t.Fatal(err)
	}
	if err := sess.Reset(77, map[int]float64{nd.Source: vs, nd.Drain: vd, nd.Gate: vg}); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Run(800, 0); err != nil {
		t.Fatal(err)
	}
	if got, want := fingerprint(t, sess), fingerprint(t, fresh); got != want {
		t.Fatalf("superconducting reused-session trajectory diverged from fresh build\nreused: %s\nfresh:  %s", got, want)
	}
}

// A checkpoint taken from a fresh build must restore into a reused
// session (after Reset installed the same bias point) and land on the
// identical continuation — the property that lets the jobs engine
// resume interrupted tasks through its per-worker session cache.
func TestResetThenRestoreMatchesFresh(t *testing.T) {
	const vs, vd, vg = 0.018, -0.021, 0.004
	mkFresh := func() (*Sim, circuit.SETNodes) {
		c, n := resetSET(vs, vd, vg, circuit.SuperParams{})
		s, err := New(c, Options{Temp: 5, Seed: 31, Adaptive: true})
		if err != nil {
			t.Fatal(err)
		}
		return s, n
	}
	ref, _ := mkFresh()
	if _, err := ref.Run(3*1024, 0); err != nil {
		t.Fatal(err)
	}

	// Interrupted fresh run: snapshot at a refresh boundary.
	a, _ := mkFresh()
	if _, err := a.Run(1024, 0); err != nil {
		t.Fatal(err)
	}
	cp, err := a.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}

	// Resume inside a reused session compiled at a different bias.
	base, nd := resetSET(0.05, -0.001, 0.02, circuit.SuperParams{})
	sess, err := New(base, Options{Temp: 5, Seed: 999, Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Run(500, 0); err != nil { // dirty the session first
		t.Fatal(err)
	}
	if err := sess.Reset(31, map[int]float64{nd.Source: vs, nd.Drain: vd, nd.Gate: vg}); err != nil {
		t.Fatal(err)
	}
	if err := sess.Restore(cp); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Run(2*1024, 0); err != nil {
		t.Fatal(err)
	}
	if got, want := fingerprint(t, sess), fingerprint(t, ref); got != want {
		t.Fatalf("restore-into-reused-session diverged from uninterrupted fresh run\nreused: %s\nfresh:  %s", got, want)
	}
}

// TestTreeAfterStoppedRunMatchesFresh: a Run returns right after an
// event's update, so that update is still staged. A Reset, or a
// Restore, then refreshes everything; it must leave the selection tree
// exactly as a fresh build leaves it, with the stale batch dropped
// rather than appended to, so the staged arrays keep their
// preallocated capacity.
func TestTreeAfterStoppedRunMatchesFresh(t *testing.T) {
	for _, opt := range []Options{
		{Temp: 5, Seed: 31, Cotunneling: true},
		{Temp: 5, Seed: 31, Adaptive: true, RateTables: true},
	} {
		mk := func() *Sim {
			c, _ := resetSET(0.018, -0.021, 0.004, circuit.SuperParams{})
			s, err := New(c, opt)
			if err != nil {
				t.Fatal(err)
			}
			return s
		}
		stop := func(s *Sim) {
			t.Helper()
			if _, err := s.Run(100, 0); err != nil {
				t.Fatal(err)
			}
			if s.fen.pendingCount() == 0 {
				t.Fatal("the run stopped with nothing staged")
			}
		}
		requireFresh := func(what string, got, want *fenwick) {
			t.Helper()
			if got.pendingCount() != 0 || cap(got.pendIdx) != cap(want.pendIdx) || cap(got.pendDelta) != cap(want.pendDelta) {
				t.Fatalf("%s (adaptive %v): %d staged at capacity %d/%d, want 0 at %d/%d", what, opt.Adaptive,
					got.pendingCount(), cap(got.pendIdx), cap(got.pendDelta), cap(want.pendIdx), cap(want.pendDelta))
			}
			for i := range want.vals {
				if math.Float64bits(got.vals[i]) != math.Float64bits(want.vals[i]) {
					t.Fatalf("%s (adaptive %v): channel %d rate %g, fresh %g", what, opt.Adaptive, i, got.vals[i], want.vals[i])
				}
			}
			for i := range want.tree {
				if math.Float64bits(got.tree[i]) != math.Float64bits(want.tree[i]) {
					t.Fatalf("%s (adaptive %v): tree node %d %g, fresh %g", what, opt.Adaptive, i, got.tree[i], want.tree[i])
				}
			}
		}

		s := mk()
		cp, err := s.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		stop(s)
		if err := s.Reset(opt.Seed, nil); err != nil {
			t.Fatal(err)
		}
		requireFresh("Reset", s.fen, mk().fen)

		stop(s)
		if err := s.Restore(cp); err != nil {
			t.Fatal(err)
		}
		fresh := mk()
		if err := fresh.Restore(cp); err != nil {
			t.Fatal(err)
		}
		requireFresh("Restore", s.fen, fresh.fen)
	}
}

// Reset must refuse overrides on nodes that are not DC-driven externals.
func TestResetOverrideValidation(t *testing.T) {
	c, nd := resetSET(0.02, -0.02, 0, circuit.SuperParams{})
	s, err := New(c, Options{Temp: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Reset(2, map[int]float64{nd.Island: 0.01}); err == nil {
		t.Fatal("override on an island node accepted")
	}
	if err := s.Reset(3, map[int]float64{-1: 0.01}); err == nil {
		t.Fatal("override on a bogus node id accepted")
	}
	// A failed Reset must not leave the Sim unusable.
	if err := s.Reset(4, map[int]float64{nd.Gate: 0.01}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(100, 0); err != nil {
		t.Fatal(err)
	}
}

// Probes survive Reset: the recorded waveform restarts from a fresh
// t = 0 sample exactly as New followed by AddProbe would produce.
func TestResetRewindsProbes(t *testing.T) {
	const vg = 0.007
	freshC, fnd := resetSET(0.02, -0.02, vg, circuit.SuperParams{})
	fresh, err := New(freshC, Options{Temp: 5, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	fresh.AddProbe(fnd.Island)
	if _, err := fresh.Run(600, 0); err != nil {
		t.Fatal(err)
	}

	base, nd := resetSET(0.02, -0.02, 0, circuit.SuperParams{})
	sess, err := New(base, Options{Temp: 5, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	sess.AddProbe(nd.Island)
	if _, err := sess.Run(400, 0); err != nil {
		t.Fatal(err)
	}
	if err := sess.Reset(11, map[int]float64{nd.Gate: vg}); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Run(600, 0); err != nil {
		t.Fatal(err)
	}
	wf, ws := fresh.Waveform(fnd.Island), sess.Waveform(nd.Island)
	if len(wf) != len(ws) {
		t.Fatalf("waveform lengths differ: fresh %d, reused %d", len(wf), len(ws))
	}
	for i := range wf {
		if wf[i] != ws[i] {
			t.Fatalf("waveform sample %d differs: %+v vs %+v", i, wf[i], ws[i])
		}
	}
}
