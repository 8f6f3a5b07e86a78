package solver

import (
	"encoding/json"
	"strings"
	"testing"

	"semsim/internal/circuit"
)

func TestCheckpointResumeBitExact(t *testing.T) {
	mk := func() *Sim {
		c, _ := circuit.NewSET(circuit.SETConfig{
			R1: 1e6, C1: aF, R2: 1e6, C2: aF, Cg: 3 * aF,
			Vs: 0.02, Vd: -0.02, Vg: 0.005,
		})
		s, err := New(c, Options{Temp: 5, Seed: 77})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	// Reference: straight 4000-event run.
	ref := mk()
	if _, err := ref.Run(4000, 0); err != nil {
		t.Fatal(err)
	}

	// Checkpointed: 1500 events, snapshot (through JSON, as a user
	// would persist it), 2500 more on a FRESH sim.
	a := mk()
	if _, err := a.Run(1500, 0); err != nil {
		t.Fatal(err)
	}
	cp, err := a.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(cp)
	if err != nil {
		t.Fatal(err)
	}
	var cp2 Checkpoint
	if err := json.Unmarshal(blob, &cp2); err != nil {
		t.Fatal(err)
	}
	b := mk()
	if err := b.Restore(&cp2); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Run(2500, 0); err != nil {
		t.Fatal(err)
	}

	if ref.Time() != b.Time() {
		t.Fatalf("resumed trajectory diverged in time: %g vs %g", ref.Time(), b.Time())
	}
	if ref.Stats().Events != b.Stats().Events {
		t.Fatalf("event counts differ: %d vs %d", ref.Stats().Events, b.Stats().Events)
	}
	for j := 0; j < 2; j++ {
		if ref.JunctionCharge(j) != b.JunctionCharge(j) {
			t.Fatalf("junction %d charge differs: %g vs %g", j, ref.JunctionCharge(j), b.JunctionCharge(j))
		}
		rf, rb := ref.JunctionEvents(j)
		bf, bb := b.JunctionEvents(j)
		if rf != bf || rb != bb {
			t.Fatalf("junction %d event counts differ", j)
		}
	}
}

// A checkpoint must refuse to restore under mismatched
// trajectory-relevant options: before the options hash existed, a
// resume with, say, a different C^-1 truncation or temperature silently
// produced a diverging trajectory.
func TestRestoreRejectsMismatchedOptions(t *testing.T) {
	mkAt := func(opt Options, eps float64) *Sim {
		c, _ := setAt(0.02, -0.02, 0.005, eps)
		s, err := New(c, opt)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	mk := func(opt Options) *Sim { return mkAt(opt, 0) }
	base := Options{Temp: 5, Seed: 9}
	src := mk(base)
	if _, err := src.Run(300, 0); err != nil {
		t.Fatal(err)
	}
	cp, err := src.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}

	cases := map[string]Options{
		"temperature":  {Temp: 6, Seed: 9},
		"adaptive":     {Temp: 5, Seed: 9, Adaptive: true},
		"alpha":        {Temp: 5, Seed: 9, Adaptive: true, Alpha: 0.2},
		"rate-tables":  {Temp: 5, Seed: 9, RateTables: true},
		"refreshevery": {Temp: 5, Seed: 9, RefreshEvery: 77},
	}
	for name, opt := range cases {
		dst := mk(opt)
		if err := dst.Restore(cp); err == nil {
			t.Errorf("%s mismatch silently accepted", name)
		}
	}
	// The same options over a circuit built at another C^-1 truncation
	// threshold run another trajectory.
	dst := mkAt(base, 1e-6)
	if err := dst.Restore(cp); err == nil {
		t.Error("cinv-eps mismatch silently accepted")
	}

	// A different seed does not change the trajectory (the RNG state is
	// in the snapshot), so it must stay resumable.
	if err := mk(Options{Temp: 5, Seed: 12345}).Restore(cp); err != nil {
		t.Errorf("trajectory-equivalent seed rejected: %v", err)
	}
}

// Unversioned (or future-versioned) checkpoints must be rejected with a
// clear error rather than interpreted as valid state.
func TestRestoreRejectsWrongVersion(t *testing.T) {
	c, _ := circuit.NewSET(circuit.SETConfig{
		R1: 1e6, C1: aF, R2: 1e6, C2: aF, Cg: 3 * aF, Vs: 0.02, Vd: -0.02,
	})
	s, err := New(c, Options{Temp: 5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	cp, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if cp.Version != CheckpointVersion {
		t.Fatalf("Checkpoint wrote version %d, want %d", cp.Version, CheckpointVersion)
	}
	cp.Version = 0 // legacy pre-header JSON decodes to the zero value
	if err := s.Restore(cp); err == nil {
		t.Fatal("unversioned checkpoint accepted")
	}
	cp.Version = CheckpointVersion + 1
	if err := s.Restore(cp); err == nil {
		t.Fatal("future checkpoint version accepted")
	}
	// Version 2 predates the truncated-row engine's adaptive test: its
	// options hash can match at an explicit cinv-eps, so the version
	// alone must refuse it.
	cp.Version = 2
	if err := s.Restore(cp); err == nil || !strings.Contains(err.Error(), "checkpoint version 2") {
		t.Fatalf("version-2 checkpoint: %v, want the version error", err)
	}
	// Version 3 snapshots were hashed with the Cooper-pair width floor
	// and the probe interval, and their noise state carried the
	// autocorrelation ring: refused by version, never by a hash that
	// happens to differ.
	cp.Version = 3
	if err := s.Restore(cp); err == nil || !strings.Contains(err.Error(), "checkpoint version 3") {
		t.Fatalf("version-3 checkpoint: %v, want the version error", err)
	}
}

// Waveforms are part of the snapshot: a resumed run's probe record must
// be bit-identical to the uninterrupted run's.
func TestRestoreCarriesWaveforms(t *testing.T) {
	mk := func() *Sim {
		c, _ := circuit.NewSET(circuit.SETConfig{
			R1: 1e6, C1: aF, R2: 1e6, C2: aF, Cg: 3 * aF,
			Vs: 0.02, Vd: -0.02, Vg: 0.005,
		})
		s, err := New(c, Options{Temp: 5, Seed: 21})
		if err != nil {
			t.Fatal(err)
		}
		s.AddProbe(c.Islands()[0])
		return s
	}
	ref := mk()
	if _, err := ref.Run(3000, 0); err != nil {
		t.Fatal(err)
	}

	a := mk()
	if _, err := a.Run(1024, 0); err != nil {
		t.Fatal(err)
	}
	cp, err := a.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	b := mk()
	if err := b.Restore(cp); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Run(3000-1024, 0); err != nil {
		t.Fatal(err)
	}
	island := ref.ProbeNodes()[0]
	wr, wb := ref.Waveform(island), b.Waveform(island)
	if len(wr) != len(wb) {
		t.Fatalf("resumed waveform has %d samples, uninterrupted %d", len(wb), len(wr))
	}
	for i := range wr {
		if wr[i] != wb[i] {
			t.Fatalf("sample %d differs: %+v vs %+v", i, wr[i], wb[i])
		}
	}
}

func TestRestoreValidation(t *testing.T) {
	c, _ := circuit.NewSET(circuit.SETConfig{
		R1: 1e6, C1: aF, R2: 1e6, C2: aF, Cg: 3 * aF, Vs: 0.02, Vd: -0.02,
	})
	s, err := New(c, Options{Temp: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Restore(nil); err == nil {
		t.Fatal("nil checkpoint accepted")
	}
	cp, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	cp.Electrons = append(cp.Electrons, 0)
	if err := s.Restore(cp); err == nil {
		t.Fatal("mismatched island count accepted")
	}
	cp2, _ := s.Checkpoint()
	cp2.Rng = cp2.Rng[:5]
	if err := s.Restore(cp2); err == nil {
		t.Fatal("corrupt RNG state accepted")
	}
}

// A checkpoint's Stats must restore exactly: the fullRefresh Restore
// performs to rebuild derived state is maintenance, not simulated work,
// and must not be billed to the restored counters (it used to inflate
// FullRefreshes and RateCalcs).
func TestRestoreStatsExact(t *testing.T) {
	c, _ := circuit.NewSET(circuit.SETConfig{
		R1: 1e6, C1: aF, R2: 1e6, C2: aF, Cg: 3 * aF,
		Vs: 0.02, Vd: -0.02, Vg: 0.005,
	})
	a, err := New(c, Options{Temp: 5, Seed: 99, Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Run(2000, 0); err != nil {
		t.Fatal(err)
	}
	cp, err := a.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}

	b, err := New(c, Options{Temp: 5, Seed: 1, Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Run(123, 0); err != nil {
		t.Fatal(err)
	}
	if err := b.Restore(cp); err != nil {
		t.Fatal(err)
	}
	if b.Stats() != cp.Stats {
		t.Fatalf("restored stats drifted from the checkpoint:\nrestored:   %+v\ncheckpoint: %+v", b.Stats(), cp.Stats)
	}
	// And restoring in place must behave the same.
	if err := a.Restore(cp); err != nil {
		t.Fatal(err)
	}
	if a.Stats() != cp.Stats {
		t.Fatalf("in-place restored stats drifted:\nrestored:   %+v\ncheckpoint: %+v", a.Stats(), cp.Stats)
	}
}

// Restoring to an earlier time rewinds the waveform to the snapshot's:
// samples recorded after the checkpoint are dropped, and every event
// after the restore records one sample again.
func TestRestoreResetsProbeClocks(t *testing.T) {
	c, _ := circuit.NewSET(circuit.SETConfig{
		R1: 1e6, C1: aF, R2: 1e6, C2: aF, Cg: 3 * aF,
		Vs: 0.02, Vd: -0.02, Vg: 0.005,
	})
	island := c.Islands()[0]
	s, err := New(c, Options{Temp: 5, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	s.AddProbe(island)
	if _, err := s.Run(500, 0); err != nil {
		t.Fatal(err)
	}
	cp, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(2000, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Restore(cp); err != nil {
		t.Fatal(err)
	}
	before := s.Waveform(island)
	want := cp.Waves[island]
	if len(before) != len(want) || before[len(before)-1] != want[len(want)-1] {
		t.Fatalf("restored waveform has %d samples ending %+v, snapshot %d ending %+v",
			len(before), before[len(before)-1], len(want), want[len(want)-1])
	}
	if _, err := s.Run(300, 0); err != nil {
		t.Fatal(err)
	}
	if got := len(s.Waveform(island)) - len(before); got != 300 {
		t.Fatalf("300 events after restore recorded %d samples, want one per event", got)
	}
}
