package solver

import (
	"fmt"

	"semsim/internal/noise"
)

// EnableNoise attaches a streaming noise/FCS recorder (see
// internal/noise) to the simulation: every applied tunnel event's
// transferred charge is folded into per-junction accumulators for
// counting-window cumulants (Fano factor) and the Sverdlov-style
// spectral density on cfg's ω grids.
// Recording is passive — a run with a recorder attached is
// bit-identical to one without (the Add hook reads the event stream,
// never solver state) — and allocation-free per event, gated by the
// zero-alloc suite. Call it before running (typically right after New
// or Reset); the accumulators restart with the measurement window on
// ResetMeasurement and clear completely on Reset. Enabling replaces
// any previous recorder.
func (s *Sim) EnableNoise(cfg noise.Config) error {
	for _, jc := range cfg.Juncs {
		if jc.Junc < 0 || jc.Junc >= s.c.NumJunctions() {
			return fmt.Errorf("solver: noise recording on junction %d: circuit has %d junctions", jc.Junc, s.c.NumJunctions())
		}
	}
	r, err := noise.New(cfg, s.c.NumJunctions())
	if err != nil {
		return err
	}
	r.SetObserver(s.obs)
	r.Reset(s.measStart)
	s.noise = r
	return nil
}

// Noise returns the attached noise recorder, or nil when noise
// recording is disabled.
func (s *Sim) Noise() *noise.Recorder { return s.noise }

// NoiseStats reads junction j's finalized noise statistics over the
// current measurement window; ok is false when j is not recorded (or
// recording is disabled).
func (s *Sim) NoiseStats(j int) (noise.RunStats, bool) {
	return s.noise.Stats(j, s.t)
}

// AutoNoiseWindows calibrates every auto (Window == 0) counting window
// of the attached recorder from the run so far: τ is chosen so an
// average window holds about noise.DefaultWindowEvents tunnel events
// at the observed rate. The jobs engine calls it at the end of the
// warm-up phase, immediately before ResetMeasurement — pure arithmetic
// on deterministic inputs (event count and elapsed time), so a resumed
// run derives the identical window. No-op without a recorder.
func (s *Sim) AutoNoiseWindows() {
	s.noise.AutoWindow(s.stats.Events, s.t-s.measStart)
}
