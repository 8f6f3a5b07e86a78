package solver

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"semsim/internal/noise"
)

// CheckpointVersion is the current encoding version of Checkpoint.
// Restore refuses snapshots written with any other version — including
// version 0, i.e. JSON from before the header existed — so a stale or
// foreign checkpoint fails loudly instead of resuming into a subtly
// different simulation. Since version 2 the options hash covers the
// circuit engine's C^-1 truncation threshold. Version 3 marks the
// engine change under which an explicit threshold hashes as before but
// the adaptive test reads the shift each event applied, so a version-2
// snapshot would continue under another b(i).
const CheckpointVersion = 3

// Checkpoint is a resumable snapshot of a simulation's dynamic state.
// It is plain data (JSON-serializable) and deliberately excludes the
// circuit: restoring requires a Sim built over the same circuit, which
// re-derives all cached rates. A restored non-adaptive simulation
// continues bit-exactly: the random stream, electron configuration,
// clock, waveforms and measurement counters all resume where they
// stopped. An adaptive simulation restored from a snapshot taken at a
// full-refresh boundary (Stats.Events a multiple of
// Options.RefreshEvery) also continues bit-exactly, because the restore
// refresh recomputes precisely the state the uninterrupted run had at
// that boundary; away from a boundary its continuation is statistically
// equivalent rather than bit-identical (mid-run rate-cache staleness is
// an approximation artifact, not state worth preserving). See
// DESIGN.md §10 for the full determinism argument.
//
// The encoding is self-describing: Version names the layout and
// OptionsHash fingerprints every trajectory-relevant solver option, so
// resuming under mismatched options (different temperature, adaptive
// threshold, refresh period, C^-1 truncation, rate tables, ...) is
// rejected loudly instead of silently diverging. Options.Seed is
// deliberately excluded: the live RNG state travels in the snapshot.
//
//statecover:root save=json
type Checkpoint struct {
	Version     int       `json:"version"`
	OptionsHash string    `json:"options_hash"`
	Time        float64   `json:"time"`
	Electrons   []int     `json:"electrons"`
	Rng         []byte    `json:"rng"`
	Charge      []float64 `json:"charge"`
	EvFw        []uint64  `json:"ev_fw"`
	EvBw        []uint64  `json:"ev_bw"`
	EvCoop      []uint64  `json:"ev_coop"`
	MeasStart   float64   `json:"meas_start"`
	Stats       Stats     `json:"stats"`
	// Probes and Waves carry the waveform recorder: which nodes are
	// probed and every sample recorded so far. A nil Probes (snapshots
	// of simulations without probes, or legacy data) leaves the target
	// simulation's probe set untouched on Restore.
	Probes []int            `json:"probes,omitempty"`
	Waves  map[int][]Sample `json:"waves,omitempty"`
	// Noise carries the streaming noise-accumulator state when noise
	// recording is enabled (EnableNoise); nil otherwise. Restore
	// requires the presence to match the target simulation — a noise
	// measurement must never silently resume without its accumulators,
	// nor adopt accumulators it never had.
	Noise *noise.State `json:"noise,omitempty"`
}

// trajectoryHash fingerprints what influences the simulated trajectory
// beyond the dynamic state: the options after defaulting, and the C^-1
// truncation threshold of the circuit's potential engine. Two Sims whose
// hashes match produce bit-identical continuations from the same
// dynamic state; options that provably cannot change the trajectory
// (Obs, Seed — the RNG state is checkpointed directly — and the ignored
// Parallel) are excluded.
func (s *Sim) trajectoryHash() string {
	o := &s.opt
	const offset, prime = 1469598103934665603, 1099511628211
	h := uint64(offset)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime
			v >>= 8
		}
	}
	mixf := func(f float64) { mix(math.Float64bits(f)) }
	mixb := func(b bool) {
		if b {
			mix(1)
		} else {
			mix(0)
		}
	}
	mixf(o.Temp)
	mixb(o.Adaptive)
	mixf(o.Alpha)
	mix(uint64(o.RefreshEvery))
	mixb(o.Cotunneling)
	mixf(o.CPWidthFloor)
	mixf(o.ProbeInterval)
	mixf(s.pe.Eps())
	mixb(o.RateTables)
	return fmt.Sprintf("%016x", h)
}

// Checkpoint captures the current dynamic state.
func (s *Sim) Checkpoint() (*Checkpoint, error) {
	rngState, err := s.rnd.MarshalBinary()
	if err != nil {
		return nil, err
	}
	cp := &Checkpoint{
		Version:     CheckpointVersion,
		OptionsHash: s.trajectoryHash(),
		Time:        s.t,
		Electrons:   append([]int(nil), s.n...),
		Rng:         rngState,
		Charge:      append([]float64(nil), s.charge...),
		EvFw:        append([]uint64(nil), s.evFw...),
		EvBw:        append([]uint64(nil), s.evBw...),
		EvCoop:      append([]uint64(nil), s.evCoop...),
		MeasStart:   s.measStart,
		Stats:       s.stats,
	}
	if len(s.probes) > 0 {
		cp.Probes = append([]int(nil), s.probes...)
		cp.Waves = make(map[int][]Sample, len(s.waves))
		for node, w := range s.waves {
			cp.Waves[node] = append([]Sample(nil), w...)
		}
	}
	cp.Noise = s.noise.State()
	return cp, nil
}

// Restore resets the simulation to a checkpoint taken from a Sim over
// the same circuit (validated by vector lengths) under
// trajectory-equivalent options (validated by the checkpoint's options
// hash). When the checkpoint carries probe state, the simulation's
// probe set and recorded waveforms are replaced by the snapshot's;
// otherwise existing probes are kept and only their decimation clocks
// are rewound.
func (s *Sim) Restore(cp *Checkpoint) error {
	if cp == nil {
		return errors.New("solver: nil checkpoint")
	}
	if cp.Version != CheckpointVersion {
		if cp.Version == 0 {
			return fmt.Errorf("solver: checkpoint has no version header (pre-versioning snapshot or foreign data); regenerate it with this build")
		}
		return fmt.Errorf("solver: checkpoint version %d, this build reads version %d", cp.Version, CheckpointVersion)
	}
	if want := s.trajectoryHash(); cp.OptionsHash != want {
		return fmt.Errorf("solver: checkpoint was written under different trajectory-relevant options (hash %s, this simulation %s): temperature, adaptive/alpha/refresh, cotunneling, probe interval, cinv-eps and rate-tables settings must all match", cp.OptionsHash, want)
	}
	if len(cp.Electrons) != len(s.n) {
		return fmt.Errorf("solver: checkpoint has %d islands, circuit has %d", len(cp.Electrons), len(s.n))
	}
	if len(cp.Charge) != len(s.charge) || len(cp.EvFw) != len(s.evFw) ||
		len(cp.EvBw) != len(s.evBw) || len(cp.EvCoop) != len(s.evCoop) {
		return errors.New("solver: checkpoint junction counts do not match the circuit")
	}
	// Noise accumulators are measurement state: their presence must
	// match in both directions, and RestoreState validates the
	// configuration fingerprint before mutating anything — so the
	// checks run before the simulation is touched.
	switch {
	case cp.Noise != nil && s.noise == nil:
		return errors.New("solver: checkpoint carries noise-accumulator state but this simulation records no noise; call EnableNoise with the original configuration before Restore")
	case cp.Noise == nil && s.noise != nil:
		return errors.New("solver: this simulation records noise but the checkpoint carries no accumulator state (snapshot of a run without noise recording)")
	case cp.Noise != nil:
		if err := s.noise.RestoreState(cp.Noise); err != nil {
			return err
		}
	}
	if err := s.rnd.UnmarshalBinary(cp.Rng); err != nil {
		return err
	}
	s.t = cp.Time
	copy(s.n, cp.Electrons)
	copy(s.charge, cp.Charge)
	copy(s.evFw, cp.EvFw)
	copy(s.evBw, cp.EvBw)
	copy(s.evCoop, cp.EvCoop)
	s.measStart = cp.MeasStart
	if cp.Probes != nil {
		// Adopt the snapshot's probe set and waveforms wholesale, and
		// restore each decimation clock to the timestamp of the last
		// recorded sample — exactly the value the uninterrupted run held —
		// so post-resume sampling decisions are bit-identical.
		s.probes = append(s.probes[:0], cp.Probes...)
		s.waves = make(map[int][]Sample, len(cp.Waves))
		s.lastProbe = make(map[int]float64, len(s.probes))
		for _, node := range s.probes {
			s.lastProbe[node] = -1
		}
		for node, w := range cp.Waves {
			s.waves[node] = append([]Sample(nil), w...)
			if len(w) > 0 {
				s.lastProbe[node] = w[len(w)-1].T
			}
		}
	} else {
		// Probe decimation clocks may hold timestamps from after the
		// checkpoint (or from a different run); reset them so sampling
		// resumes immediately at the restored time instead of waiting for
		// the clock to catch up.
		for node := range s.lastProbe {
			s.lastProbe[node] = -1
		}
	}
	// The electron configuration just changed under the solver, so the
	// incremental potentials are stale by construction — disarm the
	// drift invariant until the refresh below re-establishes a baseline.
	s.dbgInit = false
	// Rebuild all derived state (potentials, rates, selection tree) for
	// the restored configuration. The refresh happens before the stats
	// are installed so its own work (one full refresh, O(channels) rate
	// evaluations) is not billed to the restored counters: a restored
	// Stats must equal the checkpointed Stats exactly.
	s.fullRefresh()
	s.stats = cp.Stats
	return nil
}

// RefreshPeriod reports the effective full-refresh interval in events
// (Options.RefreshEvery after defaulting). Checkpoints meant for
// bit-identical adaptive resume must be taken when Stats().Events is a
// multiple of this period; internal/jobs aligns its snapshot cadence to
// it.
func (s *Sim) RefreshPeriod() int { return s.opt.RefreshEvery }

// ProbeNodes returns the ids of the currently probed nodes, sorted.
func (s *Sim) ProbeNodes() []int {
	out := append([]int(nil), s.probes...)
	sort.Ints(out)
	return out
}
