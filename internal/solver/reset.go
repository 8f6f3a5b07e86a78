package solver

import (
	"fmt"
	"sort"

	"semsim/internal/circuit"
)

// Reset rewinds a simulation to the t = 0 state of a freshly
// constructed one — new seed, new DC source values — while reusing
// every compiled artifact: the circuit topology, the CSR capacitance
// matrix, the Cholesky factor and truncated C^-1 rows inside the
// potential engine, the flat kernel tables and the channel descriptors.
// This is the compile-once half of the amortized sweep
// engine: a sweep worker builds one Sim per circuit and Resets it per
// point instead of paying CSR assembly, factorization and table
// construction for every bias point.
//
// dcOverride maps external node ids to replacement DC voltages; only
// nodes driven by a circuit.DC source may be overridden (time-dependent
// sources define a schedule, not a bias point). Overrides installed by
// a previous Reset are cleared first, so each call describes the full
// bias point. The reset simulation is bit-identical to solver.New over
// a circuit compiled with the same DC values and the same seed: the
// substituted voltages are the exact floats the recompiled sources
// would produce, and New and Reset end in the same rewind
// (TestResetMatchesFresh asserts this trajectory-for-trajectory).
//
// The probe set persists across Resets (recorded waveforms are
// dropped and a fresh t = 0 sample is taken per probe, matching New
// followed by AddProbe); measurement counters, stats and checkpoint
// eligibility all restart from zero. Restoring a checkpoint into a
// reset Sim is supported and lands on the same trajectory as restoring
// into a fresh build: Restore's own refresh re-derives all cached state
// from the restored configuration and the currently installed sources.
// Reset must not be called concurrently with Run/Step on the same Sim.
func (s *Sim) Reset(seed uint64, dcOverride map[int]float64) error {
	if err := s.installOverrides(dcOverride); err != nil {
		// The hash follows whatever overrides are installed, even the
		// part of a rejected set that was.
		s.ckptHash = s.trajectoryHash()
		return err
	}
	if err := s.rewind(seed); err != nil {
		return err
	}
	s.obs.SessionReset()
	return nil
}

// rewind puts the simulation at t = 0 under the installed sources: it
// hashes the trajectory-relevant state, seeds the RNG, clears the
// electron configuration, measurement, noise accumulators, waveforms
// and counters, picks the quasi-particle tables for the source
// magnitudes, and refreshes every potential, rate and the selection
// tree. New ends with it and Reset runs it after installing overrides,
// so a reset simulation is a fresh one.
func (s *Sim) rewind(seed uint64) error {
	s.ckptHash = s.trajectoryHash()
	s.rnd.Reseed(seed)
	s.opt.Seed = seed
	s.t = 0
	s.horizon = 0
	for i := range s.n {
		s.n[i] = 0
	}
	for i := range s.charge {
		s.charge[i] = 0
		s.evFw[i] = 0
		s.evBw[i] = 0
		s.evCoop[i] = 0
	}
	s.measStart = 0
	// Noise accumulators clear completely — auto-calibrated window
	// widths roll back to their configured values — so a session reused
	// across tasks measures exactly what a freshly built one would.
	s.noise.FullReset(0)
	s.stats = Stats{}
	for node := range s.waves {
		delete(s.waves, node)
	}
	// The electron configuration and sources may just have changed under
	// the solver; disarm the drift invariant until the refresh below
	// re-establishes a baseline, and force the static-source voltage
	// cache to refill with the new bias.
	s.dbgInit = false
	s.extVFresh = false
	if s.superOn {
		// The quasi-particle table voltage range depends on the source
		// magnitudes. Tables come from the shared qpCache, so a session's
		// re-lookup is a map hit, not a rebuild.
		if err := s.buildSuper(); err != nil {
			return err
		}
	}
	// Stats were zeroed above, so the refresh bills its own work: one
	// full refresh, O(channels) rate calculations.
	s.fullRefresh()
	s.recordProbes()
	return nil
}

// installOverrides validates and installs the per-Sim DC override
// layer, clearing any previous one.
func (s *Sim) installOverrides(dcOverride map[int]float64) error {
	if s.srcMask != nil {
		for e := range s.srcMask {
			s.srcMask[e] = false
			s.srcOverride[e] = 0
		}
	}
	if len(dcOverride) == 0 {
		return nil
	}
	if s.srcMask == nil {
		s.srcMask = make([]bool, len(s.extIDs))
		s.srcOverride = make([]float64, len(s.extIDs))
	}
	// Sorted key order so validation failures report the same node no
	// matter how the caller built the map.
	ids := make([]int, 0, len(dcOverride))
	for id := range dcOverride {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		if id < 0 || id >= len(s.extIdxOf) || s.extIdxOf[id] < 0 {
			return fmt.Errorf("solver: Reset override on node %d: not an external (source-driven) node", id)
		}
		if _, ok := s.c.SourceOf(id).(circuit.DC); !ok {
			return fmt.Errorf("solver: Reset override on node %d (%s): only DC sources can be overridden per point", id, s.c.NodeName(id))
		}
		e := s.extIdxOf[id]
		s.srcMask[e] = true
		s.srcOverride[e] = dcOverride[id]
	}
	return nil
}
