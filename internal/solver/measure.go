package solver

import "fmt"

// bumpStamp advances the BFS visitation stamp, clearing the visited
// array only on the rare wraparound.
func (s *Sim) bumpStamp() uint32 {
	s.stamp++
	if s.stamp == 0 {
		for i := range s.visited {
			s.visited[i] = 0
		}
		s.stamp = 1
	}
	return s.stamp
}

// Time returns the simulated time in seconds.
func (s *Sim) Time() float64 { return s.t }

// Stats returns the accumulated work counters.
func (s *Sim) Stats() Stats { return s.stats }

// ElectronCount returns the excess electron number on an island node.
func (s *Sim) ElectronCount(node int) int {
	k := s.c.IslandIndex(node)
	if k < 0 {
		panic(fmt.Sprintf("solver: ElectronCount of non-island node %d", node))
	}
	return s.n[k]
}

// Potential returns the up-to-date potential of any node.
func (s *Sim) Potential(node int) float64 { return s.nodeV(node) }

// ResetMeasurement zeroes the per-junction charge and event counters
// — including any attached noise accumulators — and restarts the
// averaging window; call it after the warm-up transient. Counting
// windows keep their (possibly auto-calibrated) widths: only the
// accumulated statistics restart.
func (s *Sim) ResetMeasurement() {
	for i := range s.charge {
		s.charge[i] = 0
		s.evFw[i] = 0
		s.evBw[i] = 0
		s.evCoop[i] = 0
	}
	s.measStart = s.t
	s.noise.Reset(s.t)
}

// JunctionCooperEvents returns how many Cooper pairs crossed junction j
// (either direction) since the last ResetMeasurement. A JQP cycle shows
// pairs through one junction only; the DJQP cycle alternates pairs
// through both.
func (s *Sim) JunctionCooperEvents(j int) uint64 { return s.evCoop[j] }

// JunctionEvents returns how many carrier transfers crossed junction j
// in each direction (A->B, B->A) since the last ResetMeasurement.
// Cotunneling counts on both junctions it crosses; a Cooper pair counts
// as one transfer. Together with MeasureTime these give full counting
// statistics — e.g. the shot-noise Fano factor of a blockaded device.
func (s *Sim) JunctionEvents(j int) (fw, bw uint64) {
	return s.evFw[j], s.evBw[j]
}

// JunctionCharge returns the net conventional charge (coulombs) that
// has flowed from node A to node B of junction j since the last
// ResetMeasurement.
func (s *Sim) JunctionCharge(j int) float64 { return s.charge[j] }

// JunctionCurrent returns the time-averaged conventional current
// (amperes, positive A->B) through junction j over the measurement
// window. It returns 0 before any time has elapsed.
func (s *Sim) JunctionCurrent(j int) float64 {
	dt := s.t - s.measStart
	if dt <= 0 {
		return 0
	}
	return s.charge[j] / dt
}

// MeasureTime returns the elapsed measurement-window time.
func (s *Sim) MeasureTime() float64 { return s.t - s.measStart }

// AddProbe records the waveform of a node (one sample per applied
// event).
func (s *Sim) AddProbe(node int) {
	s.probes = append(s.probes, node)
	s.recordProbes()
}

// Waveform returns the recorded samples of a probed node.
func (s *Sim) Waveform(node int) []Sample { return s.waves[node] }

func (s *Sim) recordProbes() {
	for _, node := range s.probes {
		s.waves[node] = append(s.waves[node], Sample{T: s.t, V: s.nodeV(node)})
	}
}
