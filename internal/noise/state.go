package noise

import (
	"errors"
	"fmt"
)

// State is the serializable snapshot of a Recorder, embedded in the
// solver's Checkpoint when noise recording is enabled. It is plain
// data: ConfigHash fingerprints the recorder configuration so a
// snapshot only restores into an identically configured recorder, and
// each JuncState carries one accumulator verbatim — restoring is a
// copy, so a resumed measurement is bit-identical to an uninterrupted
// one.
//
//statecover:root save=json
type State struct {
	ConfigHash string      `json:"config_hash"`
	Origin     float64     `json:"origin"`
	Juncs      []JuncState `json:"juncs"`
}

// JuncState is one junction accumulator's snapshot (see accum for the
// field semantics; charges in units of e for the window cumulants,
// coulombs elsewhere).
type JuncState struct {
	Junc   int       `json:"junc"`
	Tau    float64   `json:"tau"`
	Win    uint64    `json:"win"`
	WinQ   float64   `json:"win_q"`
	NWin   uint64    `json:"n_win"`
	SumQ   float64   `json:"sum_q"`
	SumQ2  float64   `json:"sum_q2"`
	SumRe  []float64 `json:"sum_re,omitempty"`
	SumIm  []float64 `json:"sum_im,omitempty"`
	QTot   float64   `json:"q_tot"`
	Events uint64    `json:"events"`
}

// State snapshots the recorder (nil receiver returns nil, matching a
// simulation without noise recording).
func (r *Recorder) State() *State {
	if r == nil {
		return nil
	}
	st := &State{ConfigHash: r.hash, Origin: r.origin, Juncs: make([]JuncState, len(r.acc))}
	for i := range r.acc {
		a := &r.acc[i]
		st.Juncs[i] = JuncState{
			Junc: a.junc, Tau: a.tau,
			Win: a.win, WinQ: a.winQ, NWin: a.nWin, SumQ: a.sumQ, SumQ2: a.sumQ2,
			SumRe: append([]float64(nil), a.sumRe...),
			SumIm: append([]float64(nil), a.sumIm...),
			QTot:  a.qTot, Events: a.events,
		}
	}
	return st
}

// RestoreState loads a snapshot taken from an identically configured
// recorder, validating the configuration fingerprint and every
// accumulator shape before mutating anything.
func (r *Recorder) RestoreState(st *State) error {
	if r == nil {
		return errors.New("noise: RestoreState on a nil recorder")
	}
	if st == nil {
		return errors.New("noise: nil state")
	}
	if st.ConfigHash != r.hash {
		return fmt.Errorf("noise: state was written by a differently configured recorder (hash %s, this recorder %s): junctions, ω grids and windows must all match", st.ConfigHash, r.hash)
	}
	if len(st.Juncs) != len(r.acc) {
		return fmt.Errorf("noise: state has %d junction accumulators, recorder has %d", len(st.Juncs), len(r.acc))
	}
	for i := range st.Juncs {
		js := &st.Juncs[i]
		a := &r.acc[i]
		if js.Junc != a.junc {
			return fmt.Errorf("noise: state accumulator %d records junction %d, recorder records %d", i, js.Junc, a.junc)
		}
		if len(js.SumRe) != len(a.sumRe) || len(js.SumIm) != len(a.sumIm) {
			return fmt.Errorf("noise: state accumulator %d has %d spectral sums, recorder has %d", i, len(js.SumRe), len(a.sumRe))
		}
	}
	r.origin = st.Origin
	for i := range st.Juncs {
		js := &st.Juncs[i]
		a := &r.acc[i]
		a.tau = js.Tau
		a.win, a.winQ, a.nWin = js.Win, js.WinQ, js.NWin
		a.sumQ, a.sumQ2 = js.SumQ, js.SumQ2
		copy(a.sumRe, js.SumRe)
		copy(a.sumIm, js.SumIm)
		a.qTot, a.events = js.QTot, js.Events
	}
	return nil
}
