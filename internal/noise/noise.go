// Package noise is the streaming noise / full-counting-statistics
// engine: per-junction accumulators that consume the solver's applied
// tunnel events one at a time and reduce them — in O(1) amortized work
// per event and zero allocations — to the two standard noise
// observables of single-electron devices:
//
//   - windowed charge cumulants (mean, variance and the Fano factor
//     F = Var(Q)/|⟨Q⟩| over counting windows of width τ);
//   - the current spectral density S_I(ω) on a configurable ω grid,
//     via the Sverdlov–Kinkhabwala estimator: each event's transferred
//     charge contributes dq·e^{iωt} to a running Fourier sum, so the
//     whole periodogram costs one Sincos per (event, ω) and no event
//     buffer.
//
// The integration contract mirrors internal/obs: every recording
// method is declared on *Recorder with a nil-receiver fast path, a
// Recorder never touches solver state, random streams or
// floating-point inputs, and a simulation with recording enabled is
// bit-identical to one without. Accumulator state serializes into a
// Checkpoint-embeddable State and restores bit-exactly, so noise
// measurements survive the jobs engine's drain/resume cycle unchanged.
// DESIGN.md §15 develops the estimator math and the determinism
// argument for folding run statistics across (point, run) tasks.
package noise

import (
	"errors"
	"fmt"
	"math"

	"semsim/internal/numeric"
	"semsim/internal/obs"
	"semsim/internal/units"
)

// DefaultWindowEvents sets the auto-calibrated counting-window width:
// a JuncConfig with Window == 0 gets τ chosen so an average window
// holds about this many tunnel events, estimated from the warm-up
// phase rate (Recorder.AutoWindow). Large enough that window charges
// are well into counting statistics, small enough that a normal run
// closes thousands of windows.
const DefaultWindowEvents = 64

// JuncConfig requests noise recording on one junction.
type JuncConfig struct {
	// Junc is the circuit junction id to record.
	Junc int
	// Omegas is the angular-frequency grid (rad/s, each > 0) of the
	// spectral-density estimator; empty records counting statistics
	// only.
	Omegas []float64
	// Window is the counting-window width τ in seconds. 0 auto-
	// calibrates from the warm-up event rate (see AutoWindow); the
	// chosen τ is part of the recorder's checkpoint state, so resumed
	// runs keep the exact window of the uninterrupted run.
	Window float64
}

// Config lists the junctions a Recorder accumulates.
type Config struct {
	Juncs []JuncConfig
}

// accum is the per-junction accumulator state. All charge cumulants
// are kept in units of e (the natural FCS unit, and better
// conditioned than coulombs²); the Fourier sums keep coulombs so
// spectra come out in A²/Hz directly.
type accum struct {
	// The per-event fields come first so the unconditional part of the
	// recording path — cumulant update plus counting-window advance —
	// touches a single cache line of a struct picked at random from a
	// circuit-sized array (on c432 that array alone is larger than L2).
	//
	// Counting-window cumulants. win is the index of the currently
	// open window (relative to the origin), winQ its accumulated
	// charge. Empty windows are skipped arithmetically — the index
	// advance adds their count to nWin without touching the sums, so a
	// long event gap costs O(1), not O(gap/τ).
	events uint64  // recorded events since origin
	qTot   float64 // net transferred charge since origin (coulombs)
	tau    float64
	win    uint64
	winQ   float64 // units of e
	nWin   uint64  // closed windows
	sumQ   float64 // Σ window charge, units of e
	sumQ2  float64 // Σ window charge², units of e²

	junc int // circuit junction id (window-close observability label)

	// Spectral sums: F(ω) = Σ_events dq·e^{iω(t−origin)}. sumRe and
	// sumIm are adjacent views into the recorder's shared arena, cache-
	// line packed; the grid itself lives in a cold side slice because
	// the uniform-grid fast path never reads it per event.
	//
	// domega is the grid spacing when the ω grid is exactly uniform
	// (ω_k = ω_0 + k·δ in floating point, detected at construction),
	// 0 otherwise; w0 is ω_0. A uniform grid — the standard
	// spectroscopy scan — needs only two Sincos calls per event:
	// e^{iω_k t} follows from e^{iω_0 t} by repeated complex rotation
	// with e^{iδt}.
	w0     float64
	domega float64
	sumRe  []float64
	sumIm  []float64
	omegas []float64

	cfgWindow float64 // configured τ (0 = auto); tau resets to this
}

// Recorder accumulates noise statistics for a set of junctions. A nil
// *Recorder is valid and turns every method into a cheap no-op, so the
// solver hot path pays one predictable branch when recording is off.
//
// Recorder is a registered snapshot root: the statecover pass verifies
// every field is serialized by State, rebuilt by RestoreState, or
// carries a justified waiver.
//
//statecover:root save=State load=RestoreState
type Recorder struct {
	//statecover:immutable junction id -> accumulator index (-1 =
	// unrecorded), built once at construction
	idx []int32
	acc []accum
	// origin is the measurement-window start time all event times are
	// taken relative to (set by Reset).
	origin float64
	//statecover:derived observability handle; passive, never part of
	// the measured state
	obs *obs.Observer
	//statecover:immutable configuration fingerprint, computed once at
	// construction
	hash string
}

// New builds a Recorder over numJuncs junctions. Junction ids must be
// unique and in [0, numJuncs); omegas must be positive.
func New(cfg Config, numJuncs int) (*Recorder, error) {
	if len(cfg.Juncs) == 0 {
		return nil, errors.New("noise: empty config (no junctions to record)")
	}
	r := &Recorder{idx: make([]int32, numJuncs)}
	for i := range r.idx {
		r.idx[i] = -1
	}
	// Validation pass; also sizes the shared arena below.
	var specLen int
	for _, jc := range cfg.Juncs {
		if jc.Junc < 0 || jc.Junc >= numJuncs {
			return nil, fmt.Errorf("noise: junction %d out of range (circuit has %d junctions)", jc.Junc, numJuncs)
		}
		if r.idx[jc.Junc] >= 0 {
			return nil, fmt.Errorf("noise: junction %d configured twice", jc.Junc)
		}
		for _, w := range jc.Omegas {
			if !(w > 0) {
				return nil, fmt.Errorf("noise: junction %d: angular frequency %g must be > 0", jc.Junc, w)
			}
		}
		if jc.Window < 0 {
			return nil, fmt.Errorf("noise: junction %d: window %g must be >= 0", jc.Junc, jc.Window)
		}
		r.idx[jc.Junc] = 0 // mark seen for the dupe check; real index set below
		specLen += specChunk(len(jc.Omegas))
	}
	// All mutated per-accumulator float storage comes from one shared
	// arena: one accumulator's Fourier sums are adjacent and padded to
	// whole cache lines (the per-event spectral update touches exactly
	// its own lines), and with thousands of recorded junctions the
	// storage is one block instead of thousands of scattered small
	// allocations.
	spec := make([]float64, specLen)
	r.acc = make([]accum, 0, len(cfg.Juncs))
	for _, jc := range cfg.Juncs {
		a := accum{
			junc:      jc.Junc,
			cfgWindow: jc.Window,
			tau:       jc.Window,
		}
		if n := len(jc.Omegas); n > 0 {
			chunk := specChunk(n)
			buf := spec[:chunk:chunk]
			spec = spec[chunk:]
			a.sumRe = buf[0:n:n]
			a.sumIm = buf[n : 2*n : 2*n]
			a.omegas = append([]float64(nil), jc.Omegas...)
			a.w0 = a.omegas[0]
			a.domega = uniformSpacing(a.omegas)
		}
		r.idx[jc.Junc] = int32(len(r.acc))
		r.acc = append(r.acc, a)
	}
	r.hash = configHash(&cfg)
	return r, nil
}

// specChunk is the arena footprint of an n-frequency accumulator: re
// and im sums back to back, rounded up to whole 64-byte cache lines so
// consecutive accumulators never share a line.
func specChunk(n int) int {
	return (2*n + 7) &^ 7
}

// uniformSpacing returns the grid spacing δ when omegas is exactly
// ω_0 + k·δ in floating point for every k, and 0 otherwise. Exactness
// matters: the rotation path evaluates e^{iω_k t} for the grid the
// recurrence implies, so it is only taken when that grid IS the
// requested one bit for bit. Grids shorter than 3 gain nothing from
// the recurrence (it would replace two Sincos calls with two Sincos
// calls plus a rotation) and report 0.
func uniformSpacing(omegas []float64) float64 {
	if len(omegas) < 3 {
		return 0
	}
	d := omegas[1] - omegas[0]
	if !(d > 0) {
		return 0
	}
	for k := 2; k < len(omegas); k++ {
		if !numeric.SameBits(omegas[k], omegas[0]+float64(k)*d) {
			return 0
		}
	}
	return d
}

// configHash fingerprints everything that shapes the accumulator
// layout, so RestoreState can reject state from a differently
// configured recorder (FNV-1a over juncs, ω grids and windows).
func configHash(cfg *Config) string {
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
	for _, jc := range cfg.Juncs {
		mix(uint64(jc.Junc))
		mixf(jc.Window)
		mix(uint64(len(jc.Omegas)))
		for _, w := range jc.Omegas {
			mixf(w)
		}
	}
	return fmt.Sprintf("%016x", h)
}

// SetObserver attaches an observability handle (nil disables). Called
// by the solver so window closures surface as metrics/journal events.
func (r *Recorder) SetObserver(o *obs.Observer) {
	if r != nil {
		r.obs = o
	}
}

// Add accumulates one applied tunnel event: dq conventional charge
// (coulombs, signed A->B) crossed junction j at simulated time t. The
// nil and not-recorded fast paths cost one branch each; the recording
// path is allocation-free (gated by the zero-alloc suite).
//
//semsim:hot
func (r *Recorder) Add(j int, t, dq float64) {
	if r == nil {
		return
	}
	k := r.idx[j]
	if k < 0 {
		return
	}
	r.add(int(k), t, dq)
}

//semsim:hot
func (r *Recorder) add(k int, t, dq float64) {
	a := &r.acc[k]
	ts := t - r.origin
	a.events++
	a.qTot += dq
	if a.tau > 0 {
		if w := uint64(ts / a.tau); w > a.win {
			// Close the open window; the (w - win - 1) windows between it
			// and the event's window were empty and only advance the count.
			a.sumQ += a.winQ
			a.sumQ2 += a.winQ * a.winQ
			closed := w - a.win
			a.nWin += closed
			a.win = w
			if r.obs != nil {
				// Guarded so the no-observer path never reads the cold
				// junc field just to build arguments.
				r.obs.NoiseWindow(a.junc, closed, a.winQ, t)
			}
			a.winQ = 0
		}
		a.winQ += dq * (1 / units.E)
	}
	if n := len(a.sumRe); n > 0 {
		if a.domega != 0 {
			// Uniform grid: two Sincos calls seed e^{iω_0 ts} and the
			// rotation step e^{iδ·ts}; each further frequency is one
			// complex multiply. The recurrence drifts by O(n) ulps over
			// the grid — far below the estimator's statistical error —
			// and is identical on every run, so determinism holds.
			s, c := math.Sincos(a.w0 * ts)
			sd, cd := s, c
			if !numeric.SameBits(a.domega, a.w0) {
				// Harmonic grids (ω_k = (k+1)·δ) rotate by the seed
				// phase itself; only offset grids pay a second Sincos.
				sd, cd = math.Sincos(a.domega * ts)
			}
			re, im := a.sumRe[:n], a.sumIm[:n]
			for i := 0; i < n; i++ {
				re[i] += dq * c
				im[i] += dq * s
				s, c = s*cd+c*sd, c*cd-s*sd
			}
		} else {
			for i, w := range a.omegas {
				s, c := math.Sincos(w * ts)
				a.sumRe[i] += dq * c
				a.sumIm[i] += dq * s
			}
		}
	}
	r.obs.NoiseEvent()
}

// Reset restarts every accumulator with measurement origin t, keeping
// the configured — or auto-calibrated — window widths. The solver
// calls it from ResetMeasurement at the warm-up/measurement boundary.
func (r *Recorder) Reset(t float64) {
	if r == nil {
		return
	}
	r.origin = t
	for i := range r.acc {
		a := &r.acc[i]
		a.win, a.winQ, a.nWin, a.sumQ, a.sumQ2 = 0, 0, 0, 0, 0
		for j := range a.sumRe {
			a.sumRe[j] = 0
			a.sumIm[j] = 0
		}
		a.qTot, a.events = 0, 0
	}
}

// FullReset is Reset plus a rollback of auto-calibrated window widths
// to their configured values, so a solver session Reset between tasks
// is bit-identical to building the recorder fresh.
func (r *Recorder) FullReset(t float64) {
	if r == nil {
		return
	}
	for i := range r.acc {
		r.acc[i].tau = r.acc[i].cfgWindow
	}
	r.Reset(t)
}

// AutoWindow calibrates every Window == 0 junction from the warm-up
// phase: τ = DefaultWindowEvents·elapsed/events, so an average window
// holds about DefaultWindowEvents tunnel events. Junctions with a
// configured window are untouched; with no events (blockaded warm-up)
// auto windows stay disabled. The chosen τ is pure arithmetic on
// deterministic inputs and travels in State, so resumed runs use the
// identical window.
func (r *Recorder) AutoWindow(events uint64, elapsed float64) {
	if r == nil || events == 0 || elapsed <= 0 {
		return
	}
	tau := DefaultWindowEvents * elapsed / float64(events)
	for i := range r.acc {
		if a := &r.acc[i]; a.cfgWindow == 0 && a.tau == 0 {
			a.tau = tau
		}
	}
}

// RunStats is one run's finalized noise measurement on one junction:
// raw cumulants plus the derived spectrum, ready to fold across runs
// (Fold) or to read directly (Fano).
type RunStats struct {
	// T is the elapsed measurement time (seconds) and MeanI = Q/T the
	// mean conventional current (amperes).
	T     float64 `json:"t"`
	MeanI float64 `json:"mean_i"`
	// Events counts recorded tunnel events in the window.
	Events uint64 `json:"events"`
	// Window is the counting-window width τ (0 = windows disabled);
	// Windows the closed-window count and SumQ/SumQ2 the charge
	// cumulants over them, in units of e.
	Window  float64 `json:"window,omitempty"`
	Windows uint64  `json:"windows,omitempty"`
	SumQ    float64 `json:"sum_q,omitempty"`
	SumQ2   float64 `json:"sum_q2,omitempty"`
	// Omegas and S carry the spectral-density estimate (A²/Hz) at each
	// grid frequency.
	Omegas []float64 `json:"omegas,omitempty"`
	S      []float64 `json:"s,omitempty"`
}

// Fano returns the run's Fano factor Var(Q)/|⟨Q⟩| over counting
// windows (charge in units of e) and false when it is undefined
// (fewer than 2 windows, or zero mean transfer).
func (rs *RunStats) Fano() (float64, bool) {
	if rs.Windows < 2 {
		return 0, false
	}
	n := float64(rs.Windows)
	mean := rs.SumQ / n
	if mean == 0 {
		return 0, false
	}
	varQ := rs.SumQ2/n - mean*mean
	return varQ / math.Abs(mean), true
}

// Stats reads the finalized statistics of junction j at measurement
// time t (the caller's current simulated time) without disturbing the
// accumulators; ok is false when j is not recorded. Windows counts
// every complete window elapsed by t — including the currently open
// window's predecessors — so the estimate uses all available data.
func (r *Recorder) Stats(j int, t float64) (RunStats, bool) {
	if r == nil || j < 0 || j >= len(r.idx) || r.idx[j] < 0 {
		return RunStats{}, false
	}
	a := &r.acc[r.idx[j]]
	T := t - r.origin
	rs := RunStats{T: T, Events: a.events, Window: a.tau}
	if T > 0 {
		rs.MeanI = a.qTot / T
	}
	if a.tau > 0 {
		rs.SumQ, rs.SumQ2 = a.sumQ, a.sumQ2
		rs.Windows = a.nWin
		if T > 0 {
			if c := uint64(T / a.tau); c > a.win {
				// The open window and any trailing empties completed too.
				rs.SumQ += a.winQ
				rs.SumQ2 += a.winQ * a.winQ
				rs.Windows += c - a.win
			}
		}
	}
	if len(a.omegas) > 0 && T > 0 {
		rs.Omegas = append([]float64(nil), a.omegas...)
		rs.S = make([]float64, len(a.omegas))
		ibar := a.qTot / T
		for i, w := range a.omegas {
			// Periodogram with the finite-window DC term subtracted:
			// S(ω) = (2/T)|F(ω) − Ī·W(ω)|², W(ω) = ∫₀ᵀ e^{iωt} dt.
			sinT, cosT := math.Sincos(w * T)
			re := a.sumRe[i] - ibar*(sinT/w)
			im := a.sumIm[i] - ibar*((1-cosT)/w)
			rs.S[i] = 2 * (re*re + im*im) / T
		}
	}
	return rs, true
}

// Stats is a folded cross-run noise measurement of one junction: the
// deterministic reduction of per-run RunStats the jobs engine reports
// per operating point.
type Stats struct {
	// Runs counts the folded (non-blockaded) runs.
	Runs int `json:"runs"`
	// MeanI is the run-averaged mean current (amperes).
	MeanI float64 `json:"mean_i"`
	// Window is the run-averaged counting-window width τ and Windows
	// the total closed windows across runs.
	Window  float64 `json:"window,omitempty"`
	Windows uint64  `json:"windows,omitempty"`
	// Fano is the run-averaged Fano factor with its standard error
	// across runs (0 when fewer than 2 runs measured one).
	Fano    float64 `json:"fano,omitempty"`
	FanoErr float64 `json:"fano_err,omitempty"`
	// Omegas, S and SErr carry the run-averaged spectral density and
	// its standard error across runs (A²/Hz).
	Omegas []float64 `json:"omegas,omitempty"`
	S      []float64 `json:"s,omitempty"`
	SErr   []float64 `json:"s_err,omitempty"`
}

// Fold reduces per-run statistics into one cross-run measurement. The
// caller supplies runs in deterministic (run-index) order and Fold
// accumulates in that order, so — like the jobs engine's current fold
// — the result is bit-identical at any worker count or schedule.
// Fano factors and spectra are averaged across runs rather than pooled
// (each run is an independent estimate; averaging gives an unbiased
// mean with a standard error even when auto-calibrated windows differ
// per run), while window counts and event totals sum.
func Fold(runs []RunStats) Stats {
	var st Stats
	var fanos []float64
	var nOmega int
	for i := range runs {
		r := &runs[i]
		st.Runs++
		st.MeanI += r.MeanI
		st.Window += r.Window
		st.Windows += r.Windows
		if f, ok := r.Fano(); ok {
			fanos = append(fanos, f)
		}
		if len(r.S) > 0 {
			if st.S == nil {
				nOmega = len(r.S)
				st.Omegas = append([]float64(nil), r.Omegas...)
				st.S = make([]float64, nOmega)
				st.SErr = make([]float64, nOmega)
			}
			if len(r.S) == nOmega {
				for k, s := range r.S {
					st.S[k] += s
					st.SErr[k] += s * s
				}
			}
		}
	}
	if st.Runs == 0 {
		return st
	}
	n := float64(st.Runs)
	st.MeanI /= n
	st.Window /= n
	st.Fano, st.FanoErr = meanStderr(fanos)
	for k := range st.S {
		mean := st.S[k] / n
		st.S[k] = mean
		if st.Runs > 1 {
			varS := (st.SErr[k] - n*mean*mean) / (n - 1)
			if varS < 0 {
				varS = 0
			}
			st.SErr[k] = math.Sqrt(varS / n)
		} else {
			st.SErr[k] = 0
		}
	}
	return st
}

// meanStderr reduces samples to their mean and standard error.
func meanStderr(xs []float64) (mean, stderr float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	n := float64(len(xs))
	for _, x := range xs {
		mean += x
	}
	mean /= n
	if len(xs) < 2 {
		return mean, 0
	}
	var ss float64
	for _, x := range xs {
		ss += (x - mean) * (x - mean)
	}
	return mean, math.Sqrt(ss / (n - 1) / n)
}
