// Package trace post-processes simulation waveforms: smoothing away
// single-electron granularity and extracting the propagation delays
// that Fig. 7 of the paper compares across solvers.
package trace

import (
	"errors"
	"fmt"
	"math"

	"semsim/internal/numeric"
	"semsim/internal/solver"
)

// Smooth returns a causal moving-average of the waveform with the given
// time window, sampled at the original points. Single-electron steps of
// e/CL on logic wires otherwise alias into spurious threshold
// crossings.
//
// Each output is the time-weighted mean over [t_i - window, t_i] with
// sample-and-hold semantics (sample k holds its value on
// [t_k, t_{k+1})), clipped to the start of the trace; a sample whose
// window holds no duration (the first sample, and any that share its
// time) is returned unchanged. Sample times must be non-decreasing, as
// solver waveforms are. The cost is O(n): one pass builds the prefix
// integral of the waveform and a second slides the window start
// forward.
func Smooth(w []solver.Sample, window float64) []solver.Sample {
	if window <= 0 || len(w) == 0 {
		return w
	}
	// area[k] is the integral from t_0 to t_k as a Neumaier sum
	// hi + lo. Window areas difference hi and lo separately, so they
	// keep full precision however long the trace is relative to the
	// window.
	type sum struct{ hi, lo float64 }
	area := make([]sum, len(w))
	var hi, lo float64
	for k := 1; k < len(w); k++ {
		x := w[k-1].V * (w[k].T - w[k-1].T)
		t := hi + x
		if math.Abs(hi) >= math.Abs(x) {
			lo += (hi - t) + x
		} else {
			lo += (x - t) + hi
		}
		hi = t
		area[k] = sum{hi, lo}
	}
	out := make([]solver.Sample, len(w))
	j := 0 // window-start pointer: the last sample before i with t_j <= t0, once one exists
	for i := range w {
		t0 := w[i].T - window
		for j+1 < i && w[j+1].T <= t0 {
			j++
		}
		var acc, dur float64
		if j < i && w[j].T <= t0 {
			// The window opens inside segment j, which holds w[j].V
			// on [t0, t_{j+1}).
			acc = (area[i].hi - area[j+1].hi) + (area[i].lo - area[j+1].lo) +
				w[j].V*(w[j+1].T-t0)
			dur = w[i].T - t0
		} else {
			acc = area[i].hi + area[i].lo
			dur = w[i].T - w[0].T
		}
		if dur > 0 {
			out[i] = solver.Sample{T: w[i].T, V: acc / dur}
		} else {
			out[i] = w[i]
		}
	}
	return out
}

// CrossingTime returns the first time after 'after' at which the
// waveform crosses the threshold in the given direction, linearly
// interpolated between samples. ok is false if no crossing exists.
func CrossingTime(w []solver.Sample, threshold float64, rising bool, after float64) (t float64, ok bool) {
	for i := 1; i < len(w); i++ {
		if w[i].T <= after {
			continue
		}
		a, b := w[i-1], w[i]
		var crossed bool
		if rising {
			crossed = a.V < threshold && b.V >= threshold
		} else {
			crossed = a.V > threshold && b.V <= threshold
		}
		if !crossed {
			continue
		}
		if numeric.SameBits(b.V, a.V) {
			return b.T, true
		}
		f := (threshold - a.V) / (b.V - a.V)
		return a.T + f*(b.T-a.T), true
	}
	return 0, false
}

// ErrNoCrossing indicates the output never crossed the threshold.
var ErrNoCrossing = errors.New("trace: waveform never crossed the threshold")

// PropagationDelay measures the 50%-swing delay from an input step at
// stepTime to the output's threshold crossing. The waveform is smoothed
// over smoothWindow first (0 disables smoothing); rising selects the
// output transition direction.
func PropagationDelay(w []solver.Sample, stepTime, threshold, smoothWindow float64, rising bool) (float64, error) {
	if len(w) < 2 {
		return 0, fmt.Errorf("trace: waveform has %d samples", len(w))
	}
	sm := Smooth(w, smoothWindow)
	t, ok := CrossingTime(sm, threshold, rising, stepTime)
	if !ok {
		return 0, ErrNoCrossing
	}
	return t - stepTime, nil
}
