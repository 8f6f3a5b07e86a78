package trace

import (
	"errors"
	"math"
	"testing"

	"semsim/internal/rng"
	"semsim/internal/solver"
)

func ramp(t0, t1, v0, v1 float64, n int) []solver.Sample {
	w := make([]solver.Sample, n)
	for i := range w {
		f := float64(i) / float64(n-1)
		w[i] = solver.Sample{T: t0 + f*(t1-t0), V: v0 + f*(v1-v0)}
	}
	return w
}

func TestCrossingTimeRising(t *testing.T) {
	w := ramp(0, 1, 0, 1, 101)
	tc, ok := CrossingTime(w, 0.5, true, 0)
	if !ok {
		t.Fatal("no crossing found")
	}
	if math.Abs(tc-0.5) > 1e-9 {
		t.Fatalf("crossing at %g, want 0.5", tc)
	}
}

func TestCrossingTimeFalling(t *testing.T) {
	w := ramp(0, 2, 1, 0, 101)
	tc, ok := CrossingTime(w, 0.25, false, 0)
	if !ok {
		t.Fatal("no crossing found")
	}
	if math.Abs(tc-1.5) > 1e-9 {
		t.Fatalf("crossing at %g, want 1.5", tc)
	}
}

func TestCrossingAfter(t *testing.T) {
	// Two rising crossings; 'after' must skip the first.
	w := []solver.Sample{
		{T: 0, V: 0}, {T: 1, V: 1}, {T: 2, V: 0}, {T: 3, V: 1},
	}
	tc, ok := CrossingTime(w, 0.5, true, 1.5)
	if !ok || math.Abs(tc-2.5) > 1e-9 {
		t.Fatalf("crossing after 1.5: got %g ok=%v, want 2.5", tc, ok)
	}
}

func TestCrossingDirectionality(t *testing.T) {
	w := ramp(0, 1, 0, 1, 11)
	if _, ok := CrossingTime(w, 0.5, false, 0); ok {
		t.Fatal("found falling crossing in rising ramp")
	}
}

func TestNoCrossing(t *testing.T) {
	w := ramp(0, 1, 0, 0.4, 11)
	if _, ok := CrossingTime(w, 0.5, true, 0); ok {
		t.Fatal("found crossing below threshold")
	}
	if _, err := PropagationDelay(w, 0, 0.5, 0, true); err != ErrNoCrossing {
		t.Fatalf("want ErrNoCrossing, got %v", err)
	}
}

func TestSmoothConstant(t *testing.T) {
	w := make([]solver.Sample, 50)
	for i := range w {
		w[i] = solver.Sample{T: float64(i), V: 3}
	}
	sm := Smooth(w, 10)
	for i, s := range sm {
		if math.Abs(s.V-3) > 1e-12 {
			t.Fatalf("smoothing changed constant at %d: %g", i, s.V)
		}
	}
}

func TestSmoothKillsAlternation(t *testing.T) {
	// A 0/1 square alternation (single-electron shuttle noise) should
	// average to ~0.5.
	w := make([]solver.Sample, 200)
	for i := range w {
		w[i] = solver.Sample{T: float64(i), V: float64(i % 2)}
	}
	sm := Smooth(w, 20)
	v := sm[150].V
	if math.Abs(v-0.5) > 0.05 {
		t.Fatalf("alternation smoothed to %g, want ~0.5", v)
	}
}

func TestSmoothZeroWindowIdentity(t *testing.T) {
	w := ramp(0, 1, 0, 1, 5)
	sm := Smooth(w, 0)
	for i := range w {
		if sm[i] != w[i] {
			t.Fatal("zero window must be identity")
		}
	}
}

func TestSmoothPreservesTimes(t *testing.T) {
	w := ramp(0, 1, 0, 1, 17)
	sm := Smooth(w, 0.3)
	for i := range w {
		if sm[i].T != w[i].T {
			t.Fatal("smoothing must not move timestamps")
		}
	}
}

func TestPropagationDelay(t *testing.T) {
	// Step at t=1, output ramps from t=2 to t=4 crossing 0.5 at t=3:
	// delay = 2.
	var w []solver.Sample
	w = append(w, solver.Sample{T: 0, V: 0}, solver.Sample{T: 2, V: 0})
	w = append(w, ramp(2, 4, 0, 1, 50)...)
	d, err := PropagationDelay(w, 1, 0.5, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d-2) > 0.05 {
		t.Fatalf("delay %g, want 2", d)
	}
}

func TestPropagationDelayTooShort(t *testing.T) {
	if _, err := PropagationDelay([]solver.Sample{{T: 0, V: 0}}, 0, 0.5, 0, true); err == nil {
		t.Fatal("single-sample waveform accepted")
	}
}

// smoothRef is the direct definition Smooth must reproduce: for every
// sample it re-sums the sample-and-hold segments inside its window,
// O(n·window).
func smoothRef(w []solver.Sample, window float64) []solver.Sample {
	if window <= 0 || len(w) == 0 {
		return w
	}
	out := make([]solver.Sample, len(w))
	for i := range w {
		t0 := w[i].T - window
		acc, dur := 0.0, 0.0
		for k := i - 1; k >= 0; k-- {
			segStart, segEnd := w[k].T, w[k+1].T
			if segStart < t0 {
				segStart = t0
			}
			if segEnd > segStart {
				acc += w[k].V * (segEnd - segStart)
				dur += segEnd - segStart
			}
			if w[k].T <= t0 {
				break
			}
		}
		if dur > 0 {
			out[i] = solver.Sample{T: w[i].T, V: acc / dur}
		} else {
			out[i] = w[i]
		}
	}
	return out
}

// randWave returns n samples of a noisy logic output that steps from 0
// to 1 V halfway through, starting at t = 100 ns. Gaps are minGap plus
// an exponential of mean meanGap; a share dup of the samples repeats the
// previous timestamp.
func randWave(r *rng.Source, n int, minGap, meanGap, dup float64) []solver.Sample {
	w := make([]solver.Sample, n)
	t := 100e-9
	for i := range w {
		if i > 0 && r.Float64() >= dup {
			t += minGap + r.Exp(1/meanGap)
		}
		level := 0.0
		if i >= n/2 {
			level = 1
		}
		w[i] = solver.Sample{T: t, V: level + 0.3*(r.Float64()-0.5)}
	}
	return w
}

// TestSmoothMatchesReference compares Smooth against the direct
// definition on seeded random waveforms, value by value and through
// the delay extraction built on it.
func TestSmoothMatchesReference(t *testing.T) {
	const gap = 2e-12
	cases := []struct {
		name           string
		n              int
		minGap, window float64
		dup            float64
	}{
		{"non-uniform spacing", 4000, 0, 300 * gap, 0},
		{"repeated timestamps", 4000, 0, 300 * gap, 0.3},
		{"trace much longer than window", 20000, 0, 10 * gap, 0.1},
		{"window longer than trace", 500, 0, 2000 * gap, 0.1},
		{"window shorter than every gap", 2000, gap, gap / 2, 0},
		{"two samples", 2, 0, 300 * gap, 0},
		{"one sample", 1, 0, 300 * gap, 0},
	}
	for seed, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := randWave(rng.New(uint64(seed+1)), tc.n, tc.minGap, gap, tc.dup)
			vmax := 0.0
			for _, s := range w {
				vmax = math.Max(vmax, math.Abs(s.V))
			}
			got, want := Smooth(w, tc.window), smoothRef(w, tc.window)
			for i := range want {
				if got[i].T != want[i].T {
					t.Fatalf("sample %d: time %g, want %g", i, got[i].T, want[i].T)
				}
				if d := math.Abs(got[i].V - want[i].V); d > 1e-12*vmax {
					t.Fatalf("sample %d: smoothed %.17g, reference %.17g (|diff| %g)", i, got[i].V, want[i].V, d)
				}
			}
			step := w[0].T
			if tc.n > 1 {
				step = w[tc.n/2-1].T
			}
			d, err := PropagationDelay(w, step, 0.5, tc.window, true)
			tr, ok := CrossingTime(want, 0.5, true, step)
			switch {
			case tc.n < 2:
				if err == nil {
					t.Fatal("delay measured on a single sample")
				}
			case !ok:
				if !errors.Is(err, ErrNoCrossing) {
					t.Fatalf("reference has no crossing; delay %g err %v", d, err)
				}
			case err != nil:
				t.Fatalf("reference crosses at %g; %v", tr, err)
			case math.Abs(d-(tr-step)) > 1e-15:
				t.Fatalf("delay %g s, reference %g s", d, tr-step)
			}
		})
	}
}

var smoothSink []solver.Sample

// BenchmarkSmooth smooths a 200k-sample waveform at the event density
// of the c432 transient, about 9k samples per 20 ns window.
func BenchmarkSmooth(b *testing.B) {
	const window = 20e-9
	w := randWave(rng.New(1), 200000, 0, window/9000, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		smoothSink = Smooth(w, window)
	}
}
