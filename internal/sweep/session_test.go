package sweep_test

import (
	"fmt"
	"testing"

	"semsim/internal/jobs"
)

// Each deck worker compiles once and re-seeds its solver per point: a
// session sweep must reproduce the rebuild-per-point reference bit for
// bit.
func TestIVSessionMatchesIV(t *testing.T) {
	d := setDeck(t, "sweep 1 0.02 0.005", "symm 2", "record 1 2", "jumps 3000", "seed 42")
	reg := withObserver(t)
	pts := execute(t, d, 1)
	if builds := reg.Counter("jobs.session_builds").Value(); builds != 1 {
		t.Fatalf("one worker built %d sessions, want 1", builds)
	}
	for i, p := range pts {
		samePoints(t, []jobs.Point{rebuildPoint(t, d, p, i, nil)}, []jobs.Point{p}, fmt.Sprintf("point %d", i))
	}
}

func TestMap2DSessionMatchesMap2D(t *testing.T) {
	d := setDeck(t, "map x 1 -0.03 0.03 5", "map y 3 0 0.0267 3", "record 1 2", "jumps 2000", "seed 9")
	pts := execute(t, d, 1)
	if len(pts) != 5*3 {
		t.Fatalf("grid has %d points, want 5x3", len(pts))
	}
	for i, p := range pts {
		samePoints(t, []jobs.Point{rebuildPoint(t, d, p, i, nil)}, []jobs.Point{p}, fmt.Sprintf("grid point %d", i))
	}
}

// With several runs per point a worker's session serves runs of
// different points in schedule-dependent order; the folded sweep is
// the same bits at any worker count.
func TestIVSessionDeterministicUnderParallelism(t *testing.T) {
	d := setDeck(t, "sweep 1 0.021 0.007", "symm 2", "record 2", "jumps 3000 3", "seed 7")
	reg := withObserver(t)
	ref := execute(t, d, 1)
	if builds, reuses := reg.Counter("jobs.session_builds").Value(), reg.Counter("jobs.session_reuses").Value(); builds != 1 || reuses != 7*3-1 {
		t.Fatalf("one worker: %d session builds and %d reuses, want 1 and %d", builds, reuses, 7*3-1)
	}
	for _, workers := range []int{3, 8} {
		samePoints(t, ref, execute(t, d, workers), fmt.Sprintf("%d workers", workers))
	}
}

// A reused session's noise measurement at point k — after its solver
// ran the earlier points and calibrated an auto window on each — must
// be bit-identical to a fresh build that runs point k alone. Recording
// noise must not perturb the sweep itself.
func TestNoiseSessionReuseBitIdentical(t *testing.T) {
	const sweepLines = "sweep 1 0.02 0.01\nsymm 2\njumps 3000\nseed 42"
	omegas := []float64{1e9, 5e9}
	d := setDeck(t, sweepLines, "record noise 2 1e9 5e9")
	pts := execute(t, d, 1)
	for i, p := range pts {
		samePoints(t, []jobs.Point{rebuildPoint(t, d, p, i, omegas)}, []jobs.Point{p}, fmt.Sprintf("point %d", i))
		if st := p.Noise[2]; st.Windows < 2 || len(st.S) != len(omegas) {
			t.Fatalf("point %d measured %d windows and %d spectral points; the comparison is vacuous", i, st.Windows, len(st.S))
		}
	}

	plain := execute(t, setDeck(t, sweepLines, "record 2"), 1)
	for i := range pts {
		pts[i].Noise = nil
	}
	samePoints(t, plain, pts, "noise recording")
}
