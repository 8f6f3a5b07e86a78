package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"time"

	"semsim/internal/circuit"
	"semsim/internal/jobs"
	"semsim/internal/netlist"
	"semsim/internal/obs"
)

// ivWorkload is the `semsim -workers 2 -checkpoint-dir <tmp>
// -checkpoint-every 2048 deck.cir` path on the cotunneling I-V deck:
// netlist.Parse, then jobs.ExecuteDeck with checkpointing on, then the
// output checks.
type ivWorkload struct {
	text string
	dir  string // holds one fresh checkpoint directory per repetition
	last *netlist.Compiled
	// corrupt, when set, alters each result before it is checked (tests
	// use it to prove a wrong output counts as a failure).
	corrupt func([]jobs.Point)
}

// ivCheckpointEvery is the checkpoint cadence in events: every task of
// the deck (6000 events) persists two refresh-aligned snapshots.
const ivCheckpointEvery = 2048

// ivTiny shrinks the deck for smoke tests: 11 points x 2 runs.
var ivTiny = map[string]string{"jumps": "jumps 2500 2", "sweep": "sweep 1 0.04 0.008"}

func newIVWorkload(cfg runConfig) (*ivWorkload, error) {
	var edits map[string]string
	if cfg.scale == "tiny" {
		edits = ivTiny
	}
	text, err := deckText(ivDeck, cfg.seed, edits)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.tmpDir(), "iv-")
	if err != nil {
		return nil, err
	}
	return &ivWorkload{text: text, dir: dir}, nil
}

func (w *ivWorkload) setupSamples() int { return 51 }

func (w *ivWorkload) warmups() int { return 1 }

func (w *ivWorkload) setupOnce(tr *tracer, o *obs.Observer) (setupResult, error) {
	res, cc, err := deckSetupOnce(tr, o, w.text, 0)
	w.last = cc
	return res, err
}

func (w *ivWorkload) rep(tr *tracer, o *obs.Observer) (repResult, error) {
	var r repResult
	start := time.Now()
	var d *netlist.Deck
	parse, err := tr.timed("netlist.parse", func() (err error) {
		d, err = netlist.Parse(strings.NewReader(w.text))
		return err
	})
	if err != nil {
		return r, err
	}
	ckdir, err := os.MkdirTemp(w.dir, "ckpt-")
	if err != nil {
		return r, err
	}
	defer os.RemoveAll(ckdir)
	var pts []jobs.Point
	r.simulate, err = tr.timed("jobs.execute_deck", func() (err error) {
		pts, err = jobs.ExecuteDeck(context.Background(), d, jobs.Overrides{}, jobs.RunConfig{
			Dir: ckdir, Every: ivCheckpointEvery, Workers: deckWorkers,
		})
		return err
	})
	if err != nil {
		return r, err
	}
	if w.corrupt != nil {
		w.corrupt(pts)
	}
	_, _ = tr.timed("check", func() error {
		checkIV(&r.checks, &d.Spec, pts)
		return nil
	})
	r.wall = time.Since(start).Seconds()
	tasks := len(pts) * max(d.Spec.Runs, 1)
	r.checks.add(tasks)
	r.events = measuredEvents(pts)
	r.points = len(pts)
	r.counters = map[string]string{
		"jobs.tasks":             fmt.Sprint(tasks),
		"sweep.simulated_points": fmt.Sprint(len(pts)),
		"jobs.measured_events":   fmt.Sprint(r.events),
		"result.digest":          digestPoints(pts),
	}
	if o != nil {
		r.layers = map[string]float64{
			"netlist.parse_ms":       parse * 1e3,
			"sweep.lattice_points":   float64(len(pts)),
			"sweep.simulated_points": float64(len(pts)),
			"jobs.tasks":             float64(tasks),
		}
	}
	return r, nil
}

// checkIV verifies a symmetric-bias I-V sweep of the recorded junction:
// I(-V) = -I(V) within statistical error, no current deep inside the
// Coulomb blockade, and a finite positive Fano factor at the largest
// biases.
func checkIV(t *tally, spec *netlist.Spec, pts []jobs.Point) {
	if len(spec.RecordJuncs) == 0 || len(pts) == 0 {
		t.check(false, "iv: no recorded junction or no points")
		return
	}
	j := spec.RecordJuncs[0]
	imax := 0.0
	for _, p := range pts {
		imax = math.Max(imax, math.Abs(p.Current[j]))
	}
	t.check(imax > 0 && finite(imax), "iv: largest |I| is %g", imax)
	n := len(pts)
	for i := 0; i < n/2; i++ {
		a, b := pts[i], pts[n-1-i]
		ia, ib := a.Current[j], b.Current[j]
		// The relative error of a current measured from N transfers is
		// sqrt(F/N), with F the measured Fano factor (at least 1: near
		// the threshold cotunneling bunches transfers). Allow six of
		// them, plus a floor for the nearly blockaded points.
		fano := math.Max(1, math.Max(fanoUpper(a, j), fanoUpper(b, j)))
		events := float64(min(a.Events, b.Events))
		sigma := (math.Abs(ia) + math.Abs(ib)) / 2 * math.Sqrt(fano/math.Max(events, 1))
		tol := 6*sigma + 1e-3*imax
		t.check(math.Abs(a.SweepV+b.SweepV) < 1e-9 && math.Abs(ia+ib) <= tol,
			"iv: I(%g V) = %g A but I(%g V) = %g A (tolerance %g A)", a.SweepV, ia, b.SweepV, ib, tol)
	}
	// Deep in the blockade (a fifth of the sweep range, well inside the
	// e/C_sum threshold) only cotunneling and thermal leakage flow.
	for _, p := range pts {
		if math.Abs(p.SweepV) <= spec.Sweep.Max/5 {
			t.check(math.Abs(p.Current[j]) <= 0.02*imax, "iv: |I(%g V)| = %g A inside the blockade (max %g A)",
				p.SweepV, p.Current[j], imax)
		}
	}
	for _, p := range []jobs.Point{pts[0], pts[n-1]} {
		f := p.Noise[j].Fano
		t.check(finite(f) && f > 0, "iv: Fano factor %g at %g V", f, p.SweepV)
	}
}

// fanoUpper is the point's measured Fano factor on junction j plus three
// standard errors (0 when not finite).
func fanoUpper(p jobs.Point, j int) float64 {
	st := p.Noise[j]
	f := st.Fano + 3*st.FanoErr
	if !finite(f) {
		return 0
	}
	return f
}

// buildLayer times BuildWith on an unbuilt copy of the deck's circuit.
func (w *ivWorkload) buildLayer() (float64, error) {
	if w.last == nil {
		return 0, fmt.Errorf("no circuit was compiled")
	}
	return timeBuild(w.last.Circuit, circuit.BuildOptions{})
}

func (w *ivWorkload) describe() (map[string]any, []workerConfig) {
	d, err := netlist.Parse(strings.NewReader(w.text))
	sizes := map[string]any{"checkpoint_every": ivCheckpointEvery}
	if err == nil {
		sw := d.Spec.Sweep
		sizes["points"] = int(math.Round(2*sw.Max/sw.Step)) + 1
		sizes["runs_per_point"] = d.Spec.Runs
		sizes["jumps"] = d.Spec.Jumps
		sizes["junctions"] = 2
	}
	return sizes, []workerConfig{
		{Name: "jobs.ExecuteDeck task workers", Workers: deckWorkers, Engaged: true},
		{Name: "solver within-run pool (2 junctions, below the pool cutoff)", Workers: runtime.GOMAXPROCS(0)},
	}
}

func (w *ivWorkload) close() error { return os.RemoveAll(w.dir) }
