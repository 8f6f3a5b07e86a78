package main

import (
	"errors"
	"fmt"
	"math"
	"time"

	"semsim/internal/bench"
	"semsim/internal/logicnet"
	"semsim/internal/obs"
	"semsim/internal/solver"
	"semsim/internal/trace"
)

func (w *logicWorkload) horizon() float64 { return bench.SettleTime + bench.ObserveFor }

func (w *logicWorkload) rep(tr *tracer, o *obs.Observer) (repResult, error) {
	var r repResult
	st, err := w.setUp(tr, o)
	if err != nil {
		return r, err
	}
	defer st.sim.Close()
	su := st.result()
	r.setup = &su
	s := st.sim
	out := st.ex.Wire[w.b.OutputWire]
	start := time.Now()
	var steps stepTimes
	r.simulate, err = tr.timed("solver.run", func() error {
		s.AddProbe(out)
		if o != nil {
			return w.runSampled(s, &steps)
		}
		_, err := s.Run(w.budget, w.horizon())
		return err
	})
	if err != nil && !errors.Is(err, solver.ErrBlockaded) {
		return r, err
	}
	var delay, delaySeconds float64
	_, _ = tr.timed("check", func() error {
		delay, delaySeconds = w.check(&r.checks, tr, st)
		return nil
	})
	r.wall = su.seconds + time.Since(start).Seconds()
	stats := s.Stats()
	r.events = stats.Events
	r.points = 1
	r.counters = map[string]string{
		"solver.events":     fmt.Sprint(stats.Events),
		"solver.rate_calcs": fmt.Sprint(stats.RateCalcs),
		"result.digest":     digestFloats(delay, s.Time(), stats.Dissipated, stats.CinvErrorBound),
	}
	if o != nil {
		r.layers = map[string]float64{
			"solver.step_us_p50":         steps.quantile(0.5),
			"solver.step_us_p99":         steps.quantile(0.99),
			"solver.refresh_share":       steps.refreshShare(),
			"solver.cinv_error_bound_nv": stats.CinvErrorBound * 1e9,
			"trace.delay_s":              delaySeconds,
		}
	}
	return r, nil
}

// check verifies the transient's outputs and returns the measured
// propagation delay (0 on a budgeted run, which stops mid-transient)
// with the seconds trace.PropagationDelay took to extract it.
func (w *logicWorkload) check(t *tally, tr *tracer, st *logicSetup) (float64, float64) {
	s, ex := st.sim, st.ex
	if w.budget > 0 {
		stats := s.Stats()
		t.check(stats.Events == w.budget, "%s: %d events, budget %d", w.b.Name, stats.Events, w.budget)
		// The engine's bound at the settled neutral state is the committed
		// 8.2 nV; the solver's running bound grows between refreshes and
		// must stay a small fraction of the logic swing.
		nb := neutralRefreshBound(ex)
		t.check(nb < maxCinvErrorBound, "%s: neutral-state C^-1 error bound %.3g V >= %.3g V",
			w.b.Name, nb, maxCinvErrorBound)
		limit := maxRunningBoundFrac * ex.Params.Vdd()
		t.check(stats.CinvErrorBound > 0 && stats.CinvErrorBound < limit,
			"%s: running C^-1 error bound %.3g V outside (0, %.3g V)", w.b.Name, stats.CinvErrorBound, limit)
		return 0, 0
	}
	thr := ex.LogicThreshold()
	var delay float64
	seconds, err := tr.timed("trace.delay", func() (err error) {
		delay, err = trace.PropagationDelay(s.Waveform(ex.Wire[w.b.OutputWire]),
			bench.SettleTime+bench.StepRamp, thr, 20e-9, w.b.OutputRises)
		return err
	})
	t.check(err == nil, "%s: no propagation delay: %v", w.b.Name, err)
	want, err := st.nl.Eval(w.finalInputs(st.nl))
	t.check(err == nil, "%s: evaluate netlist: %v", w.b.Name, err)
	levels := map[string]bool{}
	for _, out := range st.nl.Outputs {
		levels[out] = s.Potential(ex.Wire[out]) > thr
	}
	checkLevels(t, st.nl.Outputs, levels, want)
	return delay, seconds
}

// maxRunningBoundFrac bounds the solver's running C^-1 error bound as a
// fraction of Vdd: 1e-3 keeps it a thousandth of the logic swing.
const maxRunningBoundFrac = 1e-3

// neutralRefreshBound is the potential error bound of a full refresh at
// the circuit's neutral state (no excess electrons) and t = 0 sources —
// the settled-state figure the potential-engine measurement reports.
func neutralRefreshBound(ex *logicnet.Expanded) float64 {
	c := ex.Circuit
	qmax, vmax := 0.0, 0.0
	for _, q := range c.ChargeVector(nil, make([]int, c.NumIslands())) {
		qmax = math.Max(qmax, math.Abs(q))
	}
	for _, v := range c.ExternalVoltages(nil, 0) {
		vmax = math.Max(vmax, math.Abs(v))
	}
	return c.Potentials().RefreshErrorBound(qmax, vmax)
}

// finalInputs is the input assignment after the step: the high inputs
// and the toggled input at logic 1, the rest at 0.
func (w *logicWorkload) finalInputs(nl *logicnet.Netlist) map[string]bool {
	in := map[string]bool{}
	for _, name := range nl.Inputs {
		in[name] = false
	}
	for _, name := range w.b.HighInputs {
		in[name] = true
	}
	in[w.b.ToggleInput] = true
	return in
}

// checkLevels compares every declared output's simulated logic level
// with the netlist's boolean evaluation.
func checkLevels(t *tally, outputs []string, got, want map[string]bool) {
	for _, out := range outputs {
		t.check(got[out] == want[out], "output %s at logic %v, netlist evaluates %v", out, got[out], want[out])
	}
}

// runSampled advances s one event at a time, timing each call. Run(1,
// horizon) repeated has exactly the trajectory of one Run(budget,
// horizon): the horizon is absolute and the event cap is checked
// between steps, so the sampled run applies the same events.
func (w *logicWorkload) runSampled(s *solver.Sim, st *stepTimes) error {
	h := w.horizon()
	for (w.budget == 0 || s.Stats().Events < w.budget) && s.Time() < h {
		refreshes := s.Stats().FullRefreshes
		t0 := time.Now()
		n, err := s.Run(1, h)
		st.add(time.Since(t0), s.Stats().FullRefreshes != refreshes)
		if err != nil {
			return err
		}
		if n == 0 {
			return nil
		}
	}
	return nil
}

// buildLayer times BuildWith on an unbuilt copy of the last expanded
// circuit.
func (w *logicWorkload) buildLayer() (float64, error) {
	if w.last == nil {
		return 0, errors.New("no circuit was set up")
	}
	return timeBuild(w.last.Circuit, w.bo)
}
