package main

import (
	"fmt"
	"runtime"
	"time"

	"semsim/internal/circuit"
)

// timeBuild rebuilds an unbuilt copy of c with bo and returns the build
// seconds (the circuit.build_s layer); the copy must come out with the
// same C^-1 shape as the original.
func timeBuild(c *circuit.Circuit, bo circuit.BuildOptions) (float64, error) {
	cp := copyUnbuilt(c)
	runtime.GC()
	start := time.Now()
	if err := cp.BuildWith(bo); err != nil {
		return 0, err
	}
	d := time.Since(start).Seconds()
	if got, want := cp.Potentials().NNZ(), c.Potentials().NNZ(); got != want {
		return 0, fmt.Errorf("copied circuit stores %d C^-1 entries, original %d", got, want)
	}
	return d, nil
}

// copyUnbuilt rebuilds c's element list on a fresh, unbuilt circuit
// through circuit's public adders.
func copyUnbuilt(c *circuit.Circuit) *circuit.Circuit {
	cp := circuit.New()
	for id := 0; id < c.NumNodes(); id++ {
		cp.AddNode(c.NodeName(id), c.NodeKindOf(id))
	}
	for id := 0; id < c.NumNodes(); id++ {
		if c.NodeKindOf(id) == circuit.External {
			cp.SetSource(id, c.SourceOf(id))
		} else if q := c.BackgroundCharge(id); q != 0 {
			cp.SetBackgroundCharge(id, q)
		}
	}
	for _, j := range c.Junctions() {
		cp.AddJunction(j.A, j.B, j.R, j.C)
	}
	for _, k := range c.AllCapacitors() {
		cp.AddCap(k.A, k.B, k.C)
	}
	if sp := c.Super(); sp.Superconducting() {
		cp.SetSuper(sp)
	}
	return cp
}

// stepTimes holds the wall time of every sampled event step.
type stepTimes struct {
	us               []float64
	total, inRefresh time.Duration
}

func (st *stepTimes) add(d time.Duration, refreshed bool) {
	st.us = append(st.us, float64(d)/1e3)
	st.total += d
	if refreshed {
		st.inRefresh += d
	}
}

func (st *stepTimes) quantile(q float64) float64 { return quantile(st.us, q) }

// refreshShare is the share of step time spent in steps that ran a full
// refresh.
func (st *stepTimes) refreshShare() float64 {
	return ratio(float64(st.inRefresh), float64(st.total))
}
