// Package master solves the steady-state master equation of a
// single-island circuit (a SET): the occupation probabilities of each
// island charge state and the resulting junction currents.
//
// The paper lists the master-equation approach as one of the three
// established simulation methods; here it serves as an independent
// reference implementation against which the Monte Carlo engine is
// validated quantitatively (Section IV-A validates against SIMON and
// analytics; this package is our substitute for those).
//
// For one island the charge states form a birth-death chain, so the
// stationary distribution follows from the flow-balance recursion
//
//	p(n+1) = p(n) * Gamma_up(n) / Gamma_down(n+1)
//
// and the current through any junction is e * sum_n p(n) * (net rate).
package master

import (
	"errors"
	"fmt"
	"math"

	"semsim/internal/circuit"
	"semsim/internal/obs"
	"semsim/internal/orthodox"
	"semsim/internal/super"
	"semsim/internal/units"
)

// Result holds the steady-state solution.
type Result struct {
	// NMin is the charge state of P[0]; P[i] is the probability of the
	// island holding NMin+i excess electrons.
	NMin int
	P    []float64
	// Current is the conventional steady-state current (amperes) from
	// node A to node B of each junction.
	Current []float64
	// MeanN is the average excess electron number.
	MeanN float64
}

// Solve computes the steady state of a built single-island circuit at
// temperature temp, considering island charge states in [nmin, nmax].
// Sources are evaluated at t = 0, so only DC operating points make
// sense here. Superconducting circuits use the quasi-particle rate
// (first order only; no Cooper-pair or cotunneling contributions).
func Solve(c *circuit.Circuit, temp float64, nmin, nmax int) (*Result, error) {
	defer obs.GlobalSpan("master.solve").End()
	if c.NumIslands() != 1 {
		return nil, fmt.Errorf("master: need exactly 1 island, have %d", c.NumIslands())
	}
	if nmax <= nmin {
		return nil, errors.New("master: empty charge-state window")
	}
	island := c.Islands()[0]
	nj := c.NumJunctions()

	var qpTabs []*super.QPTable
	sp := c.Super()
	if sp.Superconducting() {
		if temp <= 0 {
			return nil, errors.New("master: superconducting solve requires T > 0")
		}
		gap := super.Gap(sp.GapAt0, sp.Tc, temp)
		maxV := 0.0
		for _, id := range c.Externals() {
			if v := c.SourceVoltage(id, 0); v > maxV {
				maxV = v
			} else if -v > maxV {
				maxV = -v
			}
		}
		vmax := (8*gap+8*units.ChargingEnergy(c.SumCapacitance(island)))/units.E + 4*maxV
		qpTabs = make([]*super.QPTable, nj)
		byR := map[float64]*super.QPTable{}
		for j := 0; j < nj; j++ {
			r := c.Junction(j).R
			tab, ok := byR[r]
			if !ok {
				var err error
				tab, err = super.NewQPTable(r, gap, gap, temp, vmax)
				if err != nil {
					return nil, err
				}
				byR[r] = tab
			}
			qpTabs[j] = tab
		}
	}

	ns := nmax - nmin + 1
	// rateOn[j][i]: electron tunnels through junction j onto the island
	// while it holds nmin+i electrons; rateOff[j][i]: off the island.
	rateOn := make([][]float64, nj)
	rateOff := make([][]float64, nj)
	for j := range rateOn {
		rateOn[j] = make([]float64, ns)
		rateOff[j] = make([]float64, ns)
	}
	nvec := make([]int, 1)
	for i := 0; i < ns; i++ {
		nvec[0] = nmin + i
		v := c.IslandPotentials(nil, nvec, 0)
		vi := v[0]
		for j := 0; j < nj; j++ {
			jn := c.Junction(j)
			lead := jn.A
			if lead == island {
				lead = jn.B
			}
			vl := c.SourceVoltage(lead, 0)
			dwOn := c.DeltaWElectron(lead, island, vl, vi)
			dwOff := c.DeltaWElectron(island, lead, vi, vl)
			if qpTabs != nil {
				rateOn[j][i] = qpTabs[j].Rate(dwOn)
				rateOff[j][i] = qpTabs[j].Rate(dwOff)
			} else {
				rateOn[j][i] = orthodox.Rate(dwOn, jn.R, temp)
				rateOff[j][i] = orthodox.Rate(dwOff, jn.R, temp)
			}
		}
	}

	// Stationary distribution of the birth-death chain, computed in log
	// space: adjacent-state rate ratios reach exp(dE/kT) with dE
	// hundreds of kT at the window edges, far beyond float64 range.
	lp := make([]float64, ns)
	lp[0] = 0
	for i := 0; i+1 < ns; i++ {
		up := 0.0
		down := 0.0
		for j := 0; j < nj; j++ {
			up += rateOn[j][i]
			down += rateOff[j][i+1]
		}
		switch {
		case down <= 0 && up > 0:
			// The chain cannot return from state i+1: everything below
			// is transient. Restart the measure there.
			for k := 0; k <= i; k++ {
				lp[k] = math.Inf(-1)
			}
			lp[i+1] = 0
		case up <= 0:
			// State i+1 is unreachable from below (until a later
			// restart); -Inf propagates through the recursion.
			lp[i+1] = math.Inf(-1)
		default:
			lp[i+1] = lp[i] + math.Log(up) - math.Log(down)
		}
	}
	maxLp := math.Inf(-1)
	for _, v := range lp {
		if v > maxLp {
			maxLp = v
		}
	}
	if math.IsInf(maxLp, -1) {
		return nil, errors.New("master: no reachable states (fully blockaded window)")
	}
	p := make([]float64, ns)
	sum := 0.0
	for i, v := range lp {
		p[i] = math.Exp(v - maxLp)
		sum += p[i]
	}
	for i := range p {
		p[i] /= sum
	}

	res := &Result{NMin: nmin, P: p, Current: make([]float64, nj)}
	for i, pi := range p {
		res.MeanN += pi * float64(nmin+i)
		for j := 0; j < nj; j++ {
			jn := c.Junction(j)
			// Electron onto the island through j: if A is the lead,
			// electrons flow A->B, conventional current B->A (negative
			// A->B). Off the island: the reverse.
			sign := 1.0
			if jn.A != island { // A is the lead
				sign = -1.0
			}
			res.Current[j] += pi * sign * units.E * (rateOn[j][i] - rateOff[j][i])
		}
	}
	return res, nil
}
