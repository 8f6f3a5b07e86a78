package solver

import (
	"math"

	"semsim/internal/cotunnel"
	"semsim/internal/invariant"
	"semsim/internal/numeric"
	"semsim/internal/obs"
	"semsim/internal/super"
	"semsim/internal/units"
)

// --- Potentials ---
//
// Island potentials are updated incrementally after every event:
// moving charge mq from src to dst shifts island k by
// mq*(Cinv[src][k] - Cinv[dst][k]). All C^-1 arithmetic goes through
// the potential engine s.pe, which walks only the stored nonzeros of
// the two ε-truncated rows, O(k) per event. On adaptive runs the same
// walk records each island's shift (s.dp), which the adaptive test
// reads instead of looking C^-1 entries up. (An earlier lazy-replay
// scheme deferred these adds per island; its bookkeeping dominated the
// adaptive solver's cost on the largest benchmarks.)

// nodeV returns the potential of any node.
func (s *Sim) nodeV(node int) float64 {
	if k := s.c.IslandIndex(node); k >= 0 {
		return s.v[k]
	}
	return s.sourceVoltage(node, s.t)
}

// sourceVoltage is the override-aware replacement for
// circuit.SourceVoltage inside the solver: it returns the voltage of
// external node id at time t, substituting any per-Sim DC override
// installed by Reset. The substituted value is the exact float a
// circuit compiled with that DC source would produce, so overridden and
// recompiled runs are bit-identical.
func (s *Sim) sourceVoltage(id int, t float64) float64 {
	if s.srcMask != nil {
		if e := s.extIdxOf[id]; e >= 0 && s.srcMask[e] {
			return s.srcOverride[e]
		}
	}
	return s.c.SourceVoltage(id, t)
}

// externalVoltages fills dst (allocated when nil) with every external
// voltage at time t, in external order, honouring per-Sim DC overrides.
func (s *Sim) externalVoltages(dst []float64, t float64) []float64 {
	dst = s.c.ExternalVoltages(dst, t)
	if s.srcMask != nil {
		for e, on := range s.srcMask {
			if on {
				dst[e] = s.srcOverride[e]
			}
		}
	}
	return dst
}

// pick resolves a precomputed (island index, external index) node
// reference against the potential and external-voltage arrays; exactly
// one of the two indices is >= 0.
func pick(v, extV []float64, isl, ext int32) float64 {
	if isl >= 0 {
		return v[isl]
	}
	return extV[ext]
}

// refreshExtV refills the external-voltage cache at the current time.
// It must run after every change of s.t and before any rate
// recomputation: the kernels read extV instead of dispatching into
// Source implementations per evaluation, and the cached values are the
// exact floats SourceVoltage returns at the same t. Static circuits
// fill once.
func (s *Sim) refreshExtV() {
	if s.extVFresh && s.static {
		return
	}
	for i, id := range s.extIDs {
		s.extV[i] = s.sourceVoltage(id, s.t)
	}
	s.extVFresh = true
}

// --- Rate computation ---
//
// Every rate kernel below reads the potential state (s.v, s.extV) and
// immutable tables, and stages each rate into the selection tree where
// it computes it, in list order. Staging writes only the channel's own
// tree slot (the tree is committed at the next selection), so no
// kernel reads what another stages.
//
// The exact-vs-table-vs-superconducting decision is made once at
// construction (s.kern); each variant below is a monomorphic loop over
// the flat per-junction constant arrays, with no per-rate dispatch.

// recalcJunctions recomputes and stages both direction rates of the
// listed junctions through the kernel selected at construction,
// refreshing their dW caches and resetting their testing factors.
func (s *Sim) recalcJunctions(js []int) {
	s.stats.RateCalcs += uint64(2 * len(js))
	switch s.kern {
	case kernTable:
		s.computeJuncListTable(js)
	case kernExact:
		s.computeJuncListExact(js)
	case kernExactT0:
		s.computeJuncListT0(js)
	case kernSuper:
		s.computeJuncListSuper(js)
	}
}

// stageJunction caches junction j's dW pair, resets its testing factor
// and stages its rates fw (A->B) and bw (B->A). Electron channels sit at
// indices 2j and 2j+1 by construction.
//
//semsim:hot
func (s *Sim) stageJunction(j int, fw, bw, dwFw, dwBw float64) {
	s.dwFw[j] = dwFw
	s.dwBw[j] = dwBw
	s.b0[j] = 0
	s.fen.stage(2*j, fw)
	s.fen.stage(2*j+1, bw)
}

// computeJuncListExact evaluates the orthodox rate exactly, with the
// float operations of orthodox.Rate in the same order (bit-identical to
// the pre-SoA per-junction path).
//
//semsim:hot
func (s *Sim) computeJuncListExact(js []int) {
	v, extV := s.v, s.extV
	kT := s.kT
	for _, j := range js {
		vA := pick(v, extV, s.juncAIsl[j], s.juncAExt[j])
		vB := pick(v, extV, s.juncBIsl[j], s.juncBExt[j])
		self := s.juncSelfHalfE2[j]
		denom := s.juncDenom[j]
		dwFw := -units.E*(vB-vA) + self
		dwBw := -units.E*(vA-vB) + self
		s.stageJunction(j, kT*numeric.XOverExpm1(dwFw/kT)/denom, kT*numeric.XOverExpm1(dwBw/kT)/denom, dwFw, dwBw)
	}
}

// computeJuncListTable evaluates the orthodox rate through the shared
// flat interpolation table: one uniform-grid panel lookup and a cubic
// Horner per rate.
//
//semsim:hot
func (s *Sim) computeJuncListTable(js []int) {
	v, extV := s.v, s.extV
	flat := s.flatK
	invKT := s.invKT
	for _, j := range js {
		vA := pick(v, extV, s.juncAIsl[j], s.juncAExt[j])
		vB := pick(v, extV, s.juncBIsl[j], s.juncBExt[j])
		self := s.juncSelfHalfE2[j]
		pref := s.ratePref[j]
		dwFw := -units.E*(vB-vA) + self
		dwBw := -units.E*(vA-vB) + self
		gFw, gBw := flat.EvalPair(dwFw*invKT, dwBw*invKT)
		s.stageJunction(j, pref*gFw, pref*gBw, dwFw, dwBw)
	}
}

// computeJuncListT0 is the T <= 0 limit of the orthodox rate.
//
//semsim:hot
func (s *Sim) computeJuncListT0(js []int) {
	v, extV := s.v, s.extV
	for _, j := range js {
		vA := pick(v, extV, s.juncAIsl[j], s.juncAExt[j])
		vB := pick(v, extV, s.juncBIsl[j], s.juncBExt[j])
		self := s.juncSelfHalfE2[j]
		denom := s.juncDenom[j]
		dwFw := -units.E*(vB-vA) + self
		dwBw := -units.E*(vA-vB) + self
		fw, bw := 0.0, 0.0
		if dwFw < 0 {
			fw = -dwFw / denom
		}
		if dwBw < 0 {
			bw = -dwBw / denom
		}
		s.stageJunction(j, fw, bw, dwFw, dwBw)
	}
}

// computeJuncListSuper evaluates quasi-particle rates through the
// per-junction I-V tables.
//
//semsim:hot
func (s *Sim) computeJuncListSuper(js []int) {
	v, extV := s.v, s.extV
	for _, j := range js {
		vA := pick(v, extV, s.juncAIsl[j], s.juncAExt[j])
		vB := pick(v, extV, s.juncBIsl[j], s.juncBExt[j])
		self := s.juncSelfHalfE2[j]
		dwFw := -units.E*(vB-vA) + self
		dwBw := -units.E*(vA-vB) + self
		s.stageJunction(j, s.qpTab[j].Rate(dwFw), s.qpTab[j].Rate(dwBw), dwFw, dwBw)
	}
}

// recalcSecondary recomputes and stages every cotunneling and
// Cooper-pair channel (the non-adaptive solver of Fig. 3's flow). A
// circuit has cotunneling channels or Cooper-pair channels, never both
// (cotunneling is rejected for superconducting circuits at
// construction).
func (s *Sim) recalcSecondary() {
	switch {
	case len(s.secChans) == 0:
	case s.superOn:
		s.computeCooper()
	default:
		s.computeCotunnel()
	}
}

// computeCotunnel evaluates second-order cotunneling rates from the
// precomputed per-channel constants; the tabulated branch inlines
// cotunnel.Kernel.Rate with the same float order.
//
//semsim:hot
func (s *Sim) computeCotunnel() {
	v, extV := s.v, s.extV
	s.stats.RateCalcs += uint64(len(s.secChans))
	if flat := s.cotFlat; flat != nil {
		kT := s.kT
		for i, ci := range s.secChans {
			vSrc := pick(v, extV, s.secSrcIsl[i], s.secSrcExt[i])
			vMid := pick(v, extV, s.secMidIsl[i], s.secMidExt[i])
			vDst := pick(v, extV, s.secDstIsl[i], s.secDstExt[i])
			e1 := -units.E*(vMid-vSrc) + s.secSelfSM[i]
			e2 := -units.E*(vDst-vMid) + s.secSelfMD[i]
			if e1 <= 0 || e2 <= 0 {
				s.fen.stage(ci, 0) // coexistence rule, as in cotunnel.Rate
				continue
			}
			dw := -units.E*(vDst-vSrc) + s.secSelfSD[i]
			den := 1/e1 + 1/e2
			pref := s.secPref[i] * (den * den)
			s.fen.stage(ci, pref*kT*kT*kT*flat.Eval(dw/kT))
		}
		return
	}
	t := s.opt.Temp
	for i, ci := range s.secChans {
		vSrc := pick(v, extV, s.secSrcIsl[i], s.secSrcExt[i])
		vMid := pick(v, extV, s.secMidIsl[i], s.secMidExt[i])
		vDst := pick(v, extV, s.secDstIsl[i], s.secDstExt[i])
		dw := -units.E*(vDst-vSrc) + s.secSelfSD[i]
		e1 := -units.E*(vMid-vSrc) + s.secSelfSM[i]
		e2 := -units.E*(vDst-vMid) + s.secSelfMD[i]
		s.fen.stage(ci, cotunnel.Rate(dw, e1, e2, s.secR1[i], s.secR2[i], t))
	}
}

// computeCooper evaluates incoherent resonant Cooper-pair rates. The
// lifetime broadening gamma is the total quasi-particle escape rate out
// of the post-tunneling state, summed over the precomputed escape list
// (the events that complete a JQP/DJQP cycle), floored at
// cpWidthFloor * gap / hbar.
//
//semsim:hot
func (s *Sim) computeCooper() {
	v, extV := s.v, s.extV
	floorGamma := cpWidthFloor * s.gap / units.Hbar
	calcs := uint64(len(s.secChans))
	for i, ci := range s.secChans {
		ej := s.ej[s.chJunc[ci]]
		if ej <= 0 {
			s.fen.stage(ci, 0)
			continue
		}
		vSrc := pick(v, extV, s.secSrcIsl[i], s.secSrcExt[i])
		vDst := pick(v, extV, s.secDstIsl[i], s.secDstExt[i])
		dw2 := -(2*units.E)*(vDst-vSrc) + s.secSelfSD[i]
		gamma := 0.0
		for k := s.coopStart[i]; k < s.coopStart[i+1]; k++ {
			jj := int(s.coopJunc[k])
			va := pick(v, extV, s.juncAIsl[jj], s.juncAExt[jj]) + s.coopShiftA[k]
			vb := pick(v, extV, s.juncBIsl[jj], s.juncBExt[jj]) + s.coopShiftB[k]
			self := s.juncSelfHalfE2[jj]
			gamma += s.qpTab[jj].Rate(-units.E*(vb-va) + self)
			gamma += s.qpTab[jj].Rate(-units.E*(va-vb) + self)
			calcs += 2
		}
		if gamma < floorGamma {
			gamma = floorGamma
		}
		s.fen.stage(ci, super.CooperPairRate(dw2, ej, gamma))
	}
	s.stats.RateCalcs += calcs
}

// --- Refresh paths ---

// refreshPotentials recomputes every island potential from scratch, in
// O(stored nnz) over the truncated rows.
func (s *Sim) refreshPotentials() {
	if s.qScratch == nil {
		s.qScratch = make([]float64, s.c.NumIslands())
	}
	s.c.ChargeVector(s.qScratch, s.n)
	s.pe.Solve(s.v, s.qScratch, s.vext)
}

// fullRefresh recomputes everything exactly: external voltages, island
// potentials from scratch (with the refresh interval scaled to the
// junction count its amortized cost is O(islands) per event), all
// channel rates, and the selection tree. The tree is rebuilt bottom-up
// in O(n), which also clears accumulated floating-point drift from
// incremental updates.
func (s *Sim) fullRefresh() {
	sp := s.obs.Span("solver.fullRefresh", s.t)
	preCalcs := s.stats.RateCalcs
	if invariant.Enabled && s.dbgInit {
		// Audit the incremental potentials against a fresh solve (with
		// the pre-refresh external voltages) before overwriting them.
		s.debugCheckPotentialDrift()
	}
	s.stats.FullRefreshes++
	s.vext = s.externalVoltages(s.vext, s.t)
	s.refreshExtV()
	s.refreshPotentials()
	if s.pe.Truncated() {
		// The refresh recomputed potentials from the truncated rows, so
		// the accumulated per-event error collapses to the solve bound.
		qmax, vmax := 0.0, 0.0
		for _, x := range s.qScratch {
			if a := math.Abs(x); a > qmax {
				qmax = a
			}
		}
		for _, x := range s.vext {
			if a := math.Abs(x); a > vmax {
				vmax = a
			}
		}
		s.stats.CinvErrorBound = s.pe.RefreshErrorBound(qmax, vmax)
		s.obs.CinvBound(s.stats.CinvErrorBound)
	}
	s.recalcJunctions(s.allJunc)
	s.recalcSecondary()
	s.fen.rebuild()
	if invariant.Enabled {
		s.dbgInit = true
		s.debugCheckKernels()
		s.debugCheckFenwick()
	}
	s.obs.FullRefresh(s.t)
	s.obs.RateCalcs(s.stats.RateCalcs - preCalcs)
	sp.End()
}

// nonAdaptiveUpdate recomputes all rates after an event (potentials are
// refreshed lazily but every junction touches its nodes, so everything
// becomes fresh). Updates are staged only; the commit is deferred to
// the next selection (top of Step), where one flush covers the whole
// batch.
//
//semsim:hot
func (s *Sim) nonAdaptiveUpdate() {
	preCalcs := s.stats.RateCalcs
	s.recalcJunctions(s.allJunc)
	s.recalcSecondary()
	s.obs.RateCalcs(s.stats.RateCalcs - preCalcs)
}

// testJunction is Algorithm 1's test of junction j, whose testing
// factor would become b: j is flagged for recalculation when
// e|b| >= alpha * min(|dW'fw|, |dW'bw|) over its cached dW pair, and
// otherwise keeps b. depth is the BFS spill depth (0 for an input
// change) the trace records. It reports whether j was flagged.
func (s *Sim) testJunction(j int, b float64, depth int) bool {
	s.stats.Tested++
	thr := math.Min(math.Abs(s.dwFw[j]), math.Abs(s.dwBw[j]))
	flag := units.E*math.Abs(b) >= s.opt.Alpha*thr
	if s.obs.Tracing() {
		s.obs.AdaptiveTest(j, units.E*math.Abs(b), s.opt.Alpha*thr, flag, depth, s.t)
	}
	if flag {
		s.stats.Flagged++
		s.flagged = append(s.flagged, j)
	} else {
		s.b0[j] = b
	}
	return flag
}

// adaptiveUpdate implements Algorithm 1 after the event on channel ci:
// test the event junction(s), flag those whose potential change exceeds
// the threshold, and spill to neighbours of flagged junctions. A tested
// junction's potential change is read from the shift record apply's
// row walk filled (0 for an endpoint the event did not move). The flag
// test reads only the tested junction's own accumulated factor and
// cached dW — never another junction's refreshed rates — so flagged
// junctions are collected first and recomputed as one batch, which
// changes nothing about which junctions flag or what their new rates
// are.
func (s *Sim) adaptiveUpdate(ci int) {
	junc := int(s.chJunc[ci])
	visited, stamp := s.visited, s.bumpStamp()
	queue := s.scratch[:0]
	push := func(j int) {
		if visited[j] != stamp {
			visited[j] = stamp
			queue = append(queue, j)
		}
	}
	push(junc)
	if j2 := int(s.chJunc2[ci]); j2 >= 0 {
		push(j2)
	}
	preCalcs := s.stats.RateCalcs
	depth, levelEnd := 0, len(queue) // seeds are spill depth 0
	s.flagged = s.flagged[:0]
	for head := 0; head < len(queue); head++ {
		if head == levelEnd {
			depth++
			levelEnd = len(queue)
		}
		j := queue[head]
		b := s.b0[j] + s.dp.At(s.juncAIsl[j]) - s.dp.At(s.juncBIsl[j])
		if s.testJunction(j, b, depth) {
			for _, nb := range s.c.JunctionNeighbors(j) {
				push(nb)
			}
		}
	}
	s.scratch = queue
	s.recalcJunctions(s.flagged)
	s.recalcSecondary()
	s.obs.Adaptive(junc, len(queue), len(s.flagged), s.t)
	s.obs.Recomputed(s.flagged)
	s.obs.RateCalcs(s.stats.RateCalcs - preCalcs)
}

// handleInputChange reacts to source voltages moving between t0 and the
// current time: island potentials get the exact external shift, and
// junction rates are either all recomputed (non-adaptive) or tested
// from the junctions in contact with the changed inputs (adaptive).
func (s *Sim) handleInputChange() {
	vextNew := s.externalVoltages(s.vextScratch, s.t)
	changed := false
	for i := range vextNew {
		if !numeric.SameBits(vextNew[i], s.vext[i]) {
			changed = true
			break
		}
	}
	if !changed {
		return
	}
	// Apply the external shift to every island potential (exact up to
	// the engine's mext truncation, whose error is accounted below).
	ni := s.c.NumIslands()
	dv := s.dvIsl
	s.pe.ExternalDelta(dv, s.vext, vextNew)
	for k := 0; k < ni; k++ {
		s.v[k] += dv[k]
	}
	if s.pe.Truncated() {
		dvmax := 0.0
		for i := range vextNew {
			if a := math.Abs(vextNew[i] - s.vext[i]); a > dvmax {
				dvmax = a
			}
		}
		s.stats.CinvErrorBound += s.pe.InputErrorBound(dvmax)
		s.obs.CinvBound(s.stats.CinvErrorBound)
	}
	for i := range vextNew {
		if numeric.SameBits(vextNew[i], s.vext[i]) {
			s.dvExt[i] = 0
		} else {
			s.dvExt[i] = vextNew[i] - s.vext[i]
		}
	}
	// vextNew aliases vextScratch; swap it in as the current snapshot
	// and recycle the old array as the next change's scratch.
	s.vext, s.vextScratch = vextNew, s.vext

	if !s.opt.Adaptive {
		s.obs.InputChange(s.c.NumJunctions(), s.t)
		s.nonAdaptiveUpdate()
		return
	}
	// Inputs couple to junctions through arbitrary capacitor networks
	// (a logic gate's input is a pure capacitor), so there is no local
	// junction set to spill from. Instead the exact potential shift of
	// every node is already known (dvIsl, dvExt): fold it into each
	// junction's accumulated testing factor — O(J) arithmetic with no
	// rate evaluations — and recalculate only those over threshold.
	preCalcs := s.stats.RateCalcs
	s.flagged = s.flagged[:0]
	for j := 0; j < s.c.NumJunctions(); j++ {
		b := s.b0[j] + pick(s.dvIsl, s.dvExt, s.juncAIsl[j], s.juncAExt[j]) -
			pick(s.dvIsl, s.dvExt, s.juncBIsl[j], s.juncBExt[j])
		s.testJunction(j, b, 0)
	}
	s.recalcJunctions(s.flagged)
	s.recalcSecondary()
	s.obs.InputChange(len(s.flagged), s.t)
	s.obs.Recomputed(s.flagged)
	s.obs.RateCalcs(s.stats.RateCalcs - preCalcs)
}

// --- Event application ---

// obsKinds maps channel kinds to journal event kinds.
var obsKinds = [...]obs.Kind{
	chElectron: obs.KindTunnel,
	chCotunnel: obs.KindCotunnel,
	chCooper:   obs.KindCooper,
}

// apply moves channel ci's carriers, updates every island potential
// exactly, and accumulates measured charge, event counts and dissipated
// energy per junction. It returns the free energy change dW of the
// event (for the observability hook in Step).
//
//semsim:hot
func (s *Sim) apply(ci int) float64 {
	kind := s.chKinds[ci]
	src, dst := int(s.chSrc[ci]), int(s.chDst[ci])
	junc := int(s.chJunc[ci])
	q := chQ[kind]
	// Free energy released by this event (evaluated with the exact
	// pre-event potentials; thermal fluctuations can make it negative).
	// Potentials.DeltaW with the channel's cached self-term.
	dw := -q*(s.nodeV(dst)-s.nodeV(src)) + s.chSelfHalfQ2[ci]
	s.stats.Dissipated += -dw
	s.c.ApplyTransfer(s.n, src, dst, chCarriers[kind])
	touched := s.pe.Shift(s.v, src, dst, q, s.dp)
	s.obs.EventTouched(touched)
	// Truncated rows shift each potential with a bounded per-event
	// error; a build that dropped nothing contributes exactly zero.
	s.stats.CinvErrorBound += s.pe.EventErrorBound(q)
	switch kind {
	case chCotunnel:
		s.stats.CotunnelEvents++
		dq := s.chargeSign(junc, src) * q
		s.charge[junc] += dq
		s.noise.Add(junc, s.t, dq)
		junc2 := int(s.chJunc2[ci])
		dq2 := s.chargeSign(junc2, int(s.chMid[ci])) * q
		s.charge[junc2] += dq2
		s.noise.Add(junc2, s.t, dq2)
	case chCooper:
		s.stats.CooperEvents++
		s.evCoop[junc]++
		dq := s.chargeSign(junc, src) * q
		s.charge[junc] += dq
		s.noise.Add(junc, s.t, dq)
	default:
		dq := s.chargeSign(junc, src) * q
		s.charge[junc] += dq
		s.noise.Add(junc, s.t, dq)
	}
	return dw
}

// chargeSign counts the event on junction jid and returns the sign of
// the conventional charge it moved A->B: electrons moving src->dst
// carry -q, so charge +q flows dst->src.
//
//semsim:hot
func (s *Sim) chargeSign(jid, src int) float64 {
	if int(s.juncA[jid]) == src {
		s.evFw[jid]++
		return -1 // electrons A->B: conventional charge B->A
	}
	s.evBw[jid]++
	return 1
}

// --- Main loop ---

// nextCap returns the earliest time at which the solver must stop and
// re-evaluate inputs (PWL breakpoint, ramp subdivision or sine cap),
// or +Inf for static circuits.
//
//semsim:hot
func (s *Sim) nextCap() float64 {
	cap := math.Inf(1)
	if s.horizon > 0 {
		cap = s.horizon
	}
	if s.static {
		return cap
	}
	for _, bp := range s.breaks {
		if bp > s.t {
			if bp < cap {
				cap = bp
			}
			break
		}
	}
	if s.maxStep > 0 && s.t+s.maxStep < cap {
		cap = s.t + s.maxStep
	}
	// Inside a moving PWL ramp, subdivide the segment. The ramp sources
	// were resolved once at construction (collectBreakpoints).
	for _, p := range s.ramps {
		if step := p.RampStep(s.t); step > 0 && s.t+step < cap { //hotalloc:ok interface call once per step per ramp source, not per rate
			cap = s.t + step
		}
	}
	return cap
}

// PWLRamp is implemented by sources that need step subdivision while
// their output is actively changing (circuit.PWL implements it).
type PWLRamp interface {
	RampStep(t float64) float64
}

// Step advances the simulation by one iteration. It returns true if a
// tunnel event was applied, false if the step was capped by an input
// change. ErrBlockaded is returned when nothing can ever happen again.
//
// Selection-tree maintenance is amortized: rate updates staged by the
// previous iteration are committed here, in one flush, just before the
// tree is sampled. The tree state at sampling time is identical to
// flushing eagerly after every update, so trajectories are unchanged.
//
//semsim:hot
func (s *Sim) Step() (bool, error) {
	s.stats.Steps++
	if batch, rebuilt := s.fen.flush(); batch != 0 {
		s.obs.FenwickFlush(batch, rebuilt, s.t)
	}
	if invariant.Enabled {
		s.debugCheckFenwick()
	}
	total := s.fen.total()
	cap := s.nextCap()
	dt := math.Inf(1) // with no positive rate the step can only reach the cap
	if total <= 0 || math.IsInf(1/total, 1) {
		if math.IsInf(cap, 1) {
			return false, ErrBlockaded
		}
	} else {
		dt = s.rnd.Exp(total)
	}
	if s.t+dt > cap {
		// Stopping a Poisson process mid-interval and redrawing is exact
		// (memorylessness), so capping at breakpoints, ramp subdivisions
		// and the run horizon does not bias the dynamics.
		s.t = cap
		s.refreshExtV()
		s.handleInputChange()
		s.recordProbes()
		return false, nil
	}
	s.t += dt
	s.refreshExtV()
	idx := s.fen.find(s.rnd.Float64() * total)
	var preSum int
	if invariant.Enabled {
		preSum = s.islandElectronSum()
	}
	dw := s.apply(idx)
	s.stats.Events++
	s.obs.Event(obsKinds[s.chKinds[idx]], int(s.chJunc[idx]), s.t, dw)
	if s.opt.RefreshEvery > 0 && s.stats.Events%uint64(s.opt.RefreshEvery) == 0 {
		s.fullRefresh()
	} else if s.opt.Adaptive {
		s.adaptiveUpdate(idx)
	} else {
		s.nonAdaptiveUpdate()
	}
	if invariant.Enabled {
		s.debugCheckEvent(idx, preSum)
		s.debugCheckFenwick()
	}
	s.recordProbes()
	return true, nil
}

// Run advances until maxEvents tunnel events have been applied or the
// simulated time reaches maxTime (whichever is positive and comes
// first). A timed run never overshoots maxTime: the last Monte Carlo
// waiting interval is truncated at the horizon, which is unbiased by
// memorylessness and keeps waveforms and current averaging windows
// exact. It returns the number of events applied.
func (s *Sim) Run(maxEvents uint64, maxTime float64) (uint64, error) {
	if maxTime > 0 {
		s.horizon = maxTime
		defer func() { s.horizon = 0 }()
	}
	start := s.stats.Events
	for {
		if maxEvents > 0 && s.stats.Events-start >= maxEvents {
			return s.stats.Events - start, nil
		}
		if maxTime > 0 && s.t >= maxTime {
			return s.stats.Events - start, nil
		}
		if _, err := s.Step(); err != nil {
			return s.stats.Events - start, err
		}
	}
}
