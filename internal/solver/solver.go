// Package solver is the Monte Carlo engine of the simulator (Fig. 3 of
// the paper): an event loop that, each iteration, computes tunneling
// rates for every possible event, draws the waiting time from Eq. 5,
// selects an event with probability proportional to its rate, and
// applies it.
//
// Two solvers share the loop:
//
//   - the non-adaptive solver recomputes every node potential and every
//     junction rate after each event, like conventional MC
//     single-electron simulators;
//   - the adaptive solver (Algorithm 1) accumulates a per-junction
//     testing factor b(i) and recomputes a junction's rates only when
//     the potential change across it since its last recalculation
//     exceeds alpha times its cached free-energy changes, spilling
//     breadth-first to neighbours and refreshing everything
//     periodically to bound the accumulated error.
//
// Secondary effects (cotunneling) and superconducting channels
// (quasi-particle and Cooper-pair tunneling) are always handled by the
// non-adaptive path, as in the paper.
//
// The per-event state is laid out struct-of-arrays: channel descriptors
// and per-junction constants (node indices, C^-1 self-terms, rate
// prefactors) live in flat parallel slices so the rate-recomputation
// loops stream through contiguous memory, and the exact-vs-table
// dispatch is resolved once at construction (kernKind) instead of per
// rate evaluation. See DESIGN.md §11.
package solver

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"semsim/internal/circuit"
	"semsim/internal/cotunnel"
	"semsim/internal/noise"
	"semsim/internal/numeric"
	"semsim/internal/obs"
	"semsim/internal/orthodox"
	"semsim/internal/rng"
	"semsim/internal/super"
	"semsim/internal/units"
)

// Options configures a simulation.
type Options struct {
	// Temp is the temperature in kelvin. Zero is allowed for normal
	// circuits (hard Coulomb blockade) but not superconducting ones.
	Temp float64
	// Adaptive selects the adaptive solver (Algorithm 1) for
	// single-electron tunnel rates.
	Adaptive bool
	// Alpha is the adaptive testing-factor threshold: a junction is
	// recalculated when e*|b(i)| >= Alpha * min(|dW'fw|, |dW'bw|).
	// Smaller is more accurate and slower. Default 0.05.
	Alpha float64
	// RefreshEvery forces a full recalculation of all potentials and
	// rates every N events, bounding the adaptive method's cumulative
	// error. Default: max(1024, number of junctions), so the amortized
	// refresh cost stays a constant number of rate calculations per
	// event on large circuits.
	RefreshEvery int
	// Cotunneling enables second-order inelastic cotunneling channels
	// (normal-state circuits only).
	Cotunneling bool
	// Seed initializes the deterministic random stream.
	Seed uint64
	// Parallel is ignored: every run evaluates its rates serially on the
	// calling goroutine, and a Sim starts no goroutines of its own.
	//
	// Deprecated: kept only while the benchmark harness still sets it.
	Parallel int
	// SparsePotentials is ignored: every circuit stores truncated C^-1
	// rows at its build threshold (circuit.BuildOptions.CinvTruncation),
	// and New uses the circuit's engine as built.
	//
	// Deprecated: kept only while the benchmark harness still sets it.
	SparsePotentials bool
	// CinvTruncation, when nonzero, must equal the C^-1 truncation
	// threshold the circuit was built with; New rejects any other
	// value. It selects nothing: the engine and its accuracy come from
	// the build.
	//
	// Deprecated: kept only while the benchmark harness still sets it.
	// Build the circuit at the threshold instead.
	CinvTruncation float64
	// RateTables evaluates the normal-state orthodox and cotunneling
	// rates through shared error-bounded interpolation tables (relative
	// error < 1e-6, exact evaluation outside the tabulated band)
	// instead of calling exp on every rate. Off by default so results
	// match exact evaluation bit-for-bit; superconducting
	// quasi-particle rates are always tabulated, as before.
	RateTables bool
	// Obs attaches an observability handle: the simulation mirrors its
	// Stats counters into the observer's metric registry and, when the
	// observer traces, journals tunnel events, adaptive decisions and
	// refresh boundaries. Nil falls back to the process-wide observer
	// (obs.Global), which defaults to disabled. Observation is passive —
	// an instrumented run is bit-identical to an uninstrumented one.
	Obs *obs.Observer
}

func (o *Options) setDefaults(numJunctions int) {
	if o.Alpha <= 0 {
		o.Alpha = 0.05
	}
	if o.RefreshEvery <= 0 {
		o.RefreshEvery = 1024
		if numJunctions > o.RefreshEvery {
			o.RefreshEvery = numJunctions
		}
	}
}

// cpWidthFloor is the minimum lifetime broadening hbar*gamma of the
// Cooper-pair resonance, as a fraction of the gap.
const cpWidthFloor = 1e-3

// Event channel kinds.
type chKind uint8

const (
	chElectron chKind = iota // first-order tunneling (quasi-particle when superconducting)
	chCotunnel               // second-order inelastic cotunneling
	chCooper                 // Cooper-pair tunneling
)

// chQ and chCarriers give the tunneled charge magnitude and carrier
// count per channel kind: the per-channel q/carriers fields of the old
// AoS channel struct, now a two-load lookup.
var (
	chQ        = [3]float64{chElectron: units.E, chCotunnel: units.E, chCooper: 2 * units.E}
	chCarriers = [3]int{chElectron: 1, chCotunnel: 1, chCooper: 2}
)

// kernKind selects the first-order rate kernel once at construction, so
// the per-junction recomputation loops are monomorphic: no per-rate
// branching between exact, tabulated and superconducting evaluation.
type kernKind uint8

const (
	kernExact   kernKind = iota // normal state, T > 0, exact x/expm1(x)
	kernExactT0                 // normal state, T <= 0 limit
	kernTable                   // normal state, T > 0, flat interpolation table
	kernSuper                   // superconducting quasi-particle I-V table
)

// Stats counts the work the solver performed; RateCalcs is the
// machine-independent cost metric the paper's adaptive claim is about.
type Stats struct {
	Events         uint64 // applied tunnel events
	Steps          uint64 // loop iterations incl. capped no-event steps
	RateCalcs      uint64 // channel rate evaluations
	FullRefreshes  uint64
	Flagged        uint64 // junctions flagged by the adaptive test
	Tested         uint64 // junctions tested by the adaptive test
	CotunnelEvents uint64
	CooperEvents   uint64
	// Dissipated is the total free energy released by tunnel events
	// (joules) since the simulation started: each event dissipates -dW
	// as heat. This is the quantity behind the paper's motivating claim
	// that SET logic reaches ~1e-18 J per switching event.
	Dissipated float64
	// CinvErrorBound bounds the current per-island potential error
	// (volts) introduced by C^-1 truncation: reset to the refresh bound
	// at every full refresh and grown by per-event and input-change
	// terms in between. Exactly zero on circuits whose build dropped
	// nothing (every single-island circuit, for one).
	CinvErrorBound float64
}

// Sample is one waveform point of a probed node.
type Sample struct {
	T, V float64
}

// Sim is a Monte Carlo simulation bound to one circuit.
//
// Sim is a registered snapshot root: the statecover pass verifies that
// every field is serialized by Checkpoint, rebuilt by Restore (directly
// or through fullRefresh), or carries a justified waiver — so a field
// added without deciding its resume story fails the lint.
//
//statecover:root save=Checkpoint load=Restore
type Sim struct {
	c   *circuit.Circuit
	opt Options
	rnd *rng.Batch

	// pe is the circuit's potential engine (truncated CSR C^-1 rows),
	// which all C^-1-mediated arithmetic goes through.
	pe *circuit.Potentials

	t    float64
	n    []int     // electrons per island (island order)
	v    []float64 // island potentials, exact after every event
	vext []float64 // external voltages at the last refresh/input change

	// Channel descriptors, struct-of-arrays. Electron channels occupy
	// indices 2j (A->B) and 2j+1 (B->A) for junction j; secondary
	// channels (cotunneling, Cooper pairs) follow, listed in secChans.
	//
	//statecover:immutable channel topology, compiled once from the circuit
	chKinds []chKind
	chJunc  []int32 // primary junction id
	//statecover:immutable channel topology, compiled once from the circuit
	chJunc2 []int32 // second junction for cotunneling, else -1
	//statecover:immutable channel topology, compiled once from the circuit
	chSrc []int32 // node ids; carrier moves src -> dst
	//statecover:immutable channel topology, compiled once from the circuit
	chDst []int32
	//statecover:immutable channel topology, compiled once from the circuit
	chMid []int32 // intermediate island for cotunneling, else -1
	// chSelfHalfQ2 is each channel's C^-1 self-term of dW at its own
	// charge q, (Cinv[s][s] - 2 Cinv[s][d] + Cinv[d][d]) q^2 / 2, with
	// the float ops of Potentials.DeltaW, so apply reads the event's dW
	// without a C^-1 lookup.
	//
	//statecover:immutable per-channel constants, compiled once from the circuit
	chSelfHalfQ2 []float64

	fen *fenwick

	// Per-junction adaptive state.
	b0       []float64 // accumulated testing factor (volts)
	dwFw     []float64 // cached dW at last recalc, A->B
	dwBw     []float64
	secChans []int // cotunnel + Cooper channel indices

	// Flat per-junction constants for the rate kernels: the A node id,
	// island or external index per endpoint (-1 for the other), the
	// exact-mode denominator e^2 R, and the constant C^-1 self-term of
	// dW, the A->B channel's chSelfHalfQ2.
	//
	//statecover:immutable per-junction constants, compiled once from the circuit
	juncA              []int32
	juncAIsl, juncBIsl []int32
	juncAExt, juncBExt []int32
	juncDenom          []float64
	juncSelfHalfE2     []float64

	// Kernel dispatch, resolved once at construction.
	kern    kernKind
	kT      float64
	flatK   *numeric.FlatKernel // normal-state g(x) table (kernTable)
	cotFlat *numeric.FlatKernel // cotunneling bracket table (nil: exact)

	// Per-secondary-channel constants, indexed by position in secChans:
	// endpoint island/external indices, dW self-terms (at the channel's
	// charge), and cotunneling resistances and prefactor.
	secSrcIsl, secSrcExt []int32
	secMidIsl, secMidExt []int32
	secDstIsl, secDstExt []int32
	secSelfSD            []float64 // (src,dst) self-term at channel charge
	secSelfSM, secSelfMD []float64 // cotunneling intermediate-hop self-terms
	secR1, secR2         []float64
	secPref              []float64 // tabulated cotunneling prefactor

	// Cooper-pair quasi-particle escape lists: channel i (secChans
	// position) owns coopJunc[coopStart[i]:coopStart[i+1]], with the
	// post-tunneling potential shift of each junction endpoint
	// precomputed (PotentialShift over the immutable C^-1).
	coopStart              []int32
	coopJunc               []int32
	coopShiftA, coopShiftB []float64

	// Per-Sim DC source override layer, installed by Reset so a sweep
	// session can move bias points without recompiling the circuit:
	// srcMask[e] marks external index e as overridden and srcOverride[e]
	// holds its voltage. Every solver-internal source read goes through
	// sourceVoltage/externalVoltages, which substitute these values, so
	// an overridden run computes exactly the floats of a run over a
	// circuit compiled with the same DC values. Nil until the first
	// Reset that overrides anything.
	srcOverride []float64
	srcMask     []bool

	// ckptHash is trajectoryHash of the options, circuit and installed
	// overrides, computed by New and Reset: Checkpoint stamps it and
	// Restore compares against it.
	ckptHash string

	// extV caches the external voltages per external index, refreshed
	// whenever t moves, so rate kernels read array slots instead of
	// dispatching into Source implementations per evaluation.
	extIDs []int
	extV   []float64
	//statecover:immutable node-id indexing, compiled once from the circuit
	extIdxOf  []int32 // node id -> external index, -1 for islands
	extVFresh bool    // static circuits: filled once, never again

	qScratch []float64 // island charge vector for the refresh solve
	allJunc  []int     // identity index list [0, nj)

	// Tabulated normal-state prefactors (nil when exact or
	// superconducting).
	ratePref []float64 // per-junction kT/(e^2 R)
	invKT    float64

	// Superconducting machinery (nil/empty when normal).
	superOn bool
	gap     float64
	qpTab   []*super.QPTable // per junction
	ej      []float64        // per junction Josephson energy

	// Time-dependence.
	static bool
	//statecover:immutable source schedule, compiled once from the circuit
	breaks []float64 // merged PWL breakpoints, sorted
	//statecover:immutable source schedule, compiled once from the circuit
	maxStep float64 // cap for continuous sources (sine/ramps); 0 = none
	//statecover:derived re-established by every Run call before stepping
	horizon float64 // active Run deadline; steps never overshoot it
	//statecover:immutable source schedule, compiled once from the circuit
	ramps []PWLRamp // sources needing ramp subdivision, external order

	// Measurement.
	charge    []float64 // per junction, conventional charge A->B (coulombs)
	evFw      []uint64  // per junction, carrier moves A->B since reset
	evBw      []uint64  // per junction, carrier moves B->A since reset
	evCoop    []uint64  // per junction, Cooper-pair events since reset
	measStart float64
	probes    []int // node ids
	waves     map[int][]Sample

	// Scratch buffers for the adaptive BFS.
	//
	//statecover:derived per-update scratch, dead between adaptive updates
	visited []uint32
	//statecover:derived epoch counter paired with visited; any consistent value is valid
	stamp uint32
	//statecover:derived per-update scratch, dead between adaptive updates
	scratch []int
	//statecover:derived per-update scratch, dead between adaptive updates
	flagged []int // junctions flagged this update, recalculated in batch

	// dp records the potential shift the last event applied to each
	// island: Potentials.Shift fills it while walking the event's two
	// C^-1 rows, and the adaptive test reads it, so b(i) accumulates
	// exactly the applied shift. Nil for non-adaptive runs.
	//
	//statecover:derived per-event record, dead between events
	dp *circuit.ShiftRecord

	// Input-change scratch (no per-change allocation).
	//
	//statecover:derived per-change scratch, dead between input changes
	vextScratch []float64
	//statecover:derived per-change scratch, dead between input changes
	dvIsl []float64 // per-island potential delta of the change
	//statecover:derived per-change scratch, dead between input changes
	dvExt []float64 // per-external voltage delta of the change

	// dbgInit arms the potential-drift invariant once the first full
	// refresh has established a baseline (semsimdebug builds only).
	dbgInit bool

	// obs mirrors Stats into a metric registry and journals events when
	// tracing; nil (the default) makes every hook a no-op branch.
	obs *obs.Observer

	// noise is the optional streaming noise/FCS recorder (EnableNoise);
	// nil keeps the hot path at one predictable branch per applied
	// event. Like obs it is passive — recording never changes the
	// trajectory — but unlike obs its accumulators are measurement
	// state: they checkpoint, restore and reset with the simulation.
	noise *noise.Recorder

	stats Stats
}

// ErrBlockaded is reported by Run when no event has a positive rate and
// no future input change can unblock the circuit — a hard Coulomb
// blockade at T = 0.
var ErrBlockaded = errors.New("solver: circuit is fully Coulomb-blockaded")

// New prepares a simulation. The circuit must already be built.
func New(c *circuit.Circuit, opt Options) (*Sim, error) {
	if c.NumJunctions() == 0 {
		return nil, errors.New("solver: circuit has no tunnel junctions")
	}
	opt.setDefaults(c.NumJunctions())
	sp := c.Super()
	if sp.Superconducting() {
		if opt.Temp <= 0 {
			return nil, errors.New("solver: superconducting simulation requires T > 0")
		}
		if opt.Cotunneling {
			return nil, errors.New("solver: quasi-particle cotunneling is not modeled (paper neglects it); disable Cotunneling for superconducting circuits")
		}
	}
	s := &Sim{
		c:       c,
		opt:     opt,
		rnd:     new(rng.Batch), // seeded by rewind
		n:       make([]int, c.NumIslands()),
		v:       make([]float64, c.NumIslands()),
		vext:    c.ExternalVoltages(nil, 0),
		charge:  make([]float64, c.NumJunctions()),
		evFw:    make([]uint64, c.NumJunctions()),
		evBw:    make([]uint64, c.NumJunctions()),
		evCoop:  make([]uint64, c.NumJunctions()),
		waves:   map[int][]Sample{},
		superOn: sp.Superconducting(),
		visited: make([]uint32, c.NumJunctions()),
	}
	s.obs = opt.Obs
	if s.obs == nil {
		s.obs = obs.Global()
	}
	pe := c.Potentials()
	if pe == nil {
		return nil, errors.New("solver: circuit is not built")
	}
	if opt.CinvTruncation != 0 && !numeric.SameBits(opt.CinvTruncation, pe.Eps()) {
		return nil, fmt.Errorf("solver: CinvTruncation %g differs from the circuit's build threshold %g; build the circuit at the threshold instead", opt.CinvTruncation, pe.Eps())
	}
	s.pe = pe
	s.obs.EngineShape(pe.NNZ(), pe.TruncationRatio(), pe.Fill())
	s.buildExternalIndex()
	s.buildChannels()
	s.buildRateEngine()
	s.buildJunctionCache()
	s.buildSecondaryCache()
	s.collectBreakpoints()
	s.fen = newFenwick(len(s.chKinds))
	if opt.Adaptive {
		s.dp = circuit.NewShiftRecord(c.NumIslands())
	}
	s.vextScratch = make([]float64, len(s.vext))
	s.dvIsl = make([]float64, c.NumIslands())
	s.dvExt = make([]float64, len(s.vext))
	if err := s.rewind(opt.Seed); err != nil {
		return nil, err
	}
	return s, nil
}

// buildExternalIndex prepares the external-voltage cache and the node
// id -> external index map.
func (s *Sim) buildExternalIndex() {
	s.extIDs = s.c.Externals()
	s.extV = make([]float64, len(s.extIDs))
	s.extIdxOf = make([]int32, s.c.NumNodes())
	for i := range s.extIdxOf {
		s.extIdxOf[i] = -1
	}
	for i, id := range s.extIDs {
		s.extIdxOf[id] = int32(i)
	}
}

// nodeRef resolves a node id to its (island index, external index)
// pair; exactly one of the two is >= 0.
func (s *Sim) nodeRef(node int) (isl, ext int32) {
	if k := s.c.IslandIndex(node); k >= 0 {
		return int32(k), -1
	}
	return -1, s.extIdxOf[node]
}

// cinvSelf is the C^-1 self-term of a src->dst transfer, with the exact
// float ops of Potentials.DeltaW.
func (s *Sim) cinvSelf(src, dst int) float64 {
	return s.pe.Cinv(src, src) - 2*s.pe.Cinv(src, dst) + s.pe.Cinv(dst, dst)
}

// buildRateEngine selects the rate kernel and, when enabled, prepares
// the tabulated normal-state kernels.
func (s *Sim) buildRateEngine() {
	nj := s.c.NumJunctions()
	if s.opt.RateTables && !s.superOn && s.opt.Temp > 0 {
		if k := orthodox.SharedKernel(); k != nil {
			s.flatK = k
			kT := units.KB * s.opt.Temp
			s.invKT = 1 / kT
			s.ratePref = make([]float64, nj)
			for j := 0; j < nj; j++ {
				s.ratePref[j] = kT / (units.E * units.E * s.c.Junction(j).R)
			}
		}
		if s.opt.Cotunneling {
			s.cotFlat = cotunnel.SharedKernel()
		}
	}
	s.kT = units.KB * s.opt.Temp
	switch {
	case s.superOn:
		s.kern = kernSuper
	case s.flatK != nil:
		s.kern = kernTable
	case s.opt.Temp <= 0:
		s.kern = kernExactT0
	default:
		s.kern = kernExact
	}
	s.allJunc = make([]int, nj)
	for j := range s.allJunc {
		s.allJunc[j] = j
	}
}

// Close does nothing: a Sim owns no goroutines or other resources that
// outlive it, so dropping the last reference releases everything.
//
// Deprecated: kept only while the benchmark harness still calls it.
func (s *Sim) Close() {}

// buildChannels enumerates every event channel into the SoA arrays.
func (s *Sim) buildChannels() {
	nj := s.c.NumJunctions()
	s.b0 = make([]float64, nj)
	s.dwFw = make([]float64, nj)
	s.dwBw = make([]float64, nj)
	add := func(kind chKind, junc, junc2, src, mid, dst int) int {
		s.chKinds = append(s.chKinds, kind)
		s.chJunc = append(s.chJunc, int32(junc))
		s.chJunc2 = append(s.chJunc2, int32(junc2))
		s.chSrc = append(s.chSrc, int32(src))
		s.chMid = append(s.chMid, int32(mid))
		s.chDst = append(s.chDst, int32(dst))
		return len(s.chKinds) - 1
	}
	for j := 0; j < nj; j++ {
		jn := s.c.Junction(j)
		add(chElectron, j, -1, jn.A, -1, jn.B) // channel 2j
		add(chElectron, j, -1, jn.B, -1, jn.A) // channel 2j+1
	}
	if s.opt.Cotunneling {
		for _, ct := range cotunnel.Channels(s.c) {
			s.secChans = append(s.secChans, add(chCotunnel, ct.J1, ct.J2, ct.Src, ct.Mid, ct.Dst))
		}
	}
	if s.c.Super().Superconducting() {
		for j := 0; j < nj; j++ {
			jn := s.c.Junction(j)
			s.secChans = append(s.secChans, add(chCooper, j, -1, jn.A, -1, jn.B))
			s.secChans = append(s.secChans, add(chCooper, j, -1, jn.B, -1, jn.A))
		}
	}
	s.chSelfHalfQ2 = make([]float64, len(s.chKinds))
	for ci, kind := range s.chKinds {
		q := chQ[kind]
		s.chSelfHalfQ2[ci] = s.cinvSelf(int(s.chSrc[ci]), int(s.chDst[ci])) * q * q / 2
	}
}

// buildJunctionCache precomputes the flat per-junction constants the
// monomorphic rate loops read.
func (s *Sim) buildJunctionCache() {
	nj := s.c.NumJunctions()
	s.juncA = make([]int32, nj)
	s.juncAIsl = make([]int32, nj)
	s.juncBIsl = make([]int32, nj)
	s.juncAExt = make([]int32, nj)
	s.juncBExt = make([]int32, nj)
	s.juncDenom = make([]float64, nj)
	s.juncSelfHalfE2 = make([]float64, nj)
	for j := 0; j < nj; j++ {
		jn := s.c.Junction(j)
		s.juncA[j] = int32(jn.A)
		s.juncAIsl[j], s.juncAExt[j] = s.nodeRef(jn.A)
		s.juncBIsl[j], s.juncBExt[j] = s.nodeRef(jn.B)
		s.juncDenom[j] = units.E * units.E * jn.R
		s.juncSelfHalfE2[j] = s.chSelfHalfQ2[2*j]
	}
}

// buildSecondaryCache precomputes the per-secondary-channel constants:
// endpoint indices, dW self-terms, cotunneling resistances/prefactors
// and Cooper-pair quasi-particle escape lists.
func (s *Sim) buildSecondaryCache() {
	n := len(s.secChans)
	s.coopStart = make([]int32, n+1)
	if n == 0 {
		return
	}
	s.secSrcIsl = make([]int32, n)
	s.secSrcExt = make([]int32, n)
	s.secMidIsl = make([]int32, n)
	s.secMidExt = make([]int32, n)
	s.secDstIsl = make([]int32, n)
	s.secDstExt = make([]int32, n)
	s.secSelfSD = make([]float64, n)
	s.secSelfSM = make([]float64, n)
	s.secSelfMD = make([]float64, n)
	s.secR1 = make([]float64, n)
	s.secR2 = make([]float64, n)
	s.secPref = make([]float64, n)
	for i, ci := range s.secChans {
		src, mid, dst := int(s.chSrc[ci]), int(s.chMid[ci]), int(s.chDst[ci])
		s.secSrcIsl[i], s.secSrcExt[i] = s.nodeRef(src)
		s.secDstIsl[i], s.secDstExt[i] = s.nodeRef(dst)
		s.secMidIsl[i], s.secMidExt[i] = -1, -1
		if mid >= 0 {
			s.secMidIsl[i], s.secMidExt[i] = s.nodeRef(mid)
		}
		s.secSelfSD[i] = s.chSelfHalfQ2[ci]
		switch s.chKinds[ci] {
		case chCotunnel:
			s.secSelfSM[i] = s.cinvSelf(src, mid) * units.E * units.E / 2
			s.secSelfMD[i] = s.cinvSelf(mid, dst) * units.E * units.E / 2
			r1 := s.c.Junction(int(s.chJunc[ci])).R
			r2 := s.c.Junction(int(s.chJunc2[ci])).R
			s.secR1[i], s.secR2[i] = r1, r2
			s.secPref[i] = units.Hbar / (12 * math.Pi * units.E * units.E * units.E * units.E * r1 * r2)
		case chCooper:
			s.appendCooperEscape(i, src, dst)
		}
		s.coopStart[i+1] = int32(len(s.coopJunc))
	}
}

// appendCooperEscape collects the junctions whose quasi-particle rates
// make up the lifetime broadening of Cooper-pair channel i (secChans
// position), with each endpoint's post-tunneling potential shift
// precomputed. Insertion order matches the map-dedup enumeration the
// per-event path used to do, so the escape-rate sum accumulates in the
// same order.
func (s *Sim) appendCooperEscape(i, src, dst int) {
	seen := map[int]bool{}
	for _, node := range [2]int{src, dst} {
		if s.c.IslandIndex(node) < 0 {
			continue
		}
		for _, j := range s.c.JunctionsAt(node) {
			if seen[j] {
				continue
			}
			seen[j] = true
			jn := s.c.Junction(j)
			shift := func(node int) float64 {
				if k := s.c.IslandIndex(node); k >= 0 {
					return s.pe.PotentialShift(k, src, dst, 2*units.E)
				}
				return 0
			}
			s.coopJunc = append(s.coopJunc, int32(j))
			s.coopShiftA = append(s.coopShiftA, shift(jn.A))
			s.coopShiftB = append(s.coopShiftB, shift(jn.B))
		}
	}
}

// qpCache shares quasi-particle tables across simulations: a table
// depends only on (R, gap, temperature, voltage range), and parameter
// sweeps build thousands of Sims over identical junctions. Tables are
// immutable after construction, so concurrent reuse is safe.
var qpCache sync.Map // qpKey -> *super.QPTable

type qpKey struct {
	r, gap, temp, vmax float64
}

func cachedQPTable(r, gap, temp, vmax float64) (*super.QPTable, error) {
	// Bucket vmax to powers of two so nearby sweep points share tables.
	bucket := math.Pow(2, math.Ceil(math.Log2(vmax)))
	key := qpKey{r: r, gap: gap, temp: temp, vmax: bucket}
	if t, ok := qpCache.Load(key); ok {
		return t.(*super.QPTable), nil
	}
	t, err := super.NewQPTable(r, gap, gap, temp, bucket)
	if err != nil {
		return nil, err
	}
	actual, _ := qpCache.LoadOrStore(key, t)
	return actual.(*super.QPTable), nil
}

// buildSuper prepares quasi-particle tables and Josephson energies.
func (s *Sim) buildSuper() error {
	sp := s.c.Super()
	s.gap = super.Gap(sp.GapAt0, sp.Tc, s.opt.Temp)
	// Voltage range the tables must cover: gaps, biases and charging
	// energies with headroom. Beyond it the tables extrapolate into the
	// (correct) ohmic asymptote.
	maxSrc := 0.0
	for _, id := range s.c.Externals() {
		v := math.Abs(s.sourceVoltage(id, 0))
		if v > maxSrc {
			maxSrc = v
		}
	}
	maxEc := 0.0
	for _, isl := range s.c.Islands() {
		ec := units.ChargingEnergy(s.c.SumCapacitance(isl))
		if ec > maxEc {
			maxEc = ec
		}
	}
	vmax := (8*s.gap+8*maxEc)/units.E + 4*maxSrc + 20*units.KB*s.opt.Temp/units.E
	s.qpTab = make([]*super.QPTable, s.c.NumJunctions())
	s.ej = make([]float64, s.c.NumJunctions())
	for j := 0; j < s.c.NumJunctions(); j++ {
		r := s.c.Junction(j).R
		tab, err := cachedQPTable(r, s.gap, s.opt.Temp, vmax)
		if err != nil {
			return fmt.Errorf("solver: quasi-particle table for R=%g: %w", r, err)
		}
		s.qpTab[j] = tab
		s.ej[j] = super.JosephsonEnergy(r, s.gap, s.opt.Temp)
	}
	return nil
}

// collectBreakpoints merges PWL breakpoints of all sources and decides
// the step cap for continuously varying sources.
func (s *Sim) collectBreakpoints() {
	s.static = s.c.AllSourcesStatic()
	if s.static {
		return
	}
	seen := map[float64]bool{}
	minSine := math.Inf(1)
	for _, id := range s.c.Externals() {
		if p, ok := s.sourceOf(id).(PWLRamp); ok {
			// Resolved once here so nextCap avoids a per-step type
			// assertion per external.
			s.ramps = append(s.ramps, p)
		}
		switch src := s.sourceOf(id).(type) {
		case circuit.PWL:
			if src.Static() {
				continue
			}
			for _, bp := range src.T {
				if !seen[bp] {
					seen[bp] = true
					s.breaks = append(s.breaks, bp)
				}
			}
		case circuit.Sine:
			// A negative frequency is the same sine mirrored in time and
			// needs the same cap.
			if !src.Static() && src.Freq != 0 {
				if p := 1 / math.Abs(src.Freq); p < minSine {
					minSine = p
				}
			}
		}
	}
	sortFloats(s.breaks)
	if !math.IsInf(minSine, 1) {
		s.maxStep = minSine / 64
	}
	// PWL ramps (non-flat segments) also need capping; handled
	// dynamically in nextCap using segment slopes.
}

func (s *Sim) sourceOf(node int) circuit.Source { return s.c.SourceOf(node) }

func sortFloats(x []float64) {
	for i := 1; i < len(x); i++ {
		for j := i; j > 0 && x[j] < x[j-1]; j-- {
			x[j], x[j-1] = x[j-1], x[j]
		}
	}
}
