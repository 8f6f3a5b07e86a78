// Package netlist parses the simulator's SPICE-like input format — the
// paper's Example Input File 1 dialect:
//
//	#SET component definitions
//	junc 1 1 4 1e-6 1e-18        junction <id> <n1> <n2> <conductance S> <C F>
//	cap 3 4 3e-18                capacitor <n1> <n2> <C F>
//	charge 4 0.65                background charge on island <n>, units of e
//
//	#Input source information
//	vdc 1 0.02                   DC source on node <n>, volts
//	vac 3 0.0 0.01 1e9 [phase]   sine source: offset amp freq [phase]
//	vpwl 3 0 0 1e-9 0.1 ...      piecewise-linear source: t v pairs
//	symm 1                       node 1 mirrors the swept source, negated
//
//	#Overall node information
//	num j 2                      declared junction count (validated)
//	num ext 3                    declared external count (validated)
//	num nodes 4                  declared node count incl. externals (validated)
//
//	#Simulation specific information
//	temp 5                       kelvin
//	cotunnel                     enable second-order cotunneling
//	super 0.2e-3 1.2             superconducting: Delta(0) in eV, Tc in K
//	record 1 2                   record currents of junctions 1 and 2
//	probe 4                      record the waveform of node 4
//	jumps 100000 1               stop after N tunnel events [runs]
//	time 1e-5                    or stop at simulated time (seconds)
//	sweep 2 0.02 0.00005         sweep node 2's DC source over [-max, max]
//	map x 2 -0.04 0.04 33        stability-map X axis: node min max points
//	map y 3 0 0.05 17            stability-map Y axis
//	refine 3 0.1                 adaptive map refinement: depth [threshold]
//	seed 42                      RNG seed
//	adaptive 0.05                adaptive solver with threshold alpha
//	refresh 1024                 full recalculation period
//	cinv-eps 1e-9                truncate C^-1 rows at eps*rowmax (default 1e-14)
//	rate-tables                  tabulated normal-state tunnel kernels
//
// Node 0 is always ground (an external at 0 V). Nodes with a source are
// external; every other referenced node is an island. Lines starting
// with '#' and blank lines are ignored.
//
// Because a parsed deck is re-instantiated for every sweep point (the
// built circuit is immutable), Parse returns a Deck that Compile turns
// into a fresh circuit, optionally overriding DC source values.
package netlist

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"

	"semsim/internal/circuit"
	"semsim/internal/numeric"
	"semsim/internal/units"
)

// SweepSpec describes the requested 1-D source sweep.
type SweepSpec struct {
	Node      int // netlist node number whose DC source is swept
	Max, Step float64
	// Mirror is the node driven with the negated sweep value (the
	// paper's "symm" directive), or -1.
	Mirror int
}

// MapAxis is one axis of a 2-D stability map: the DC-driven netlist
// node it sweeps and its coarse grid.
type MapAxis struct {
	Node     int
	Min, Max float64
	Points   int
}

// Values expands the axis into its coarse grid coordinates.
func (a MapAxis) Values() []float64 { return numeric.Linspace(a.Min, a.Max, a.Points) }

// MapSpec describes a requested 2-D stability map (the `map` deck
// directive), optionally adaptively refined (`refine`): the coarse
// X×Y grid is simulated everywhere and cells whose corner currents
// span at least Threshold × the global current range are subdivided
// Depth times.
type MapSpec struct {
	X, Y      MapAxis
	Depth     int     // refinement levels; 0 = uniform coarse grid
	Threshold float64 // contrast trigger fraction; 0 = engine default
}

// Spec carries everything in the deck that is not circuit topology.
type Spec struct {
	Temp         float64
	Cotunnel     bool
	Super        *circuit.SuperParams
	Jumps        uint64
	Runs         int
	MaxTime      float64
	Seed         uint64
	Adaptive     bool
	Alpha        float64
	RefreshEvery int
	// Sparse is never set: the parser rejects the retired `sparse`
	// directive.
	//
	// Deprecated: kept only while the benchmark harness still reads it.
	Sparse bool
	// CinvEps is the relative C^-1 row-truncation threshold, the
	// potential engine's only knob: finite with 0 <= eps < 1, 0 meaning
	// the default 1e-14. Every build stores truncated rows and carries a
	// provable error bound.
	CinvEps float64
	// RateTables routes normal-state rates through the error-bounded
	// interpolation tables. An engine knob rather than physics, but
	// deck-expressible so a submitted deck is self-contained (e.g. for
	// the semsimd batch daemon). The deck is its only home: no flag or
	// request field overrides it.
	RateTables  bool
	Sweep       *SweepSpec
	Map         *MapSpec
	RecordJuncs []int // netlist junction ids
	ProbeNodes  []int // netlist node numbers
	// NoiseJuncs and FanoJuncs carry the `record noise` and
	// `record fano` directives: streaming spectral-density and
	// counting-statistics estimators per junction (see internal/noise).
	// Both forms imply plain recording, so their junctions also appear
	// in RecordJuncs.
	NoiseJuncs []NoiseSpec
	FanoJuncs  []FanoSpec
}

// NoiseSpec is one `record noise` directive: estimate the current
// spectral density S_I(ω) of a junction on an angular-frequency grid.
// An empty grid records counting statistics only (Fano factor with an
// auto-calibrated window).
type NoiseSpec struct {
	Junc   int
	Omegas []float64 // rad/s, each > 0
}

// NoiseRecord is one junction's noise recording: the ω grid of its
// `record noise` line and the counting window of its `record fano`
// line (0: auto-calibrated, or no fano line).
type NoiseRecord struct {
	Junc   int
	Omegas []float64
	Window float64
}

// NoiseRecords merges the `record noise` and `record fano` directives
// into one record per junction, in deck order: the noise directives
// first, then the junctions with only a fano directive. The noise
// recorder's configuration, and with it every noise result and
// checkpoint, follows this order.
func (sp *Spec) NoiseRecords() []NoiseRecord {
	var recs []NoiseRecord
	at := map[int]int{} // junction id -> recs index
	for _, ns := range sp.NoiseJuncs {
		at[ns.Junc] = len(recs)
		recs = append(recs, NoiseRecord{Junc: ns.Junc, Omegas: ns.Omegas})
	}
	for _, fs := range sp.FanoJuncs {
		if i, ok := at[fs.Junc]; ok {
			recs[i].Window = fs.Window
		} else {
			recs = append(recs, NoiseRecord{Junc: fs.Junc, Window: fs.Window})
		}
	}
	return recs
}

// FanoSpec is one `record fano` directive: windowed full counting
// statistics (mean, variance, Fano factor) of a junction. Window is
// the counting-window width τ in seconds; 0 auto-calibrates it from
// the warm-up event rate.
type FanoSpec struct {
	Junc   int
	Window float64
}

type juncDef struct {
	id, a, b int
	g, c     float64
	line     int
}

type capDef struct {
	a, b int
	c    float64
}

type srcDef struct {
	node int
	src  circuit.Source
}

// Deck is a parsed netlist, ready to be compiled into circuits.
type Deck struct {
	Spec Spec

	juncs   []juncDef
	caps    []capDef
	sources map[int]circuit.Source
	charges map[int]float64 // units of e

	declJ, declExt, declNodes int // -1 when not declared
}

// recordJunc adds j to the plain record list unless already present,
// so a junction listed twice (`record 2 2`, or `record fano 2` then
// `record 2`) is recorded, and its current folded, once. Noise and fano
// directives imply current recording, and the append-if-missing keeps
// Parse(Format(d)) a fixpoint (Format writes the full record line
// before the noise/fano lines).
func (d *Deck) recordJunc(j int) {
	for _, r := range d.Spec.RecordJuncs {
		if r == j {
			return
		}
	}
	d.Spec.RecordJuncs = append(d.Spec.RecordJuncs, j)
}

// Parse reads a deck. Errors carry the offending line number.
func Parse(r io.Reader) (*Deck, error) {
	d := &Deck{
		sources: map[int]circuit.Source{},
		charges: map[int]float64{},
		declJ:   -1, declExt: -1, declNodes: -1,
	}
	d.Spec.Runs = 1
	d.Spec.Alpha = 0.05
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") || strings.HasPrefix(line, "*") {
			continue
		}
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		f := strings.Fields(line)
		if err := d.directive(f, lineNo); err != nil {
			return nil, err
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if err := d.validate(); err != nil {
		return nil, err
	}
	return d, nil
}

func (d *Deck) directive(f []string, ln int) error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("netlist line %d: %s", ln, fmt.Sprintf(format, args...))
	}
	// num parses a finite float. ParseFloat alone accepts NaN and ±Inf,
	// which range checks such as g <= 0 let through.
	num := func(s string) (float64, error) {
		v, err := strconv.ParseFloat(s, 64)
		if err == nil && (math.IsNaN(v) || math.IsInf(v, 0)) {
			err = fmt.Errorf("non-finite number %q", s)
		}
		return v, err
	}
	inum := func(s string) (int, error) { return strconv.Atoi(s) }
	need := func(n int) error {
		if len(f)-1 != n {
			return bad("%s needs %d arguments, got %d", f[0], n, len(f)-1)
		}
		return nil
	}

	switch f[0] {
	case "junc":
		if err := need(5); err != nil {
			return err
		}
		id, err1 := inum(f[1])
		a, err2 := inum(f[2])
		b, err3 := inum(f[3])
		g, err4 := num(f[4])
		c, err5 := num(f[5])
		if err1 != nil || err2 != nil || err3 != nil || err4 != nil || err5 != nil {
			return bad("junc: malformed fields")
		}
		if g <= 0 || c <= 0 {
			return bad("junc %d: conductance and capacitance must be positive", id)
		}
		if a == b {
			return bad("junc %d: endpoints must be distinct nodes", id)
		}
		for _, j := range d.juncs {
			if j.id == id {
				return bad("junc %d: duplicate junction id", id)
			}
		}
		d.juncs = append(d.juncs, juncDef{id: id, a: a, b: b, g: g, c: c, line: ln})
	case "cap":
		if err := need(3); err != nil {
			return err
		}
		a, err1 := inum(f[1])
		b, err2 := inum(f[2])
		c, err3 := num(f[3])
		if err1 != nil || err2 != nil || err3 != nil {
			return bad("cap: malformed fields")
		}
		if c <= 0 {
			return bad("cap: capacitance must be positive")
		}
		if a == b {
			return bad("cap: endpoints must be distinct nodes")
		}
		d.caps = append(d.caps, capDef{a: a, b: b, c: c})
	case "charge":
		if err := need(2); err != nil {
			return err
		}
		n, err1 := inum(f[1])
		q, err2 := num(f[2])
		if err1 != nil || err2 != nil {
			return bad("charge: malformed fields")
		}
		d.charges[n] = q
	case "vdc":
		if err := need(2); err != nil {
			return err
		}
		n, err1 := inum(f[1])
		v, err2 := num(f[2])
		if err1 != nil || err2 != nil {
			return bad("vdc: malformed fields")
		}
		d.sources[n] = circuit.DC(v)
	case "vac":
		if len(f) != 5 && len(f) != 6 {
			return bad("vac needs: node offset amp freq [phase]")
		}
		n, err1 := inum(f[1])
		off, err2 := num(f[2])
		amp, err3 := num(f[3])
		freq, err4 := num(f[4])
		if err1 != nil || err2 != nil || err3 != nil || err4 != nil {
			return bad("vac: malformed fields")
		}
		phase := 0.0
		if len(f) == 6 {
			var err error
			if phase, err = num(f[5]); err != nil {
				return bad("vac: malformed phase")
			}
		}
		d.sources[n] = circuit.Sine{Offset: off, Amp: amp, Freq: freq, Phase: phase}
	case "vpwl":
		if len(f) < 6 || len(f)%2 != 0 {
			return bad("vpwl needs: node t0 v0 t1 v1 [...]")
		}
		n, err := inum(f[1])
		if err != nil {
			return bad("vpwl: malformed node")
		}
		var ts, vs []float64
		for i := 2; i < len(f); i += 2 {
			tv, err1 := num(f[i])
			vv, err2 := num(f[i+1])
			if err1 != nil || err2 != nil {
				return bad("vpwl: malformed breakpoint pair %q %q", f[i], f[i+1])
			}
			if len(ts) > 0 && tv <= ts[len(ts)-1] {
				return bad("vpwl: breakpoint times must increase")
			}
			ts = append(ts, tv)
			vs = append(vs, vv)
		}
		d.sources[n] = circuit.PWL{T: ts, Volt: vs}
	case "symm":
		if err := need(1); err != nil {
			return err
		}
		n, err := inum(f[1])
		if err != nil {
			return bad("symm: malformed node")
		}
		if d.Spec.Sweep == nil {
			d.Spec.Sweep = &SweepSpec{Mirror: n, Node: -1}
		} else {
			d.Spec.Sweep.Mirror = n
		}
	case "num":
		if err := need(2); err != nil {
			return err
		}
		v, err := inum(f[2])
		if err != nil {
			return bad("num: malformed count")
		}
		switch f[1] {
		case "j":
			d.declJ = v
		case "ext":
			d.declExt = v
		case "nodes":
			d.declNodes = v
		default:
			return bad("num: unknown kind %q", f[1])
		}
	case "temp":
		if err := need(1); err != nil {
			return err
		}
		t, err := num(f[1])
		if err != nil || t < 0 {
			return bad("temp: malformed temperature")
		}
		d.Spec.Temp = t
	case "cotunnel":
		d.Spec.Cotunnel = true
	case "super":
		if err := need(2); err != nil {
			return err
		}
		dEV, err1 := num(f[1])
		tc, err2 := num(f[2])
		if err1 != nil || err2 != nil || dEV <= 0 || tc <= 0 {
			return bad("super: needs Delta(0) in eV and Tc in K, both positive")
		}
		d.Spec.Super = &circuit.SuperParams{GapAt0: dEV * units.E, Tc: tc}
	case "record":
		if len(f) < 2 {
			return bad("record needs at least one junction id")
		}
		switch f[1] {
		case "noise":
			if len(f) < 3 {
				return bad("record noise needs: junction [omega ...]")
			}
			j, err := inum(f[2])
			if err != nil {
				return bad("record noise: malformed junction id %q", f[2])
			}
			for _, ns := range d.Spec.NoiseJuncs {
				if ns.Junc == j {
					return bad("record noise: junction %d already has a noise directive", j)
				}
			}
			ns := NoiseSpec{Junc: j}
			for _, s := range f[3:] {
				w, err := num(s)
				if err != nil || !(w > 0) {
					return bad("record noise: malformed angular frequency %q (rad/s, > 0)", s)
				}
				ns.Omegas = append(ns.Omegas, w)
			}
			d.Spec.NoiseJuncs = append(d.Spec.NoiseJuncs, ns)
			d.recordJunc(j)
		case "fano":
			if len(f) != 3 && len(f) != 4 {
				return bad("record fano needs: junction [window_seconds]")
			}
			j, err := inum(f[2])
			if err != nil {
				return bad("record fano: malformed junction id %q", f[2])
			}
			for _, fs := range d.Spec.FanoJuncs {
				if fs.Junc == j {
					return bad("record fano: junction %d already has a fano directive", j)
				}
			}
			fs := FanoSpec{Junc: j}
			if len(f) == 4 {
				tau, err := num(f[3])
				if err != nil || !(tau > 0) {
					return bad("record fano: malformed window %q (seconds, > 0)", f[3])
				}
				fs.Window = tau
			}
			d.Spec.FanoJuncs = append(d.Spec.FanoJuncs, fs)
			d.recordJunc(j)
		default:
			for _, s := range f[1:] {
				j, err := inum(s)
				if err != nil {
					return bad("record: malformed junction id %q", s)
				}
				d.recordJunc(j)
			}
		}
	case "probe":
		if len(f) < 2 {
			return bad("probe needs at least one node")
		}
		for _, s := range f[1:] {
			n, err := inum(s)
			if err != nil {
				return bad("probe: malformed node %q", s)
			}
			d.Spec.ProbeNodes = append(d.Spec.ProbeNodes, n)
		}
	case "jumps":
		if len(f) != 2 && len(f) != 3 {
			return bad("jumps needs: count [runs]")
		}
		n, err := strconv.ParseUint(f[1], 10, 64)
		if err != nil {
			return bad("jumps: malformed count")
		}
		d.Spec.Jumps = n
		if len(f) == 3 {
			runs, err := inum(f[2])
			if err != nil || runs < 1 {
				return bad("jumps: malformed runs")
			}
			d.Spec.Runs = runs
		}
	case "time":
		if err := need(1); err != nil {
			return err
		}
		t, err := num(f[1])
		if err != nil || t <= 0 {
			return bad("time: malformed duration")
		}
		d.Spec.MaxTime = t
	case "sweep":
		if err := need(3); err != nil {
			return err
		}
		n, err1 := inum(f[1])
		mx, err2 := num(f[2])
		st, err3 := num(f[3])
		if err1 != nil || err2 != nil || err3 != nil || mx <= 0 || st <= 0 {
			return bad("sweep: needs node, max > 0, step > 0")
		}
		if d.Spec.Sweep == nil {
			d.Spec.Sweep = &SweepSpec{Mirror: -1}
		}
		d.Spec.Sweep.Node = n
		d.Spec.Sweep.Max = mx
		d.Spec.Sweep.Step = st
	case "map":
		if err := need(5); err != nil {
			return err
		}
		n, err1 := inum(f[2])
		lo, err2 := num(f[3])
		hi, err3 := num(f[4])
		pts, err4 := inum(f[5])
		if err1 != nil || err2 != nil || err3 != nil || err4 != nil {
			return bad("map: needs axis node min max points")
		}
		if lo >= hi {
			return bad("map: min must be below max")
		}
		if pts < 2 {
			return bad("map: needs at least 2 points per axis")
		}
		if d.Spec.Map == nil {
			d.Spec.Map = &MapSpec{}
		}
		ax := MapAxis{Node: n, Min: lo, Max: hi, Points: pts}
		switch f[1] {
		case "x":
			d.Spec.Map.X = ax
		case "y":
			d.Spec.Map.Y = ax
		default:
			return bad("map: axis must be x or y, got %q", f[1])
		}
	case "refine":
		if len(f) != 2 && len(f) != 3 {
			return bad("refine needs: depth [threshold]")
		}
		depth, err := inum(f[1])
		if err != nil || depth < 1 || depth > 12 {
			return bad("refine: depth must be in [1, 12]")
		}
		if d.Spec.Map == nil {
			d.Spec.Map = &MapSpec{}
		}
		d.Spec.Map.Depth = depth
		if len(f) == 3 {
			thr, err := num(f[2])
			if err != nil || thr <= 0 || thr >= 1 {
				return bad("refine: threshold must be in (0, 1)")
			}
			d.Spec.Map.Threshold = thr
		}
	case "seed":
		if err := need(1); err != nil {
			return err
		}
		s, err := strconv.ParseUint(f[1], 10, 64)
		if err != nil {
			return bad("seed: malformed value")
		}
		d.Spec.Seed = s
	case "adaptive":
		if len(f) > 2 {
			return bad("adaptive takes an optional alpha")
		}
		d.Spec.Adaptive = true
		if len(f) == 2 {
			a, err := num(f[1])
			if err != nil || a <= 0 {
				return bad("adaptive: malformed alpha")
			}
			d.Spec.Alpha = a
		}
	case "refresh":
		if err := need(1); err != nil {
			return err
		}
		n, err := inum(f[1])
		if err != nil || n < 1 {
			return bad("refresh: malformed period")
		}
		d.Spec.RefreshEvery = n
	case "sparse":
		return bad("the sparse directive is retired: every build stores truncated C^-1 rows and cinv-eps alone sets the threshold (omit it for the default 1e-14)")
	case "parallel":
		return bad("the parallel directive is retired: every run is serial; use -workers (semsim, semsimd) to run a deck's (point, run) tasks concurrently")
	case "rate-tables":
		if err := need(0); err != nil {
			return err
		}
		d.Spec.RateTables = true
	case "cinv-eps":
		if err := need(1); err != nil {
			return err
		}
		v, err := num(f[1])
		if err != nil || circuit.CheckCinvTruncation(v) != nil {
			return bad("cinv-eps: malformed threshold (want finite 0 <= eps < 1)")
		}
		d.Spec.CinvEps = v
	default:
		return bad("unknown directive %q", f[0])
	}
	return nil
}

func (d *Deck) validate() error {
	if len(d.juncs) == 0 {
		return fmt.Errorf("netlist: no junctions defined")
	}
	// Record lines may precede the junction lines they name, so they are
	// checked once the whole deck is read.
	for _, r := range d.Spec.RecordJuncs {
		if !slices.ContainsFunc(d.juncs, func(j juncDef) bool { return j.id == r }) {
			return fmt.Errorf("netlist: record names junction %d, which no junc line defines", r)
		}
	}
	if d.declJ >= 0 && d.declJ != len(d.juncs) {
		return fmt.Errorf("netlist: num j declares %d junctions, found %d", d.declJ, len(d.juncs))
	}
	if d.declExt >= 0 && d.declExt != len(d.sources) {
		return fmt.Errorf("netlist: num ext declares %d sources, found %d", d.declExt, len(d.sources))
	}
	if d.declNodes >= 0 {
		if n := d.maxNode(); n != d.declNodes {
			return fmt.Errorf("netlist: num nodes declares %d, highest referenced node is %d", d.declNodes, n)
		}
	}
	if sw := d.Spec.Sweep; sw != nil {
		if sw.Node < 0 {
			return fmt.Errorf("netlist: symm given without a sweep directive")
		}
		if _, ok := d.sources[sw.Node]; !ok {
			return fmt.Errorf("netlist: sweep node %d has no DC source", sw.Node)
		}
		if sw.Mirror >= 0 {
			if _, ok := d.sources[sw.Mirror]; !ok {
				return fmt.Errorf("netlist: symm node %d has no DC source", sw.Mirror)
			}
		}
	}
	if mp := d.Spec.Map; mp != nil {
		if d.Spec.Sweep != nil {
			return fmt.Errorf("netlist: map and sweep are mutually exclusive")
		}
		if mp.X.Points == 0 || mp.Y.Points == 0 {
			return fmt.Errorf("netlist: map needs both an x and a y axis (refine alone is not enough)")
		}
		for _, ax := range [2]MapAxis{mp.X, mp.Y} {
			src, ok := d.sources[ax.Node]
			if !ok {
				return fmt.Errorf("netlist: map node %d has no source", ax.Node)
			}
			if _, isDC := src.(circuit.DC); !isDC {
				return fmt.Errorf("netlist: map node %d must carry a DC source", ax.Node)
			}
		}
		if mp.X.Node == mp.Y.Node {
			return fmt.Errorf("netlist: map axes must sweep distinct nodes, both use %d", mp.X.Node)
		}
	}
	for n := range d.charges {
		if _, isSrc := d.sources[n]; isSrc || n == 0 {
			return fmt.Errorf("netlist: background charge on external node %d", n)
		}
	}
	return nil
}

func (d *Deck) maxNode() int {
	m := 0
	up := func(n int) {
		if n > m {
			m = n
		}
	}
	for _, j := range d.juncs {
		up(j.a)
		up(j.b)
	}
	for _, c := range d.caps {
		up(c.a)
		up(c.b)
	}
	for n := range d.sources {
		up(n)
	}
	return m
}

// Compiled is the result of instantiating a deck: a built circuit plus
// the mapping from netlist numbering to circuit ids.
type Compiled struct {
	Circuit *circuit.Circuit
	Node    map[int]int // netlist node number -> circuit node id
	Junc    map[int]int // netlist junction id -> circuit junction id
}

// Compile builds a fresh circuit from the deck. dcOverride replaces the
// DC value of the given netlist nodes (used by sweep drivers); nodes in
// the map must carry DC sources.
func (d *Deck) Compile(dcOverride map[int]float64) (*Compiled, error) {
	c := circuit.New()
	nodeMap := map[int]int{}

	// Deterministic node creation order: sorted netlist numbers.
	var nums []int
	seen := map[int]bool{}
	add := func(n int) {
		if !seen[n] {
			seen[n] = true
			nums = append(nums, n)
		}
	}
	for _, j := range d.juncs {
		add(j.a)
		add(j.b)
	}
	for _, cp := range d.caps {
		add(cp.a)
		add(cp.b)
	}
	for n := range d.sources {
		add(n)
	}
	sort.Ints(nums)

	for _, n := range nums {
		src, isExt := d.sources[n]
		if n == 0 && !isExt {
			src, isExt = circuit.DC(0), true // implicit ground
		}
		if isExt {
			id := c.AddNode(fmt.Sprintf("n%d", n), circuit.External)
			if ov, ok := dcOverride[n]; ok {
				if _, isDC := src.(circuit.DC); !isDC {
					return nil, fmt.Errorf("netlist: DC override on non-DC source node %d", n)
				}
				src = circuit.DC(ov)
			}
			c.SetSource(id, src)
			nodeMap[n] = id
		} else {
			id := c.AddNode(fmt.Sprintf("n%d", n), circuit.Island)
			if q, ok := d.charges[n]; ok {
				c.SetBackgroundCharge(id, q*units.E)
			}
			nodeMap[n] = id
		}
	}
	for n := range dcOverride {
		if _, ok := d.sources[n]; !ok {
			return nil, fmt.Errorf("netlist: DC override on node %d which has no source", n)
		}
	}

	juncMap := map[int]int{}
	for _, j := range d.juncs {
		id := c.AddJunction(nodeMap[j.a], nodeMap[j.b], 1/j.g, j.c)
		juncMap[j.id] = id
	}
	for _, cp := range d.caps {
		c.AddCap(nodeMap[cp.a], nodeMap[cp.b], cp.c)
	}
	if d.Spec.Super != nil {
		c.SetSuper(*d.Spec.Super)
	}
	if err := c.BuildWith(circuit.BuildOptions{CinvTruncation: d.Spec.CinvEps}); err != nil {
		return nil, err
	}
	return &Compiled{Circuit: c, Node: nodeMap, Junc: juncMap}, nil
}
