package main

import (
	_ "embed"
	"fmt"
	"regexp"
	"sort"
	"strings"

	"semsim/internal/jobs"
	"semsim/internal/netlist"
	"semsim/internal/obs"
	"semsim/internal/solver"
)

// The committed workload decks. The benchmark substitutes its seed
// argument into the seed line; at the tiny scale it also shrinks a few
// directives. The program only ever receives the generated text.
var (
	//go:embed decks/iv_cotunnel.cir
	ivDeck string
	//go:embed decks/map_sset.cir
	mapDeck string
)

// deckWorkers is the (point, run) task concurrency of both deck
// workloads: `semsim -workers 2` and a 2-worker semsimd.
const deckWorkers = 2

var seedLine = regexp.MustCompile(`(?m)^seed [0-9]+$`)

// deckText returns the deck with its seed line set to seed and each
// directive named in edits replaced by the given line.
func deckText(deck string, seed uint64, edits map[string]string) (string, error) {
	if n := len(seedLine.FindAllStringIndex(deck, -1)); n != 1 {
		return "", fmt.Errorf("deck has %d seed lines, want 1", n)
	}
	lines := strings.Split(seedLine.ReplaceAllString(deck, fmt.Sprintf("seed %d", seed)), "\n")
	for i, line := range lines {
		if f := strings.Fields(line); len(f) > 0 {
			key := f[0]
			if key == "map" && len(f) > 1 {
				key = "map " + f[1]
			}
			if repl, ok := edits[key]; ok {
				lines[i] = repl
			}
		}
	}
	return strings.Join(lines, "\n"), nil
}

// firstPoint is the DC bias of a deck's first operating point, the way
// the jobs layer installs it.
func firstPoint(spec *netlist.Spec) map[int]float64 {
	switch {
	case spec.Sweep != nil:
		over := map[int]float64{spec.Sweep.Node: -spec.Sweep.Max}
		if spec.Sweep.Mirror >= 0 {
			over[spec.Sweep.Mirror] = spec.Sweep.Max
		}
		return over
	case spec.Map != nil:
		return map[int]float64{spec.Map.X.Node: spec.Map.X.Min, spec.Map.Y.Node: spec.Map.Y.Min}
	}
	return nil
}

// deckSetupBatch is how many set-ups one deck set-up sample averages: a
// single one takes tens of microseconds, too short to time steadily.
const deckSetupBatch = 20

// deckSetupOnce times what a new deck pays before its first simulated
// event — netlist.Parse, Deck.Compile of the first operating point and
// solver.New with the options the jobs layer derives from the deck —
// as the mean over deckSetupBatch back-to-back set-ups.
func deckSetupOnce(tr *tracer, o *obs.Observer, text string, parallel int) (setupResult, *netlist.Compiled, error) {
	var (
		res                  setupResult
		parse, compile, newS float64
		cc                   *netlist.Compiled
		s                    *solver.Sim
	)
	for i := 0; i < deckSetupBatch; i++ {
		if s != nil {
			s.Close()
		}
		p, c, n, err := deckSetUp(tr, o, text, parallel, &cc, &s)
		if err != nil {
			return res, nil, err
		}
		if i == 0 {
			res.firstNew = n
		}
		parse, compile, newS = parse+p, compile+c, newS+n
	}
	parse, compile, newS = parse/deckSetupBatch, compile/deckSetupBatch, newS/deckSetupBatch
	nnz := float64(cc.Circuit.Potentials().NNZ())
	res.seconds = parse + compile + newS
	res.heap = liveHeap()
	res.layers = map[string]float64{
		"netlist.parse_ms":   parse * 1e3,
		"netlist.compile_ms": compile * 1e3,
		"solver.new_s":       newS,
		"circuit.cinv_nnz":   nnz,
		"circuit.cinv_mb":    nnz * 8 / 1e6,
	}
	s.Close()
	return res, cc, nil
}

// deckSetUp performs one timed set-up, leaving the compiled deck and the
// solver in cc and s.
func deckSetUp(tr *tracer, o *obs.Observer, text string, parallel int, cc **netlist.Compiled, s **solver.Sim) (parse, compile, newS float64, err error) {
	var d *netlist.Deck
	parse, err = tr.timed("netlist.parse", func() (err error) {
		d, err = netlist.Parse(strings.NewReader(text))
		return err
	})
	if err != nil {
		return
	}
	spec := &d.Spec
	compile, err = tr.timed("netlist.compile", func() (err error) {
		*cc, err = d.Compile(firstPoint(spec))
		return err
	})
	if err != nil {
		return
	}
	opt := solver.Options{
		Temp: spec.Temp, Cotunneling: spec.Cotunnel, Adaptive: spec.Adaptive,
		Alpha: spec.Alpha, RefreshEvery: spec.RefreshEvery, Seed: spec.Seed,
		Parallel: parallel, RateTables: spec.RateTables,
		SparsePotentials: spec.Sparse || spec.CinvEps > 0, CinvTruncation: spec.CinvEps,
		Obs: o,
	}
	newS, err = tr.timed("solver.new", func() (err error) {
		*s, err = solver.New((*cc).Circuit, opt)
		return err
	})
	return
}

// digestPoints fingerprints a deck result: every coordinate, current,
// event count and folded noise statistic, bit for bit.
func digestPoints(pts []jobs.Point) string {
	var xs []float64
	for _, p := range pts {
		xs = append(xs, p.SweepV, p.Y, float64(p.Events))
		if p.Blockaded {
			xs = append(xs, -1)
		}
		for _, j := range sortedKeys(p.Current) {
			xs = append(xs, float64(j), p.Current[j])
		}
		js := make([]int, 0, len(p.Noise))
		for j := range p.Noise {
			js = append(js, j)
		}
		sort.Ints(js)
		for _, j := range js {
			st := p.Noise[j]
			xs = append(xs, float64(j), st.MeanI, st.Fano, st.FanoErr, float64(st.Windows))
		}
	}
	return digestFloats(xs...)
}

func sortedKeys(m map[int]float64) []int {
	ks := make([]int, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Ints(ks)
	return ks
}

// measuredEvents sums the measured-window tunnel events of a result.
func measuredEvents(pts []jobs.Point) uint64 {
	var n uint64
	for _, p := range pts {
		n += p.Events
	}
	return n
}
