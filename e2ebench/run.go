package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"semsim/internal/obs"
)

// runConfig is one benchmark invocation.
type runConfig struct {
	workload string
	seed     uint64
	seconds  float64 // wall-clock budget of the measured repetitions
	trace    bool    // per-layer breakdown instead of end-to-end metrics
	scale    string  // "full", or "tiny" for smoke tests
	outDir   string  // temporary files, traces, result and counter records
	root     string  // repository root (for the source digest)

	source      string // digest of the program's sources
	counterFile string // exact counters of earlier runs of this workload and seed
}

// tmpDir holds the run's temporary checkpoint directories.
func (c runConfig) tmpDir() string { return filepath.Join(c.outDir, "tmp") }

// repResult is one deck-in → result-out repetition of a workload.
type repResult struct {
	wall     float64 // seconds from input in to checked result out
	simulate float64 // seconds of the simulate phase
	events   uint64  // tunnel events the simulate phase delivered
	points   int     // operating points delivered
	alloc    float64 // bytes allocated during the repetition
	// setup is the set-up the repetition itself paid (logic workloads:
	// parse, expand, build, solver.New); nil when set-up is sampled apart.
	setup  *setupResult
	checks tally
	// counters are the repetition's exact, machine-independent counts
	// and result digests; every repetition at the same seed must
	// reproduce them bit for bit.
	counters map[string]string
	layers   map[string]float64 // per-layer values (traced repetitions)
}

// setupResult is one set-up sample: what a new input pays before its
// first simulated event, and the live heap it leaves behind.
type setupResult struct {
	seconds  float64
	heap     float64 // bytes, after a GC
	firstNew float64 // seconds of the sample's first solver.New
	layers   map[string]float64
}

// workload is one of the benchmark's user paths.
type workload interface {
	// setupOnce times one set-up of the workload's input.
	setupOnce(tr *tracer, o *obs.Observer) (setupResult, error)
	// setupSamples is how many set-up-only samples a run takes before
	// its repetitions.
	setupSamples() int
	// warmups is how many untimed repetitions fill process-wide caches
	// (kernel tables, worker sessions) before the timed ones: a daemon
	// pays those once, not per job.
	warmups() int
	// rep runs the input once to a checked result. A non-nil observer
	// makes it a traced repetition.
	rep(tr *tracer, o *obs.Observer) (repResult, error)
	// buildLayer times circuit.BuildWith on an unbuilt copy of the
	// workload's circuit (the circuit.build_s layer).
	buildLayer() (float64, error)
	// describe reports the input sizes and the worker configurations.
	describe() (sizes map[string]any, workers []workerConfig)
	close() error
}

// minSetups is the fewest set-up samples setup_s is the median of.
const minSetups = 3

// maxPairs caps the repetitions of a run, so tiny smoke-test inputs
// keep the per-repetition records small however long the budget.
const maxPairs = 1000

// outcome is everything one run measured.
type outcome struct {
	result   result
	reps     []repResult
	setups   []setupResult
	counters map[string]string
}

// liveHeap collects garbage and returns the live heap in bytes.
func liveHeap() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

func totalAlloc() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc)
}

// measure runs one repetition from a collected heap and adds its
// allocation volume.
func measure(w workload, tr *tracer, o *obs.Observer) (repResult, error) {
	runtime.GC()
	before := totalAlloc()
	r, err := w.rep(tr, o)
	r.alloc = totalAlloc() - before
	return r, err
}

// execute runs the workload for cfg.seconds and summarizes it. The
// untraced run times repetitions with observation off. The traced run
// alternates untraced and traced repetitions (rotating which goes
// first, so machine drift cancels) and reports the per-layer breakdown
// of the traced ones plus the overhead of tracing.
func execute(cfg runConfig, w workload, o *obs.Observer, tr *tracer) (*outcome, error) {
	var (
		out     outcome
		plain   []repResult
		traced  []repResult
		runFail tally
	)
	var setupTr *tracer
	var setupObs *obs.Observer
	if cfg.trace {
		setupTr, setupObs = tr, o
	}
	setupOnce := func() error {
		runtime.GC()
		s, err := w.setupOnce(setupTr, setupObs)
		if err != nil {
			return fmt.Errorf("%s set-up: %w", cfg.workload, err)
		}
		out.setups = append(out.setups, s)
		return nil
	}
	// Set-up-only samples come first, so the first one meets cold
	// process-wide tables the way a new deck in a fresh process does.
	for i := 0; i < w.setupSamples(); i++ {
		if err := setupOnce(); err != nil {
			return nil, err
		}
	}
	for i := 0; i < w.warmups(); i++ {
		if _, err := w.rep(nil, nil); err != nil {
			return nil, fmt.Errorf("%s warm-up: %w", cfg.workload, err)
		}
		if cfg.trace {
			obs.SetGlobal(o)
			_, err := w.rep(nil, o)
			obs.SetGlobal(nil)
			if err != nil {
				return nil, fmt.Errorf("%s traced warm-up: %w", cfg.workload, err)
			}
		}
	}
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	one := func(withTrace bool) {
		var (
			r   repResult
			err error
		)
		if withTrace {
			tr.rep++
			obs.SetGlobal(o)
			before := o.Registry().Snapshot()
			r, err = measure(w, tr, o)
			after := o.Registry().Snapshot()
			obs.SetGlobal(nil)
			if err == nil {
				mergeRegistry(&r, before, after)
				traced = append(traced, r)
			}
		} else {
			r, err = measure(w, nil, nil)
			if err == nil {
				plain = append(plain, r)
			}
		}
		if err != nil {
			runFail.check(false, "%s repetition: %v", cfg.workload, err)
		}
	}
	for pair := 0; pair == 0 || time.Now().Before(deadline); pair++ {
		switch {
		case !cfg.trace:
			one(false)
		case pair%2 == 0:
			one(false)
			one(true)
		default:
			one(true)
			one(false)
		}
		if pair >= maxPairs {
			break
		}
	}
	if len(plain) == 0 || (cfg.trace && len(traced) == 0) {
		return nil, fmt.Errorf("%s: no repetition succeeded", cfg.workload)
	}

	// Add the set-ups the repetitions paid themselves, and top up to
	// minSetups samples.
	for _, r := range append(append([]repResult(nil), plain...), traced...) {
		if r.setup != nil {
			out.setups = append(out.setups, *r.setup)
		}
	}
	for len(out.setups) < minSetups {
		if err := setupOnce(); err != nil {
			return nil, err
		}
	}

	// Failures: failed repetitions, failed checks, and exact counters
	// that differ between repetitions.
	fails := runFail
	all := append(append([]repResult(nil), plain...), traced...)
	for _, r := range all {
		fails.merge(r.checks)
	}
	out.counters = compareCounters(&fails, all)
	if cfg.counterFile != "" {
		if err := checkRecord(&fails, cfg.counterFile, cfg.source, out.counters); err != nil {
			return nil, fmt.Errorf("counter record: %w", err)
		}
	}

	res := result{Metrics: map[string]metricValue{}}
	if cfg.trace {
		layers := layerMedians(traced, out.setups)
		build, err := w.buildLayer()
		if err != nil {
			return nil, fmt.Errorf("%s circuit copy build: %w", cfg.workload, err)
		}
		layers["circuit.build_s"] = build
		layers["solver.new_cold_s"] = out.setups[0].firstNew
		layers["obs.trace_overhead_pct"] = 100 * (median(walls(traced))/median(walls(plain)) - 1)
		layers["fail_frac"] = fails.failFrac()
		for _, m := range perLayer {
			res.Metrics[m.Name] = metricValue{Value: layers[m.Name], Unit: m.Unit}
		}
		out.reps = all
	} else {
		e2e := endToEndValues(plain, out.setups)
		for _, m := range endToEnd {
			res.Metrics[m.Name] = metricValue{Value: e2e[m.Name], Unit: m.Unit}
		}
		out.reps = plain
	}
	res.Attempted = fails.attempted
	res.Failed = fails.failed
	res.Correct = fails.failed == 0
	out.result = res
	return &out, nil
}

func walls(rs []repResult) []float64 {
	xs := make([]float64, len(rs))
	for i, r := range rs {
		xs[i] = r.wall
	}
	return xs
}

// endToEndValues reduces untraced repetitions to the end-to-end
// metrics: the median over repetitions of each.
func endToEndValues(reps []repResult, setups []setupResult) map[string]float64 {
	var wall, eps, pps, alloc, setup, heap []float64
	for _, r := range reps {
		wall = append(wall, r.wall)
		eps = append(eps, ratio(float64(r.events), r.simulate))
		pps = append(pps, ratio(float64(r.points), r.wall))
		alloc = append(alloc, r.alloc/1e6)
	}
	for _, s := range setups {
		setup = append(setup, s.seconds)
		heap = append(heap, s.heap/1e6)
	}
	return map[string]float64{
		"wall_s":       median(wall),
		"setup_s":      median(setup),
		"events_per_s": median(eps),
		"points_per_s": median(pps),
		"alloc_mb":     median(alloc),
		"heap_mb":      median(heap),
	}
}

// layerMedians is the median over traced repetitions (and set-up
// samples) of every per-layer value they reported.
func layerMedians(reps []repResult, setups []setupResult) map[string]float64 {
	vals := map[string][]float64{}
	for _, r := range reps {
		for k, v := range r.layers {
			vals[k] = append(vals[k], v)
		}
	}
	for _, s := range setups {
		for k, v := range s.layers {
			vals[k] = append(vals[k], v)
		}
	}
	out := make(map[string]float64, len(vals))
	for k, v := range vals {
		out[k] = median(v)
	}
	return out
}

// compareCounters checks that every repetition reproduced the exact
// counters of the first one that reported each key, counting one
// comparison per repetition and key, and returns the union.
func compareCounters(t *tally, reps []repResult) map[string]string {
	ref := map[string]string{}
	for _, r := range reps {
		keys := make([]string, 0, len(r.counters))
		for k := range r.counters {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			v := r.counters[k]
			want, ok := ref[k]
			if !ok {
				ref[k] = v
				continue
			}
			t.check(v == want, "exact counter %s: %s, earlier repetition %s", k, v, want)
		}
	}
	return ref
}

// counterRecord is the exact counters earlier runs of the same sources,
// workload, scale and seed produced.
type counterRecord struct {
	Source   string            `json:"source_sha256"`
	Counters map[string]string `json:"counters"`
}

// checkRecord compares counters with the record at path, when one exists
// for the same sources, counting one comparison per shared key, and
// stores the union back.
func checkRecord(t *tally, path, source string, counters map[string]string) error {
	rec := counterRecord{Source: source, Counters: map[string]string{}}
	var prev counterRecord
	if blob, err := os.ReadFile(path); err == nil && json.Unmarshal(blob, &prev) == nil && prev.Source == source {
		rec.Counters = prev.Counters
	}
	keys := make([]string, 0, len(counters))
	for k := range counters {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if want, ok := rec.Counters[k]; ok {
			t.check(counters[k] == want, "exact counter %s: %s, earlier run %s", k, counters[k], want)
			continue
		}
		rec.Counters[k] = counters[k]
	}
	blob, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}

// mergeRegistry adds a traced repetition's registry deltas to its
// per-layer values and exact counters. Counts the workload measured
// itself must agree with the registry's.
func mergeRegistry(r *repResult, before, after obs.Snapshot) {
	c := func(name string) float64 { return float64(after.Counters[name] - before.Counters[name]) }
	mean := func(name string) float64 {
		a, b := after.Histograms[name], before.Histograms[name]
		return ratio(a.Sum-b.Sum, float64(a.Count-b.Count))
	}
	if r.layers == nil {
		r.layers = map[string]float64{}
	}
	events, calcs := c("solver.events"), c("solver.rate_calcs")
	for name, v := range map[string]float64{
		"solver.events":                events,
		"solver.rate_calcs":            calcs,
		"solver.rate_calcs_per_event":  ratio(calcs, events),
		"solver.full_refreshes":        c("solver.full_refreshes"),
		"solver.fenwick_rebuilds":      c("solver.fenwick_rebuilds"),
		"solver.input_changes":         c("solver.input_changes"),
		"solver.flagged_per_tested":    ratio(c("solver.adaptive_flagged"), c("solver.adaptive_tested")),
		"solver.spill_mean":            mean("solver.adaptive_spill_size"),
		"solver.flush_batch_mean":      mean("solver.fenwick_flush_batch"),
		"solver.touched_nnz_per_event": mean("solver.event_touched_nnz"),
		"solver.session_resets":        c("solver.session_resets"),
		"jobs.session_builds":          c("jobs.session_builds"),
		"jobs.session_reuses":          c("jobs.session_reuses"),
		"jobs.refine_waves":            c("jobs.refine_waves"),
		"jobs.tasks_failed":            c("jobs.tasks_failed"),
		"jobs.tasks_retried":           c("jobs.tasks_retried"),
		"jobs.checkpoints_written":     c("jobs.checkpoints_written"),
		"noise.events":                 c("noise.events"),
		"noise.windows_closed":         c("noise.windows_closed"),
	} {
		if _, own := r.layers[name]; !own {
			r.layers[name] = v
		}
	}
	if r.counters == nil {
		r.counters = map[string]string{}
	}
	for name, v := range map[string]float64{"solver.events": events, "solver.rate_calcs": calcs} {
		got := fmt.Sprint(uint64(v))
		if own, ok := r.counters[name]; ok {
			r.checks.check(own == got, "%s: workload counted %s, registry %s", name, own, got)
			continue
		}
		r.counters[name] = got
	}
}

// digestFloats fingerprints a result as the hex of its float bits, so
// any change in any bit of it shows.
func digestFloats(xs ...float64) string {
	h := uint64(1469598103934665603) // FNV-1a offset basis
	for _, x := range xs {
		b := math.Float64bits(x)
		for i := 0; i < 8; i++ {
			h ^= b & 0xff
			h *= 1099511628211
			b >>= 8
		}
	}
	return fmt.Sprintf("%016x", h)
}
