package main

import (
	"fmt"
	"math"
	"os"
	"sort"
)

// metricDef names one reported metric with its unit.
type metricDef struct {
	Name, Unit string
}

// endToEnd are the metrics of an untraced run, as a user of the program
// sees them. Every workload reports all of them.
var endToEnd = []metricDef{
	{"wall_s", "s"},         // input file in -> checked result out
	{"setup_s", "s"},        // before the first simulated event
	{"events_per_s", "1/s"}, // tunnel events per second of the simulate phase
	{"points_per_s", "1/s"}, // operating points delivered per wall_s
	{"alloc_mb", "MB"},      // bytes allocated during one repetition
	{"heap_mb", "MB"},       // live heap after set-up, after a GC
}

// perLayer are the metrics of a traced run, named <module>.<metric>.
// Every workload reports all of them; a layer a workload does not pass
// through reads 0 (README.md says which apply where).
var perLayer = []metricDef{
	{"netlist.parse_ms", "ms"},
	{"netlist.compile_ms", "ms"},
	{"logicnet.parse_ms", "ms"},
	{"logicnet.expand_s", "s"},
	{"circuit.build_s", "s"},
	{"circuit.cinv_nnz", "count"},
	{"circuit.cinv_mb", "MB"},
	{"solver.new_s", "s"},
	{"solver.new_cold_s", "s"}, // the run's first solver.New, before process-wide tables exist
	{"solver.events", "count"},
	{"solver.rate_calcs", "count"},
	{"solver.rate_calcs_per_event", "1"},
	{"solver.full_refreshes", "count"},
	{"solver.fenwick_rebuilds", "count"},
	{"solver.input_changes", "count"},
	{"solver.flagged_per_tested", "1"},
	{"solver.spill_mean", "count"},
	{"solver.flush_batch_mean", "count"},
	{"solver.touched_nnz_per_event", "count"},
	{"solver.step_us_p50", "us"},
	{"solver.step_us_p99", "us"},
	{"solver.refresh_share", "1"},
	{"solver.cinv_error_bound_nv", "nV"},
	{"trace.delay_s", "s"},
	{"solver.session_resets", "count"},
	{"jobs.session_builds", "count"},
	{"jobs.session_reuses", "count"},
	{"sweep.lattice_points", "count"},
	{"sweep.simulated_points", "count"},
	{"jobs.tasks", "count"},
	{"jobs.tasks_failed", "count"},
	{"jobs.tasks_retried", "count"},
	{"jobs.refine_waves", "count"},
	{"jobs.task_ms_p50", "ms"},
	{"jobs.task_ms_p99", "ms"},
	{"jobs.worker_busy_frac", "1"},
	{"jobs.checkpoints_written", "count"},
	{"jobs.checkpoint_write_ms_p50", "ms"},
	{"jobs.checkpoint_write_ms_p99", "ms"},
	{"jobs.checkpoint_kb", "KB"},
	{"http.submit_ms", "ms"},
	{"http.result_ms", "ms"},
	{"noise.events", "count"},
	{"noise.windows_closed", "count"},
	{"obs.trace_overhead_pct", "%"},
	{"fail_frac", "1"},
}

// metricValue is one metric of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// tally counts units of work attempted and failed: (point, run) tasks,
// output checks and exact-counter comparisons. fail_frac is
// failed / attempted.
type tally struct {
	attempted, failed int
}

// check counts one check, reporting it on standard error when it fails.
func (t *tally) check(ok bool, format string, args ...any) {
	t.attempted++
	if ok {
		return
	}
	t.failed++
	fmt.Fprintf(os.Stderr, "e2ebench: check failed: "+format+"\n", args...)
}

// add counts n units of work that all succeeded.
func (t *tally) add(n int) { t.attempted += n }

// merge folds another tally into t.
func (t *tally) merge(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
}

func (t tally) failFrac() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

// quantile is the linearly interpolated q-quantile of xs (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo, hi := int(math.Floor(pos)), int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
