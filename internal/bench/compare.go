package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
)

// Rate-engine benchmark comparison: load two BENCH_rate_engine.json
// snapshots, line their runs up by (benchmark, kernel) and report
// per-configuration speedups — the tool behind `make
// bench-compare`. The loader also enforces the report's standing
// invariant: tabulated kernels exist to be faster than exact
// evaluation, so any row where tables lose to exact on the same
// configuration is a regression, not a trade-off.

// LoadRateEngineReports reads a BENCH_rate_engine.json file. Current
// files hold an array of reports (one per benchmark circuit); files
// from before the multi-circuit format hold a single object, which is
// loaded as a one-element slice so old and new snapshots diff cleanly.
func LoadRateEngineReports(path string) ([]RateEngineReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var reps []RateEngineReport
	if err := json.Unmarshal(data, &reps); err == nil {
		return reps, nil
	}
	var one RateEngineReport
	if err := json.Unmarshal(data, &one); err != nil {
		return nil, fmt.Errorf("bench: %s is neither a report array nor a single report: %w", path, err)
	}
	return []RateEngineReport{one}, nil
}

// runKey identifies one timed configuration across snapshots.
type runKey struct {
	Benchmark string
	Tables    bool
}

func (k runKey) String() string {
	kernel := "exact"
	if k.Tables {
		kernel = "tables"
	}
	return k.Benchmark + " " + kernel
}

// indexRuns keys every run on (benchmark, kernel). Snapshots from before
// runs were all serial also hold "parallel" rows after the serial ones;
// the first row of each key wins, so those load as their serial rows.
func indexRuns(reps []RateEngineReport) map[runKey]RateEngineRun {
	idx := map[runKey]RateEngineRun{}
	for _, rep := range reps {
		for _, r := range rep.Runs {
			k := runKey{rep.Benchmark, r.RateTables}
			if _, dup := idx[k]; !dup {
				idx[k] = r
			}
		}
	}
	return idx
}

// CheckTablesAtLeastExact returns one message per benchmark where the
// tabulated-kernel run is slower than the exact run. An empty slice
// means the invariant holds across every report.
func CheckTablesAtLeastExact(reps []RateEngineReport) []string {
	idx := indexRuns(reps)
	var bad []string
	for k, tab := range idx {
		if !k.Tables {
			continue
		}
		exactKey := k
		exactKey.Tables = false
		exact, ok := idx[exactKey]
		if !ok || exact.EventsPerSec <= 0 || tab.EventsPerSec <= 0 {
			continue
		}
		if tab.EventsPerSec < exact.EventsPerSec {
			bad = append(bad, fmt.Sprintf(
				"%s: tables %.0f events/s < exact %.0f events/s (%.2fx)",
				k.Benchmark, tab.EventsPerSec, exact.EventsPerSec, tab.EventsPerSec/exact.EventsPerSec))
		}
	}
	sort.Strings(bad)
	return bad
}

// CompareRateEngine renders a per-configuration speedup table between
// two snapshots. Configurations present in only one snapshot are listed
// as added or removed rather than silently dropped.
func CompareRateEngine(oldReps, newReps []RateEngineReport) string {
	oldIdx, newIdx := indexRuns(oldReps), indexRuns(newReps)
	var keys []string
	byName := map[string]runKey{}
	for k := range oldIdx {
		byName[k.String()] = k
	}
	for k := range newIdx {
		byName[k.String()] = k
	}
	for name := range byName {
		keys = append(keys, name)
	}
	sort.Strings(keys)

	var sb strings.Builder
	fmt.Fprintf(&sb, "%-20s %14s %14s %9s\n", "configuration", "old events/s", "new events/s", "speedup")
	for _, name := range keys {
		k := byName[name]
		o, haveOld := oldIdx[k]
		n, haveNew := newIdx[k]
		switch {
		case !haveOld:
			fmt.Fprintf(&sb, "%-20s %14s %14.0f %9s\n", name, "-", n.EventsPerSec, "added")
		case !haveNew:
			fmt.Fprintf(&sb, "%-20s %14.0f %14s %9s\n", name, o.EventsPerSec, "-", "removed")
		default:
			speed := 0.0
			if o.EventsPerSec > 0 {
				speed = n.EventsPerSec / o.EventsPerSec
			}
			fmt.Fprintf(&sb, "%-20s %14.0f %14.0f %8.2fx\n", name, o.EventsPerSec, n.EventsPerSec, speed)
		}
	}
	return sb.String()
}
