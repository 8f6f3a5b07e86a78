package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"semsim/internal/bench"
	"semsim/internal/logicnet"
)

// obsOverhead measures what the observability layer costs on the c432
// workload — obs off vs metrics-only vs full tracing, same seed so all
// three runs execute the identical trajectory — and writes the baseline
// to BENCH_obs_overhead.json.
func obsOverhead() error {
	name, events, repeats := "c432", uint64(20000), 3
	if *quick {
		name, events, repeats = "74LS153", uint64(2000), 2
	}
	b, ok := bench.ByName(name)
	if !ok {
		return fmt.Errorf("benchmark %s missing from suite", name)
	}
	rep, err := bench.RunObsOverhead(b, logicnet.DefaultParams(), events, 11, repeats)
	if err != nil {
		return err
	}
	for _, r := range rep.Runs {
		extra := ""
		if r.JournalEvents > 0 {
			extra = fmt.Sprintf("  %d journal records", r.JournalEvents)
		}
		fmt.Fprintf(stdout, "%-8s  %8.0f events/s  %8.3fs wall  %+5.1f%% overhead%s\n",
			r.Mode, r.EventsPerSec, r.WallSeconds, r.OverheadPct, extra)
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(*outDir, "BENCH_obs_overhead.json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %s\n", path)
	return nil
}
