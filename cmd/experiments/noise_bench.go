package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"semsim/internal/bench"
	"semsim/internal/logicnet"
)

// noiseBench measures what streaming noise accumulation costs on the
// c432 workload — plain current recording vs counting-window cumulants
// on every junction vs the full spectral estimator, same seed so all
// modes execute the identical trajectory — and writes the baseline to
// BENCH_noise.json.
func noiseBench() error {
	// Longer runs and more repeats than the obs benchmark: the gate
	// resolves a few percent, so the per-mode wall time must be well
	// clear of scheduler noise.
	name, events, repeats := "c432", uint64(150000), 9
	if *quick {
		name, events, repeats = "74LS153", uint64(2000), 2
	}
	b, ok := bench.ByName(name)
	if !ok {
		return fmt.Errorf("benchmark %s missing from suite", name)
	}
	rep, err := bench.RunNoiseOverhead(b, logicnet.DefaultParams(), events, 11, repeats, 4)
	if err != nil {
		return err
	}
	for _, r := range rep.Runs {
		extra := ""
		if r.Windows > 0 {
			extra = fmt.Sprintf("  %d windows, %d recorded events", r.Windows, r.RecorderEvents)
		}
		fmt.Fprintf(stdout, "%-8s  %8.0f events/s  %8.3fs wall  %+5.1f%% overhead%s\n",
			r.Mode, r.EventsPerSec, r.WallSeconds, r.OverheadPct, extra)
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(*outDir, "BENCH_noise.json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %s\n", path)
	return nil
}
