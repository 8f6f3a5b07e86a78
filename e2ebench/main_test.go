package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"semsim/internal/jobs"
	"semsim/internal/obs"
)

// benchmarkFile is the metric catalogue the benchmark is run against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	blob, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(blob, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func tinyConfig(t *testing.T, workload string, trace bool) runConfig {
	return runConfig{
		workload: workload, seed: 3, seconds: 0.05, trace: trace, scale: "tiny",
		outDir: t.TempDir(), root: "..",
	}
}

// lastLine decodes the result line the driver reads.
func lastLine(t *testing.T, out string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	return res
}

// TestSmokeEveryMetric runs every workload at the tiny scale, untraced
// and traced, and checks that the result line carries exactly the
// metrics BENCHMARK.json names, each with its unit, and no failure.
func TestSmokeEveryMetric(t *testing.T) {
	bf := loadBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if workloads[i].name != w.Name {
			t.Fatalf("workload %d is %q in BENCHMARK.json, %q here", i, w.Name, workloads[i].name)
		}
		for _, trace := range []bool{false, true} {
			var stdout bytes.Buffer
			if _, err := benchmark(tinyConfig(t, w.Name, trace), &stdout); err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			res := lastLine(t, stdout.String())
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d", w.Name, trace, res.Correct, res.Failed, res.Attempted)
			}
			want := bf.EndToEnd
			if trace {
				want = bf.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w.Name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s in %q, want %q", w.Name, trace, m.Name, got.Unit, m.Unit)
				case !trace && !(got.Value > 0):
					t.Errorf("%s: end-to-end metric %s reads %g", w.Name, m.Name, got.Value)
				}
			}
		}
	}
}

// TestCorruptedOutputCountsAsFailure flips the sign of the current at
// the largest bias — breaking I(-V) = -I(V) — and checks that the run
// reports it in fail_frac and in the result line.
func TestCorruptedOutputCountsAsFailure(t *testing.T) {
	cfg := tinyConfig(t, "iv-cotunnel", true)
	if err := os.MkdirAll(cfg.tmpDir(), 0o755); err != nil {
		t.Fatal(err)
	}
	w, err := newIVWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	w.corrupt = func(pts []jobs.Point) {
		last := pts[len(pts)-1]
		for j := range last.Current {
			last.Current[j] = -last.Current[j]
		}
	}
	out, err := execute(cfg, w, obs.New(obs.Config{}), newTracer())
	if err != nil {
		t.Fatal(err)
	}
	res := out.result
	if res.Correct || res.Failed == 0 {
		t.Fatalf("corrupted output passed: correct=%v failed=%d", res.Correct, res.Failed)
	}
	if ff := res.Metrics["fail_frac"].Value; !(ff > 0) || ff != float64(res.Failed)/float64(res.Attempted) {
		t.Fatalf("fail_frac = %g, want failed/attempted = %d/%d", ff, res.Failed, res.Attempted)
	}
}

// TestCheckLevelsCountsMismatch checks the logic-level comparison
// counts a wrong expected level.
func TestCheckLevelsCountsMismatch(t *testing.T) {
	var tl tally
	checkLevels(&tl, []string{"a", "b"}, map[string]bool{"a": true, "b": false}, map[string]bool{"a": true, "b": true})
	if tl.attempted != 2 || tl.failed != 1 {
		t.Fatalf("tally = %+v, want 2 attempted, 1 failed", tl)
	}
}

// TestDeckTextSubstitutesSeed checks the generated deck carries the
// benchmark seed and the edited directives.
func TestDeckTextSubstitutesSeed(t *testing.T) {
	text, err := deckText(ivDeck, 42, ivTiny)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{"seed 42", ivTiny["jumps"], ivTiny["sweep"]} {
		if !strings.Contains(text, "\n"+line+"\n") && !strings.HasSuffix(text, "\n"+line) {
			t.Errorf("deck lacks %q:\n%s", line, text)
		}
	}
}
