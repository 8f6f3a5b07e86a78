// Command e2ebench is the repository's end-to-end benchmark. It runs one
// of four deck-in → result-out user paths for a fixed wall-clock budget,
// checks every output, and prints the end-to-end metrics — or, with
// -trace 1, the per-layer breakdown — as one JSON object on the last
// line of standard output. README.md lists the workloads and metrics.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash e2ebench/run.sh --workload iv-cotunnel --seed 1 --seconds 10 --trace 0
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"

	"semsim/internal/obs"
)

// workloadSpec is one benchmark workload and why it was chosen.
type workloadSpec struct {
	name, why string
	make      func(cfg runConfig, o *obs.Observer) (workload, error)
}

var workloads = []workloadSpec{
	{"iv-cotunnel",
		"hundreds of tiny (point, run) tasks on a 2-junction SET: per-task compile/Reset, checkpoint, fold, cotunnel and noise-hook overhead",
		func(cfg runConfig, _ *obs.Observer) (workload, error) { return newIVWorkload(cfg) }},
	{"map-sset",
		"refined superconducting-SET stability map through an in-process semsimd: QP/Cooper-pair kernels, session Reset, refinement waves, HTTP",
		func(cfg runConfig, o *obs.Observer) (workload, error) { return newMapWorkload(cfg, o) }},
	{"logic-c432",
		"adaptive c432 delay transient on the dense O(n^3) C^-1 build, where dense-row potential shifts dominate the per-event cost",
		func(cfg runConfig, _ *obs.Observer) (workload, error) { return newLogicWorkload(cfg) }},
	{"logic-c1908",
		"adaptive c1908 at a fixed event budget on the sparse RCM+Cholesky build with truncated CSR rows and rate tables",
		func(cfg runConfig, _ *obs.Observer) (workload, error) { return newLogicWorkload(cfg) }},
}

// workerConfig is one concurrency setting of a workload. Exceeds marks
// a setting with more workers than GOMAXPROCS: such a row measures
// goroutine interleaving, not parallel speed-up.
type workerConfig struct {
	Name    string `json:"name"`
	Workers int    `json:"workers"`
	Engaged bool   `json:"engaged"`
	Exceeds bool   `json:"exceeds_gomaxprocs"`
}

// provenance is stamped on every result.
type provenance struct {
	Workload       string         `json:"workload"`
	Why            string         `json:"why"`
	Seed           uint64         `json:"seed"`
	Scale          string         `json:"scale"`
	Trace          bool           `json:"trace"`
	Seconds        float64        `json:"seconds"`
	GitRevision    string         `json:"git_revision"`
	SourceSHA256   string         `json:"source_sha256"`
	GoVersion      string         `json:"go_version"`
	GOMAXPROCS     int            `json:"gomaxprocs"`
	NumCPU         int            `json:"nproc"`
	Sizes          map[string]any `json:"sizes"`
	Workers        []workerConfig `json:"workers"`
	Oversubscribed bool           `json:"oversubscribed"`
	Repetitions    int            `json:"repetitions"`
	SetupSamples   int            `json:"setup_samples"`
}

func main() {
	var cfg runConfig
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(names, ", "))
	flag.Uint64Var(&cfg.seed, "seed", 1, "Monte Carlo seed written into the workload's input")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "wall-clock seconds of measured repetitions")
	traceFlag := flag.Int("trace", 0, "0 prints the end-to-end metrics; 1 runs the traced per-layer breakdown")
	flag.StringVar(&cfg.scale, "scale", "full", "input size: full, or tiny for smoke tests")
	flag.StringVar(&cfg.outDir, "out", filepath.Join(".bench_build", "e2ebench", "run"), "directory for temporary files, traces, results and counter records")
	flag.StringVar(&cfg.root, "root", ".", "repository root, hashed into the provenance")
	flag.Parse()
	if flag.NArg() != 0 || (*traceFlag != 0 && *traceFlag != 1) {
		flag.Usage()
		os.Exit(2)
	}
	cfg.trace = *traceFlag == 1
	runtime.GOMAXPROCS(runtime.NumCPU())
	if _, err := benchmark(cfg, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

// benchmark runs one configured workload, records its provenance,
// counters, results and (traced) spans under cfg.outDir, and prints the
// provenance, the exact counters and, last, the result line.
func benchmark(cfg runConfig, stdout io.Writer) (*outcome, error) {
	var spec *workloadSpec
	for i := range workloads {
		if workloads[i].name == cfg.workload {
			spec = &workloads[i]
		}
	}
	if spec == nil {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.seconds <= 0 {
		return nil, fmt.Errorf("-seconds must be positive")
	}
	for _, sub := range []string{"tmp", "counters", "results", "traces"} {
		if err := os.MkdirAll(filepath.Join(cfg.outDir, sub), 0o755); err != nil {
			return nil, err
		}
	}
	source, err := sourceDigest(cfg.root)
	if err != nil {
		return nil, fmt.Errorf("hash sources: %w", err)
	}
	cfg.source = source
	stem := fmt.Sprintf("%s-%s-seed%d", cfg.workload, cfg.scale, cfg.seed)
	cfg.counterFile = filepath.Join(cfg.outDir, "counters", stem+".json")

	var (
		o  *obs.Observer
		tr *tracer
	)
	if cfg.trace {
		o, tr = obs.New(obs.Config{}), newTracer()
	}
	w, err := spec.make(cfg, o)
	if err != nil {
		return nil, err
	}
	out, err := execute(cfg, w, o, tr)
	if cerr := w.close(); cerr != nil && err == nil {
		err = fmt.Errorf("close %s: %w", cfg.workload, cerr)
	}
	if err != nil {
		return nil, err
	}

	sizes, workers := w.describe()
	prov := provenance{
		Workload: cfg.workload, Why: spec.why, Seed: cfg.seed, Scale: cfg.scale,
		Trace: cfg.trace, Seconds: cfg.seconds,
		GitRevision: gitRevision(), SourceSHA256: source, GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		Sizes: sizes, Repetitions: len(out.reps), SetupSamples: len(out.setups),
	}
	for _, wc := range workers {
		wc.Exceeds = wc.Workers > prov.GOMAXPROCS
		prov.Oversubscribed = prov.Oversubscribed || (wc.Exceeds && wc.Engaged)
		prov.Workers = append(prov.Workers, wc)
	}
	trace := 0
	if cfg.trace {
		trace = 1
		if err := tr.write(filepath.Join(cfg.outDir, "traces", stem+".json")); err != nil {
			return nil, err
		}
	}
	report := map[string]any{"provenance": prov, "counters": out.counters, "result": out.result, "samples": samples(out)}
	blob, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(cfg.outDir, "results", fmt.Sprintf("%s-trace%d.json", stem, trace)), blob, 0o644); err != nil {
		return nil, err
	}
	enc := json.NewEncoder(stdout)
	for _, line := range []any{
		map[string]any{"provenance": prov},
		map[string]any{"counters": out.counters},
		out.result,
	} {
		if err := enc.Encode(line); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// samples lists the per-repetition measurements behind the medians.
func samples(out *outcome) map[string][]float64 {
	s := map[string][]float64{}
	for _, r := range out.reps {
		s["wall_s"] = append(s["wall_s"], r.wall)
		s["simulate_s"] = append(s["simulate_s"], r.simulate)
		s["events"] = append(s["events"], float64(r.events))
		s["alloc_mb"] = append(s["alloc_mb"], r.alloc/1e6)
	}
	for _, su := range out.setups {
		s["setup_s"] = append(s["setup_s"], su.seconds)
		s["heap_mb"] = append(s["heap_mb"], su.heap/1e6)
	}
	return s
}

// gitRevision is the VCS revision stamped into the binary, when it was
// built inside a git checkout.
func gitRevision() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	switch {
	case rev == "":
		return "unknown (not built in a git checkout)"
	case dirty:
		return rev + "-dirty"
	}
	return rev
}

// sourceDigest hashes the program's sources under root (Go files, module
// files and decks), so results of the same code can be matched even
// where no git revision is available.
func sourceDigest(root string) (string, error) {
	var paths []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		switch filepath.Ext(path) {
		case ".go", ".mod", ".cir", ".logic":
			paths = append(paths, path)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		blob, err := os.ReadFile(p)
		if err != nil {
			return "", err
		}
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(rel), len(blob))
		h.Write(blob)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
