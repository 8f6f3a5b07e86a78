# Convenience targets; everything is plain `go` underneath.

.PHONY: all build test unit race bench zero-alloc e2e-smoke rate-engine bench-compare obs-overhead noise-bench experiments quick-experiments fmt vet lint debug fuzz docs-verify

all: build test

build:
	go build ./...

# The default test flow: static checks (go vet plus the semsimlint
# analyzer suite), documentation verification, the full unit suite, the
# semsimdebug invariant build, then the race detector over the packages
# with internal concurrency (the jobs runner, the bench delay fan-out),
# and a compile-and-smoke pass over the end-to-end benchmark harness.
test: vet lint docs-verify unit debug race zero-alloc e2e-smoke

unit:
	go test ./...

# Unit suite with the runtime invariant layer compiled in: electron
# conservation, Fenwick consistency, potential drift and kernel accuracy
# are asserted on every solver step.
debug:
	go test -tags semsimdebug ./...

# The packages that start goroutines (the jobs runner and engine, the
# bench delay averaging, obs servers and progress) plus the solver they
# drive. CI runs this target, so the list lives only here.
race:
	go test -race ./internal/solver/... ./internal/bench/... ./internal/obs/... ./internal/jobs/...

# Documentation is executable: every ```deck example in docs/DECK.md
# must parse, round-trip through the canonical writer and compile, the
# doc must cover every parser directive, the doccomment analyzer (with
# its fixtures) must hold over the public surface, and README's pass
# table and the semsimlint package doc must name every lint pass.
docs-verify:
	go test -run 'TestDeckDoc' ./internal/netlist/
	go test -run 'TestDoccomment|TestReadmeListsEveryPass' ./internal/lint/
	go run ./cmd/semsimlint . ./internal/jobs/...

# Disabled observability must stay literally free (nil-receiver hooks
# at 0 allocs/op), and so must the per-event potential update (the
# truncated-row walk, with and without the shift record the adaptive
# test reads), the solver's whole steady-state event loop (flush,
# sample, apply, recompute) and the noise/FCS recording path (windows
# and spectral sums).
zero-alloc:
	go test -run TestObsDisabledZeroAlloc -bench=ObsDisabled -benchmem ./internal/obs/
	go test -run TestPotentialShiftZeroAlloc ./internal/circuit/
	go test -run TestStepHotPathZeroAlloc ./internal/solver/
	go test -run TestNoiseHotPathZeroAlloc ./internal/solver/
	go test -run TestAddZeroAlloc ./internal/noise/

# The end-to-end benchmark harness is a separate module (replace
# semsim => ../) that imports internal packages directly, so neither
# `go build ./...` nor `go test ./...` at the root compiles it. Vet it
# and run its tests (tiny-scale workloads) so an internal API change
# that breaks the benchmark fails here, not in the benchmark run.
e2e-smoke:
	cd e2ebench && go vet ./... && go test ./...

# One testing.B benchmark per paper figure, plus ablations and
# per-package microbenchmarks.
bench:
	go test -bench=. -benchmem ./...

# Machine-readable rate-engine benchmark (exact vs tabulated kernels,
# serial, on c432 and c1908) -> results/BENCH_rate_engine.json.
rate-engine:
	go run ./cmd/experiments rate-engine

# Gate the committed rate-engine snapshot: tabulated kernels must not be
# slower than exact evaluation in any configuration. Diff two snapshots
# with `go run ./cmd/benchcmp OLD.json NEW.json`.
bench-compare:
	go run ./cmd/benchcmp results/BENCH_rate_engine.json

# Observability overhead on c432 (obs off vs metrics-only vs jobs-layer
# task telemetry vs full tracing, same seed)
# -> results/BENCH_obs_overhead.json, then gate it: the always-on modes
# must cost < 5% and every mode must run the identical trajectory.
obs-overhead:
	go run ./cmd/experiments obs-overhead
	go run ./cmd/benchcmp -obs results/BENCH_obs_overhead.json

# Streaming noise-recording overhead on c432 (plain current recording
# vs counting-window cumulants on every junction vs the full spectral
# estimator, same seed) -> results/BENCH_noise.json, then gate it: the
# recording modes must cost < 5% and run the identical trajectory.
noise-bench:
	go run ./cmd/experiments noise-bench
	go run ./cmd/benchcmp -noise results/BENCH_noise.json

# Regenerate every figure of the paper into ./results (see
# EXPERIMENTS.md). The full run takes hours on one core; use
# quick-experiments for a smoke pass.
experiments:
	go run ./cmd/experiments all

quick-experiments:
	go run ./cmd/experiments -quick all

fmt:
	gofmt -w .

vet:
	go vet ./...

# The project's own analyzer suite (see DESIGN.md section 7): the
# module driver loads every package once and threads the cross-package
# facts in dependency order, printing one file:line:col finding per
# line. Both build configurations are checked so the semsimdebug-only
# files stay clean too.
lint:
	go run ./cmd/semsimlint ./...
	go run ./cmd/semsimlint -tags semsimdebug ./...

# Short local fuzzing bursts over the committed seed corpora.
fuzz:
	go test -fuzz FuzzNetlistParse -fuzztime 30s ./internal/netlist/
	go test -fuzz FuzzFenwick -fuzztime 30s ./internal/solver/
	go test -fuzz FuzzCheckpointDecode -fuzztime 30s ./internal/solver/
	go test -fuzz FuzzRunFileDecode -fuzztime 30s ./internal/jobs/
