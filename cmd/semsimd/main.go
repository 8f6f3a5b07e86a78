// Command semsimd is the batch simulation daemon: it accepts input
// decks over an HTTP JSON API, fans each deck out into independent
// (sweep point, run) tasks on a bounded worker pool, checkpoints every
// run periodically (atomic write-temp-and-rename files), and resumes
// interrupted work bit-identically — a deck resubmitted after a crash
// or drain picks up exactly where its checkpoints left off.
//
// Usage:
//
//	semsimd [-addr :8723] [-dir semsimd-data] [-workers n] [flags]
//
// API (see docs/DECK.md for the deck format):
//
//	POST /api/v1/jobs             {"deck": "..."}
//	GET  /api/v1/jobs             list all jobs
//	GET  /api/v1/jobs/{id}        job status
//	GET  /api/v1/jobs/{id}/result folded sweep points (when done)
//	POST /api/v1/jobs/{id}/cancel abort a job
//	GET  /api/v1/jobs/{id}/events live progress (Server-Sent Events; also /jobs/{id}/events)
//	GET  /api/v1/jobs/{id}/trace  Chrome trace, one lane per worker (also /jobs/{id}/trace)
//	GET  /healthz                 liveness
//	GET  /metrics /trace /heatmap /debug/pprof/   observability
//
// The deck carries every setting of the job: rate tables, the C^-1
// truncation threshold and the noise counting windows are its
// rate-tables, cinv-eps and record fano directives. A deck that does
// not parse (cinv-eps 2, say) is refused with HTTP 422. A body with any
// key besides "deck" — including the retired "overrides" object — is
// refused with HTTP 400 naming the key, so no setting is ever silently
// dropped.
//
// Each job keeps one bounded event log, its newest 2048·workers + 1024
// events, and the events and trace routes both render it. An event
// stream that falls behind the log gets one "event: dropped" record
// with the number of events it missed; it never stalls the engine.
//
// /metrics content-negotiates: the stable JSON snapshot by default, the
// Prometheus text exposition for scrapers (Accept: text/plain or
// ?format=prometheus).
//
// On SIGINT/SIGTERM the daemon drains gracefully: no new tasks start,
// in-flight runs persist a final checkpoint at their next refresh
// boundary, event streams deliver their jobs' terminal states, the
// journal sink and final metrics snapshot are flushed, and only then
// does the listener close — all bounded by -drain-timeout. A second
// signal aborts immediately. The exit status is 1 when the drain is
// incomplete or a journal or metrics write failed.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"semsim/internal/jobs"
	"semsim/internal/obs"
)

func main() {
	addr := flag.String("addr", ":8723", "HTTP listen address")
	dir := flag.String("dir", "semsimd-data", "checkpoint directory (created if missing; empty disables crash-safety)")
	workers := flag.Int("workers", 0, "concurrent (point, run) tasks across all jobs (0 = GOMAXPROCS)")
	every := flag.Int("checkpoint-every", 0, "target events between checkpoints (0 = default; rounded up to the solver refresh period)")
	jobTimeout := flag.Duration("job-timeout", 0, "per-job wall-clock timeout (0 = unlimited)")
	retries := flag.Int("retries", 0, "retries per task for transient failures (0 = default of 2, negative disables)")
	resultCache := flag.Bool("result-cache", false, "keep per-task done markers after jobs finish so identical decks resubmitted later reuse completed results (needs -dir)")
	drainTimeout := flag.Duration("drain-timeout", 2*time.Minute, "how long a graceful shutdown may take before aborting")
	traceOn := flag.Bool("trace-journal", false, "record the run journal (served at /trace)")
	traceJSONL := flag.String("trace-jsonl", "", "additionally append every journal event to this JSONL file (implies -trace-journal)")
	metricsOut := flag.String("metrics-out", "", "write a final JSON metrics snapshot to this file on shutdown")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: semsimd [-addr :8723] [-dir semsimd-data] [-workers n] [-checkpoint-every n] [-job-timeout d] [-retries n] [-result-cache] [-drain-timeout d] [-trace-journal] [-trace-jsonl f] [-metrics-out f]\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 0 {
		flag.Usage()
		os.Exit(2)
	}

	if *dir != "" {
		if err := os.MkdirAll(*dir, 0o755); err != nil {
			fatal(err)
		}
	}

	cfg := obs.Config{Trace: *traceOn}
	var jsonl *os.File
	if *traceJSONL != "" {
		f, err := os.Create(*traceJSONL)
		if err != nil {
			fatal(err)
		}
		jsonl = f
		cfg.Trace = true
		cfg.TraceJSONL = f
	}
	o := obs.New(cfg)
	obs.SetGlobal(o)

	engine := jobs.NewEngine(jobs.EngineConfig{
		Workers:         *workers,
		CheckpointDir:   *dir,
		CheckpointEvery: *every,
		JobTimeout:      *jobTimeout,
		MaxRetries:      *retries,
		ResultCache:     *resultCache,
		Obs:             o,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	srv := &http.Server{Handler: jobs.NewHandler(engine, o)}
	fmt.Fprintf(os.Stderr, "semsimd: listening on %s (checkpoints in %q)\n", ln.Addr(), *dir)

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)

	select {
	case err := <-serveErr:
		fatal(err)
	case sig := <-sigs:
		fmt.Fprintf(os.Stderr, "semsimd: %v — draining (checkpointing in-flight runs; signal again to abort)\n", sig)
	}

	// Shutdown ordering matters: drain the engine first (every job
	// reaches a terminal state, so /jobs/{id}/events streams deliver it
	// and end), then flush the journal sink and write the final metrics
	// snapshot — both must land before the listener closes, or a drain
	// racing a crash-loop supervisor loses the tail of the journal — and
	// close the listener last. A second signal (or the drain timeout)
	// aborts the drain.
	shutCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	go func() {
		<-sigs
		fmt.Fprintln(os.Stderr, "semsimd: aborting")
		cancel()
	}()
	drainErr := engine.Shutdown(shutCtx)
	writeFailed := false
	report := func(what string, err error) {
		if err != nil {
			fmt.Fprintf(os.Stderr, "semsimd: %s: %v\n", what, err)
			writeFailed = true
		}
	}
	if j := o.Journal(); j != nil {
		report("journal flush", j.Flush())
	}
	if jsonl != nil {
		report("journal close", jsonl.Close())
	}
	if *metricsOut != "" {
		report("metrics snapshot", writeMetricsSnapshot(*metricsOut, o))
	}
	if err := srv.Shutdown(shutCtx); err != nil && !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintln(os.Stderr, "semsimd:", err)
	}
	if drainErr != nil {
		fmt.Fprintln(os.Stderr, "semsimd: drain incomplete:", drainErr)
		os.Exit(1)
	}
	if writeFailed {
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "semsimd: drained cleanly")
}

// writeMetricsSnapshot persists the registry's stable JSON snapshot.
func writeMetricsSnapshot(path string, o *obs.Observer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := o.Registry().WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "semsimd:", err)
	os.Exit(1)
}
