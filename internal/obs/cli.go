package obs

import (
	"errors"
	"fmt"
	"os"
	"time"
)

// CLIConfig carries the observability flags shared by the command-line
// tools: -obs-addr, -trace and -progress.
type CLIConfig struct {
	// Addr serves /metrics, /trace, /heatmap and /debug/pprof/ on this
	// address while the run lasts ("" = off; ":0" picks a free port).
	Addr string
	// TraceFile enables the event journal and writes it as Chrome
	// trace_event JSON to this path when the run stops ("" = off).
	TraceFile string
	// Progress prints periodic progress lines (events/s, simulated
	// time, ETA) to stderr.
	Progress bool
	// TargetSim is the simulated time the run aims for; when > 0 the
	// progress lines include percent complete and an ETA.
	TargetSim float64
}

// StartCLI installs a process-wide observer per cfg — every simulation,
// sweep and master solve then reports to it without further plumbing —
// and returns a stop function that writes the trace file, shuts the
// HTTP endpoint down, uninstalls the observer and returns the errors
// of the trace write and the shutdown, if any. With every feature off
// it installs nothing and stop returns nil.
func StartCLI(cfg CLIConfig) (stop func() error, err error) {
	if cfg.Addr == "" && cfg.TraceFile == "" && !cfg.Progress {
		return func() error { return nil }, nil
	}
	// The journal feeds both the trace file and the live /trace route.
	o := New(Config{Trace: cfg.TraceFile != "" || cfg.Addr != ""})
	SetGlobal(o)
	var srv *Server
	if cfg.Addr != "" {
		srv, err = Serve(cfg.Addr, o)
		if err != nil {
			SetGlobal(nil)
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "obs: serving metrics, trace and pprof on http://%s/\n", srv.Addr)
	}
	var prog *Progress
	if cfg.Progress {
		prog = StartProgress(o, os.Stderr, 2*time.Second, cfg.TargetSim)
	}
	return func() error {
		prog.Stop()
		var traceErr, closeErr error
		if cfg.TraceFile != "" {
			if traceErr = writeTraceFile(cfg.TraceFile, o); traceErr == nil {
				fmt.Fprintf(os.Stderr, "obs: wrote %s (open in chrome://tracing or ui.perfetto.dev)\n", cfg.TraceFile)
			}
		}
		if srv != nil {
			closeErr = srv.Close()
		}
		SetGlobal(nil)
		return errors.Join(traceErr, closeErr)
	}, nil
}

func writeTraceFile(path string, o *Observer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := o.Journal().WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
