package obs

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// A trace file that cannot be created (a directory, on every OS) makes
// stop return the error, naming the path, so the command can exit 1.
func TestStartCLIStopReturnsTraceWriteError(t *testing.T) {
	dir := t.TempDir()
	stop, err := StartCLI(CLIConfig{TraceFile: dir})
	if err != nil {
		t.Fatal(err)
	}
	err = stop()
	if err == nil {
		t.Fatal("stop returned nil for a trace file that cannot be created")
	}
	if !strings.Contains(err.Error(), dir) {
		t.Errorf("stop error %q does not name %s", err, dir)
	}
	if Global() != nil {
		t.Error("stop left the global observer installed")
	}
}

// On a writable path stop returns nil and leaves a Chrome trace that
// parses as JSON and holds the run's events.
func TestStartCLIStopWritesTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.json")
	stop, err := StartCLI(CLIConfig{TraceFile: path})
	if err != nil {
		t.Fatal(err)
	}
	GlobalSpan("cli-test").End()
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(blob, &trace); err != nil || len(trace.TraceEvents) == 0 {
		t.Fatalf("trace file is not a JSON trace (%v):\n%s", err, blob)
	}
	if !strings.Contains(string(blob), `"cli-test"`) {
		t.Errorf("trace file lacks the recorded span:\n%s", blob)
	}
}
