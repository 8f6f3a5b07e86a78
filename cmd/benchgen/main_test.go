package main

import (
	"errors"
	"testing"
)

// failingWriter refuses every write with its error.
type failingWriter struct{ err error }

func (f failingWriter) Write([]byte) (int, error) { return 0, f.err }

// write reports a failing destination (a full disk, a closed pipe) for
// the benchmark table and for a netlist alike, instead of exiting as if
// the output had been written.
func TestWriteReturnsWriteError(t *testing.T) {
	full := errors.New("no space left on device")
	for _, name := range []string{"", "c432"} {
		if err := write(failingWriter{full}, name); !errors.Is(err, full) {
			t.Errorf("write(%q) returned %v, want the writer's error", name, err)
		}
	}
}
