// Package solver mirrors the hot-path output shapes the obsdiscipline
// pass must catch: terminal printing and logging from simulator inner
// loops, which belong on internal/obs instead.
package solver

import (
	"bytes"
	"fmt"
	"log"      // want "import of log in hot simulator package"
	"log/slog" // want "import of log/slog in hot simulator package"
	"os"
)

var logger = log.New(os.Stderr, "solver: ", 0) // want "log.New in hot simulator package"

func step(ev int, dw float64) {
	fmt.Printf("event %d dw=%g\n", ev, dw) // want "fmt.Printf in hot simulator package"
	fmt.Println("stepped")                 // want "fmt.Println in hot simulator package"
	fmt.Print(ev)                          // want "fmt.Print in hot simulator package"
	fmt.Fprintf(os.Stderr, "ev %d\n", ev)  // want "fmt.Fprintf to a terminal stream"
	fmt.Fprintln(os.Stdout, "done")        // want "fmt.Fprintln to a terminal stream"
	log.Printf("event %d", ev)             // want "log.Printf in hot simulator package"
	slog.Info("stepped", "event", ev)      // want "slog.Info in hot simulator package"
	logger.Printf("worker output %d", ev)  // want "log.Printf in hot simulator package"
	println("debug", ev)                   // want "println built-in in hot simulator package"
	print("x")                             // want "print built-in in hot simulator package"
}

// Legal output shapes: formatting values, error construction, and
// writing into buffers are not terminal chatter.
func format(ev int) (string, error) {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "event %d", ev)
	s := fmt.Sprintf("%d", ev)
	if ev < 0 {
		return "", fmt.Errorf("bad event %d", ev)
	}
	return s + buf.String(), nil
}
