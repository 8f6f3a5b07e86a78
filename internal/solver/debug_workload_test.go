//go:build semsimdebug

// Invariant audit of the c432 benchmark deck: the full event loop —
// adaptive updates, tabulated kernels, input changes, periodic
// refreshes — must complete with zero recorded violations.
package solver_test

import (
	"testing"

	"semsim/internal/bench"
	"semsim/internal/invariant"
	"semsim/internal/solver"
)

func TestC432InvariantsSerial(t *testing.T) {
	invariant.Reset()
	ex, b := workload(t, "c432")
	opt := solver.Options{
		Temp:       bench.WorkloadTemp,
		Seed:       42,
		Adaptive:   true,
		RateTables: true,
	}
	runWorkload(t, ex, b, opt, 4000)
	if n := invariant.Violations(); n != 0 {
		t.Fatalf("c432 run recorded %d invariant violations:\n%v", n, invariant.Messages())
	}
}
