package semsim

import (
	"context"
	"io"

	"semsim/internal/jobs"
	"semsim/internal/netlist"
)

// Deck is a parsed SPICE-like input file (the paper's Example Input
// File 1 format; see docs/DECK.md for the full directive reference).
type Deck = netlist.Deck

// CompiledDeck is one instantiation of a deck: a built circuit plus the
// netlist-number to circuit-id mappings.
type CompiledDeck = netlist.Compiled

// ParseNetlist reads a simulation deck.
func ParseNetlist(r io.Reader) (*Deck, error) { return netlist.Parse(r) }

// DeckPoint is one operating point of an executed deck: the swept
// source value, the per-junction currents averaged over the deck's
// runs, and the measured event count.
type DeckPoint = jobs.Point

// DeckRunConfig tunes RunDeckCtx: checkpoint directory and cadence,
// resume, task concurrency, and a drain channel. The zero value
// matches RunDeck exactly.
type DeckRunConfig = jobs.RunConfig

// ErrDeckInterrupted is returned by RunDeckCtx when a drain request
// (DeckRunConfig.Stop) stopped the execution after checkpointing: the
// run is incomplete but resumable with DeckRunConfig.Resume.
var ErrDeckInterrupted = jobs.ErrInterrupted

// RunDeck executes a deck sequentially: for each sweep or map point (or
// once, without either) it runs the configured number of jumps and/or
// simulated time for each requested run, and averages the recorded
// junction currents. Every setting comes from the deck's own
// directives (docs/DECK.md). The circuit is compiled once and its
// solver re-seeded per (point, run) task, bit-identical to a fresh
// build. Each task's seed mixes the deck's `seed` with the point index
// and the run number (see the `seed` directive in docs/DECK.md); a map
// point's index is its fine-lattice index. Map decks with `refine` run
// in waves: the coarse grid, then each refinement level's points.
func RunDeck(d *Deck) ([]DeckPoint, error) {
	return RunDeckCtx(context.Background(), d, DeckRunConfig{})
}

// RunDeckCtx is the full-control deck executor: cancelable through
// ctx, optionally crash-safe (periodic atomic checkpoints in cfg.Dir,
// resumed bit-identically with cfg.Resume), and parallel across
// (point, run) tasks up to cfg.Workers with deterministic folding —
// the result is bit-identical at any worker count. See the jobs
// package for the determinism argument.
func RunDeckCtx(ctx context.Context, d *Deck, cfg DeckRunConfig) ([]DeckPoint, error) {
	// ExecuteDeck's third parameter is an empty, ignored stub.
	return jobs.ExecuteDeck(ctx, d, struct{}{}, cfg)
}
