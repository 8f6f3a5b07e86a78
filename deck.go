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

// DeckOverrides adjusts engine settings on top of the deck's own
// directives (command-line flags win over the file): tabulated rate
// kernels, the C^-1 truncation threshold and the noise counting
// window. Tabulated kernels and truncation are
// folded into the deck before it is keyed and compiled, so an override
// runs exactly the deck that spells the same directives.
type DeckOverrides = jobs.Overrides

// DeckRunConfig tunes RunDeckCtx: checkpoint directory and cadence,
// resume, task concurrency, and a drain channel. The zero value
// matches RunDeck exactly.
type DeckRunConfig = jobs.RunConfig

// ErrDeckInterrupted is returned by RunDeckCtx when a drain request
// (DeckRunConfig.Stop) stopped the execution after checkpointing: the
// run is incomplete but resumable with DeckRunConfig.Resume.
var ErrDeckInterrupted = jobs.ErrInterrupted

// RunDeck executes a deck: for each sweep point (or once, without a
// sweep) it compiles the circuit, runs the configured number of jumps
// and/or simulated time for each requested run (distinct seeds), and
// averages the recorded junction currents.
func RunDeck(d *Deck) ([]DeckPoint, error) {
	return RunDeckWith(d, DeckOverrides{})
}

// RunDeckWith is RunDeck with engine overrides applied to every point.
func RunDeckWith(d *Deck, ov DeckOverrides) ([]DeckPoint, error) {
	return jobs.ExecuteDeck(context.Background(), d, ov, jobs.RunConfig{})
}

// RunDeckCtx is the full-control deck executor: cancelable through
// ctx, optionally crash-safe (periodic atomic checkpoints in cfg.Dir,
// resumed bit-identically with cfg.Resume), and parallel across
// (point, run) tasks up to cfg.Workers with deterministic folding —
// the result is bit-identical at any worker count. See the jobs
// package for the determinism argument.
func RunDeckCtx(ctx context.Context, d *Deck, ov DeckOverrides, cfg DeckRunConfig) ([]DeckPoint, error) {
	return jobs.ExecuteDeck(ctx, d, ov, cfg)
}
