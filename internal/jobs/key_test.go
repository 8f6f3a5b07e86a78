package jobs

import (
	"bytes"
	"context"
	"hash/crc32"
	"testing"
)

// TestDeckKeyCollisionResistant pins a pair of physically different
// decks whose canonical text collides under CRC-32, the checksum the
// deck key used to be. The key names checkpoint files and the result
// cache, so a collision would resume or serve one deck's runs for the
// other.
func TestDeckKeyCollisionResistant(t *testing.T) {
	const base = "junc 1 1 2 1e-6 1e-18\njunc 2 2 0 1e-6 1e-18\ntemp 1\njumps 100\n"
	a := parseDeck(t, base+"vdc 1 1.6800172\n")
	b := parseDeck(t, base+"vdc 1 2.2836529\n")

	// The retired key: CRC-32 over the canonical text plus the empty
	// overrides suffix.
	crc := func(src string) uint32 {
		var buf bytes.Buffer
		if err := parseDeck(t, src).Format(&buf); err != nil {
			t.Fatal(err)
		}
		buf.WriteString("|rt=false|sparse=false|eps=0000000000000000|fw=0000000000000000")
		return crc32.ChecksumIEEE(buf.Bytes())
	}
	if crc(base+"vdc 1 1.6800172\n") != crc(base+"vdc 1 2.2836529\n") {
		t.Fatal("the pinned decks no longer collide under CRC-32; the test lost its point")
	}

	ka, err := deckKey(a, Overrides{})
	if err != nil {
		t.Fatal(err)
	}
	kb, err := deckKey(b, Overrides{})
	if err != nil {
		t.Fatal(err)
	}
	if ka == kb {
		t.Fatalf("different decks share key %s", ka)
	}
	if len(ka) < 32 {
		t.Fatalf("key %q carries fewer than 128 bits", ka)
	}
}

// TestDeckKeyNamesCinvEngine: the deck key carries the C^-1 engine, so
// done markers and checkpoints written when a deck without cinv-eps ran
// on dense rows are never served or resumed by the truncated-row
// engine. The pinned key is multiIslandDeck's under the dense engine.
func TestDeckKeyNamesCinvEngine(t *testing.T) {
	const denseEngineKey = "e8be9d216df7d3866536c48b4e790766"
	k, err := deckKey(parseDeck(t, multiIslandDeck), Overrides{})
	if err != nil {
		t.Fatal(err)
	}
	if k == denseEngineKey {
		t.Fatalf("deck key %s is the dense engine's", k)
	}
}

// multiIslandDeck is a three-island gated chain swept symmetrically.
const multiIslandDeck = `
junc 1 1 2 1e-6 1e-18
junc 2 2 3 1e-6 1e-18
junc 3 3 4 1e-6 1e-18
junc 4 4 5 1e-6 1e-18
cap 6 2 3e-19
cap 6 3 3e-19
cap 6 4 3e-19
vdc 1 0.03
vdc 5 -0.03
vdc 6 0.005
record 1 4
jumps 3000 2
sweep 1 0.03 0.015
symm 5
seed 5
temp 5
adaptive 0.05
`

// TestCinvEpsOverrideMatchesDirective: a CinvEps override is folded into
// the deck before keying and compiling, so it runs exactly the deck
// that spells the same cinv-eps directive — same key, bit-identical
// points — and builds natively at that threshold.
func TestCinvEpsOverrideMatchesDirective(t *testing.T) {
	over := parseDeck(t, multiIslandDeck)
	spelled := parseDeck(t, multiIslandDeck+"cinv-eps 1e-6\n")
	ov := Overrides{CinvEps: 1e-6}

	kOver, err := deckKey(withOverrides(over, ov), ov)
	if err != nil {
		t.Fatal(err)
	}
	kSpelled, err := deckKey(spelled, Overrides{})
	if err != nil {
		t.Fatal(err)
	}
	if kOver != kSpelled {
		t.Fatalf("override key %s, directive key %s", kOver, kSpelled)
	}
	if over.Spec.CinvEps != 0 {
		t.Fatal("folding the override mutated the caller's deck")
	}
	cc, err := withOverrides(over, ov).Compile(nil)
	if err != nil {
		t.Fatal(err)
	}
	if eps := cc.Circuit.Potentials().Eps(); eps != 1e-6 {
		t.Fatalf("override build truncates at %g, want 1e-6", eps)
	}

	got, err := ExecuteDeck(context.Background(), over, ov, RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := ExecuteDeck(context.Background(), spelled, Overrides{}, RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(want) < 2 || want[1].Events == 0 {
		t.Fatalf("deck ran no events: %+v", want)
	}
	samePoints(t, want, got, "cinv-eps override vs directive")
}
