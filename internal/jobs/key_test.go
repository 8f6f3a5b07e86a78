package jobs

import (
	"bytes"
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

	ka, err := deckKey(a)
	if err != nil {
		t.Fatal(err)
	}
	kb, err := deckKey(b)
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
	k, err := deckKey(parseDeck(t, multiIslandDeck))
	if err != nil {
		t.Fatal(err)
	}
	if k == denseEngineKey {
		t.Fatalf("deck key %s is the dense engine's", k)
	}
}

// TestDeckKeyDropsWindowOverride: the deck key no longer carries a
// noise-window override term (windows live in the deck's record fano
// lines, which its canonical text already holds), so done markers and
// checkpoints written under the keys of that scheme are never served
// or resumed. The pinned key is multiIslandDeck's under that scheme.
func TestDeckKeyDropsWindowOverride(t *testing.T) {
	const overrideSchemeKey = "c2b714e8302bff80695653954dc3edb6"
	k, err := deckKey(parseDeck(t, multiIslandDeck))
	if err != nil {
		t.Fatal(err)
	}
	if k == overrideSchemeKey {
		t.Fatalf("deck key %s is the override scheme's", k)
	}
}

// TestDeckKeyNamesSnapshotVersion: the deck key carries the solver
// snapshot version, so checkpoints written under snapshot version 4 are
// not found (and their tasks start over) instead of failing Restore.
// The pinned key is multiIslandDeck's under version 4.
func TestDeckKeyNamesSnapshotVersion(t *testing.T) {
	const version4Key = "72dc0096c76fe738b5f021b0d1ae51c8"
	k, err := deckKey(parseDeck(t, multiIslandDeck))
	if err != nil {
		t.Fatal(err)
	}
	if k == version4Key {
		t.Fatalf("deck key %s is the version-4 snapshot scheme's", k)
	}
}

// TestDeckKeyIgnoresProbes: a probe line changes no deck run, so a deck
// with one shares the key of the same deck without it, and semsimd's
// result cache and resume find the runs of either. Keying does not
// touch the caller's deck.
func TestDeckKeyIgnoresProbes(t *testing.T) {
	probed := parseDeck(t, testDeck+"probe 4\n")
	kp, err := deckKey(probed)
	if err != nil {
		t.Fatal(err)
	}
	k, err := deckKey(parseDeck(t, testDeck))
	if err != nil {
		t.Fatal(err)
	}
	if kp != k {
		t.Fatalf("probe 4 moves the deck key from %s to %s", k, kp)
	}
	if got := probed.Spec.ProbeNodes; len(got) != 1 || got[0] != 4 {
		t.Fatalf("keying changed the deck's probe nodes to %v", got)
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
