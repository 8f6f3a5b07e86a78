package netlist

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"
)

// deckDirectives is every directive keyword the parser understands,
// including the compound `record noise` / `record fano` sub-forms.
// Adding a case to (*Deck).directive without extending this list —
// and documenting it in docs/DECK.md — fails TestDeckDocCoverage.
var deckDirectives = []string{
	"junc", "cap", "charge",
	"vdc", "vac", "vpwl", "symm",
	"num",
	"temp", "cotunnel", "super",
	"record", "record noise", "record fano", "probe",
	"jumps", "time", "sweep", "map", "refine", "seed",
	"adaptive", "refresh",
	"cinv-eps", "rate-tables",
}

// docExamples extracts the fenced ```deck blocks from docs/DECK.md.
func docExamples(t *testing.T) []string {
	t.Helper()
	blob, err := os.ReadFile("../../docs/DECK.md")
	if err != nil {
		t.Fatalf("docs/DECK.md must exist and document the deck format: %v", err)
	}
	var examples []string
	var cur []string
	in := false
	for _, line := range strings.Split(string(blob), "\n") {
		switch {
		case strings.HasPrefix(line, "```deck"):
			in = true
			cur = nil
		case in && strings.HasPrefix(line, "```"):
			in = false
			examples = append(examples, strings.Join(cur, "\n")+"\n")
		case in:
			cur = append(cur, line)
		}
	}
	if in {
		t.Fatal("docs/DECK.md: unterminated ```deck block")
	}
	if len(examples) == 0 {
		t.Fatal("docs/DECK.md contains no ```deck examples")
	}
	return examples
}

// TestDeckDocExamplesExecute parses every documented example and
// round-trips it through the canonical writer: Format output must
// re-parse to a deck that formats identically (the writer's fixpoint).
// Documentation that does not parse is a bug in the documentation.
func TestDeckDocExamplesExecute(t *testing.T) {
	for i, src := range docExamples(t) {
		t.Run(fmt.Sprintf("example_%d", i+1), func(t *testing.T) {
			d, err := Parse(strings.NewReader(src))
			if err != nil {
				t.Fatalf("documented example does not parse: %v\n%s", err, src)
			}
			var canon bytes.Buffer
			if err := d.Format(&canon); err != nil {
				t.Fatalf("documented example does not format: %v", err)
			}
			d2, err := Parse(strings.NewReader(canon.String()))
			if err != nil {
				t.Fatalf("canonical form does not re-parse: %v\n%s", err, canon.String())
			}
			var again bytes.Buffer
			if err := d2.Format(&again); err != nil {
				t.Fatal(err)
			}
			if canon.String() != again.String() {
				t.Fatalf("Format is not a fixpoint over the documented example:\nfirst:\n%s\nsecond:\n%s", canon.String(), again.String())
			}
			// Executable in the fuller sense: every example must compile
			// into a circuit, not just parse.
			if _, err := d.Compile(nil); err != nil {
				t.Fatalf("documented example does not compile: %v", err)
			}
		})
	}
}

// TestDeckDocCoverage asserts docs/DECK.md exercises every directive
// the parser knows, in a runnable example — not just in prose.
func TestDeckDocCoverage(t *testing.T) {
	used := map[string]bool{}
	for _, src := range docExamples(t) {
		for _, line := range strings.Split(src, "\n") {
			line = strings.TrimSpace(line)
			if line == "" || strings.HasPrefix(line, "#") || strings.HasPrefix(line, "*") {
				continue
			}
			f := strings.Fields(line)
			used[f[0]] = true
			// Compound directives are keyed on their first two tokens,
			// so each sub-form needs its own runnable example.
			if f[0] == "record" && len(f) > 1 && (f[1] == "noise" || f[1] == "fano") {
				used[f[0]+" "+f[1]] = true
			}
		}
	}
	blob, err := os.ReadFile("../../docs/DECK.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(blob)
	for _, dir := range deckDirectives {
		if !used[dir] {
			t.Errorf("directive %q appears in no runnable docs/DECK.md example", dir)
		}
		if !strings.Contains(doc, "`"+dir+"`") {
			t.Errorf("directive %q is not documented (no `%s` in docs/DECK.md)", dir, dir)
		}
	}
	for dir := range used {
		found := false
		for _, known := range deckDirectives {
			if dir == known {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("docs/DECK.md example uses %q, which the parser does not know", dir)
		}
	}
}
