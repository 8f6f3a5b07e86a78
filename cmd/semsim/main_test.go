package main

import (
	"bytes"
	"context"
	"strconv"
	"strings"
	"testing"

	"semsim"
)

// blockadedFirstDeck is a T = 0 SET map whose first point (and every
// point below 0.04 V) is fully blockaded, while the 0.04 V and 0.06 V
// columns conduct.
const blockadedFirstDeck = `
junc 1 1 4 1e-6 1e-18
junc 2 2 4 1e-6 1e-18
cap 3 4 3e-18
vdc 1 0.01
vdc 2 0.0
vdc 3 0.0
temp 0
record 1
jumps 2000
map x 1 0.0 0.06 4
map y 3 0.0 0.001 2
seed 42
`

// The current columns come from the deck's record list: a blockaded
// first point folds no current, yet every row still carries I(junc1),
// zero where blockaded and nonzero where the point conducts.
func TestTableKeepsCurrentColumnsWhenFirstPointBlockaded(t *testing.T) {
	deck, err := semsim.ParseNetlist(strings.NewReader(blockadedFirstDeck))
	if err != nil {
		t.Fatal(err)
	}
	pts, err := semsim.RunDeckCtx(context.Background(), deck, semsim.DeckRunConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 8 || !pts[0].Blockaded || len(pts[0].Current) != 0 {
		t.Fatalf("deck no longer starts with a blockaded point: %+v", pts)
	}
	var buf bytes.Buffer
	writeTable(&buf, "blockaded.cir", deck, pts)
	var rows [][]string
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if strings.HasPrefix(line, "# columns:") {
			if line != "# columns: Vx Vy I(junc1)" {
				t.Fatalf("header %q, want an I(junc1) column", line)
			}
			continue
		}
		if !strings.HasPrefix(line, "#") {
			rows = append(rows, strings.Fields(line))
		}
	}
	if len(rows) != len(pts) {
		t.Fatalf("%d rows for %d points:\n%s", len(rows), len(pts), buf.String())
	}
	for i, row := range rows {
		if len(row) < 3 {
			t.Fatalf("row %d has no current column: %v", i, row)
		}
		x, err := strconv.ParseFloat(row[0], 64)
		if err != nil {
			t.Fatal(err)
		}
		cur, err := strconv.ParseFloat(row[2], 64)
		if err != nil {
			t.Fatalf("row %d current %q: %v", i, row[2], err)
		}
		if conducts := x >= 0.04; conducts != (cur != 0) || conducts == pts[i].Blockaded {
			t.Errorf("row %d at %g V: current %g, blockaded %v", i, x, cur, pts[i].Blockaded)
		}
	}
}
