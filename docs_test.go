package semsim

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	makeTargetRule = regexp.MustCompile(`(?m)^([A-Za-z0-9_.-]+):`)
	inlineCode     = regexp.MustCompile("`([^`]+)`")
	makeCall       = regexp.MustCompile(`(?:^|[\s;&|(])make\s+([A-Za-z0-9_.-]+)`)
	cmdPath        = regexp.MustCompile(`\./cmd/([A-Za-z0-9_-]+)`)
)

// TestDocsNameExistingCommands: the user docs (README, DESIGN,
// EXPERIMENTS and docs/*.md) may name only make targets the Makefile
// defines and ./cmd/ directories that exist, so a recipe cannot outlive
// the target or command it runs. A make call counts in inline code and
// at the start of a fenced-code line; ./cmd/<name> counts anywhere.
func TestDocsNameExistingCommands(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, m := range makeTargetRule.FindAllStringSubmatch(string(mk), -1) {
		targets[m[1]] = true
	}
	docs, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	docs = append([]string{"README.md", "DESIGN.md", "EXPERIMENTS.md"}, docs...)
	for _, path := range docs {
		blob, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var calls []string
		// Fenced lines are checked where they start; the rest of the
		// text (fenced lines blanked) is searched for inline code,
		// which may wrap across lines.
		lines := strings.Split(string(blob), "\n")
		prose := make([]string, len(lines))
		fenced := false
		for i, line := range lines {
			trimmed := strings.TrimSpace(line)
			switch {
			case strings.HasPrefix(trimmed, "```"):
				fenced = !fenced
			case fenced:
				if f := strings.Fields(trimmed); len(f) > 1 && f[0] == "make" {
					calls = append(calls, f[1])
				}
			default:
				prose[i] = line
			}
		}
		for _, code := range inlineCode.FindAllStringSubmatch(strings.Join(prose, "\n"), -1) {
			for _, m := range makeCall.FindAllStringSubmatch(code[1], -1) {
				calls = append(calls, m[1])
			}
		}
		for _, target := range calls {
			if !targets[target] {
				t.Errorf("%s names `make %s`, which the Makefile does not define", path, target)
			}
		}
		for _, m := range cmdPath.FindAllStringSubmatch(string(blob), -1) {
			if fi, err := os.Stat(filepath.Join("cmd", m[1])); err != nil || !fi.IsDir() {
				t.Errorf("%s names ./cmd/%s, which does not exist", path, m[1])
			}
		}
	}
}
