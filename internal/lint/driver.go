package lint

import (
	"encoding/json"
	"fmt"
	"go/token"
	"io"
	"path/filepath"
)

// Run loads the packages matching patterns (rooted at dir, with the
// given build tags), applies every analyzer module-wide in dependency
// order — threading one fact store through every package, so
// cross-package passes see their upstream facts — and prints one
// "file:line:col: analyzer: message" line per finding to w. It returns
// the number of findings.
func Run(dir, tags string, patterns []string, w io.Writer) (int, error) {
	diags, fset, _, err := runModule(dir, tags, patterns)
	if err != nil {
		return 0, err
	}
	for _, d := range diags {
		fmt.Fprintf(w, "%s: %s: %s\n", fset.Position(d.Pos), d.Analyzer, d.Message)
	}
	return len(diags), nil
}

// JSONDiagnostic is the machine-readable form of one finding, emitted
// by `semsimlint -json` and consumed by the CI annotation step. File is
// relative to the module root when possible.
type JSONDiagnostic struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// RunJSON is Run with machine-readable output: a JSON array of
// findings (always an array, "[]" when clean) followed by a newline.
func RunJSON(dir, tags string, patterns []string, w io.Writer) (int, error) {
	diags, fset, _, err := runModule(dir, tags, patterns)
	if err != nil {
		return 0, err
	}
	abs, _ := filepath.Abs(dir)
	out := make([]JSONDiagnostic, 0, len(diags))
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		file := pos.Filename
		if abs != "" {
			if rel, err := filepath.Rel(abs, file); err == nil && !filepath.IsAbs(rel) {
				file = filepath.ToSlash(rel)
			}
		}
		out = append(out, JSONDiagnostic{
			File:     file,
			Line:     pos.Line,
			Col:      pos.Column,
			Analyzer: d.Analyzer,
			Message:  d.Message,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		return len(diags), err
	}
	return len(diags), nil
}

// runModule loads and analyzes the module once and returns the findings
// of every package the patterns match, in package order, plus the
// session's fact store. Load returns packages in dependency order, so
// by the time a package runs, the facts of everything it imports are
// already in the store — also when the patterns name only some of the
// module's packages.
func runModule(dir, tags string, patterns []string) ([]Diagnostic, *token.FileSet, *FactStore, error) {
	pkgs, err := Load(dir, tags, patterns...)
	if err != nil {
		return nil, nil, nil, err
	}
	store := NewFactStore()
	var all []Diagnostic
	var fset *token.FileSet
	for _, pkg := range pkgs {
		diags, err := runAnalyzers(All(), pkg.Fset, pkg.Files, pkg.Types, pkg.Info, pkg.Path, store)
		if err != nil {
			return nil, nil, nil, err
		}
		if !pkg.DepOnly {
			all = append(all, diags...)
		}
		fset = pkg.Fset
	}
	return all, fset, store, nil
}
