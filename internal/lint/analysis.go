// Package lint is the static-analysis layer of the simulator: a small,
// dependency-free reimplementation of the golang.org/x/tools/go/analysis
// vocabulary (Analyzer, Pass, Diagnostic) plus the project-specific
// passes that turn semsim's correctness conventions — deterministic
// randomness, SI unit discipline, no raw float equality, no discarded
// numerical errors — into machine-checked invariants.
//
// The framework is intentionally tiny rather than a vendored copy of
// x/tools: the build environment is offline and the module has no
// third-party dependencies, so the passes run on the standard library
// alone (go/ast, go/types, go/importer). The shape mirrors x/tools
// closely enough that a pass written here ports to a real
// analysis.Analyzer almost mechanically; see DESIGN.md §7.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer describes one static-analysis pass, mirroring
// x/tools/go/analysis.Analyzer.
type Analyzer struct {
	// Name identifies the pass in diagnostics.
	Name string
	// Run applies the pass to one type-checked package, reporting
	// findings through pass.Reportf.
	Run func(*Pass) error
}

// Pass carries one type-checked package through an analyzer, mirroring
// x/tools/go/analysis.Pass.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	// Path is the package import path.
	Path string

	report func(Diagnostic)
	store  *FactStore
}

// Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Reportf records a finding. Findings inside _test.go files are
// dropped: the project invariants guard simulator code, and tests
// legitimately use exact float comparisons, raw constants and
// error-dropping shorthand when exercising failure paths.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	if strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go") {
		return
	}
	p.report(Diagnostic{Pos: pos, Analyzer: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

// All returns every registered analyzer, in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		Detrand,
		Unitsafety,
		Floateq,
		Hotalloc,
		Physerr,
		Obsdiscipline,
		Doccomment,
		Statecover,
		Resumepurity,
	}
}

// runAnalyzers applies each analyzer to one package and returns the
// findings sorted by position. Facts the analyzers export (and the
// imported facts they consult) live in store, which must be shared
// across the packages of one session.
func runAnalyzers(analyzers []*Analyzer, fset *token.FileSet, files []*ast.File,
	pkg *types.Package, info *types.Info, path string, store *FactStore) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     fset,
			Files:    files,
			Pkg:      pkg,
			Info:     info,
			Path:     path,
			report:   func(d Diagnostic) { diags = append(diags, d) },
			store:    store,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("lint: %s on %s: %w", a.Name, path, err)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		if diags[i].Pos != diags[j].Pos {
			return diags[i].Pos < diags[j].Pos
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags, nil
}

// newTypesInfo allocates the full set of type-checking maps the passes
// consult.
func newTypesInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
}
