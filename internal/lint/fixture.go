package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// RunFixture is the analysistest-style harness: it loads the fixture
// package testdata/src/<path>, runs one analyzer over it, and asserts
// the diagnostics match the `// want "regexp"` comments in the fixture
// sources — every finding must be wanted, every want must be found.
//
// Fixture directories nest, so <path> doubles as the package import
// path; that lets path-sensitive analyzers (unitsafety exempts
// internal/units) be tested against both matching and non-matching
// package paths. Fixtures may
// import sibling fixture packages and the standard library. Imported
// fixture packages are analyzed first (in dependency order, their
// diagnostics discarded) so fact-exporting analyzers see their upstream
// facts exactly as in a module-wide run.
func RunFixture(t *testing.T, a *Analyzer, path string) {
	t.Helper()
	runFixture(t, a, []string{path})
}

// RunFixtureModule is the multi-package variant of RunFixture: every
// listed fixture package (plus its fixture dependencies) is loaded and
// analyzed in dependency order with one shared fact store, and the
// `// want` assertions are checked across all listed packages — the
// harness for passes whose diagnostics depend on facts exported by
// another package. Dependencies that are not listed contribute facts
// but have their diagnostics ignored.
func RunFixtureModule(t *testing.T, a *Analyzer, paths ...string) {
	t.Helper()
	runFixture(t, a, paths)
}

func runFixture(t *testing.T, a *Analyzer, paths []string) {
	t.Helper()
	fx := &fixtureLoader{
		fset:  token.NewFileSet(),
		pkgs:  map[string]*fixturePkg{},
		files: map[string][]*ast.File{},
	}
	// The standard-library importer shares the fixture fset so positions
	// stay coherent.
	fx.std = importer.ForCompiler(fx.fset, "source", nil)
	for _, path := range paths {
		if _, err := fx.load(path); err != nil {
			t.Fatal(err)
		}
	}
	asserted := map[string]bool{}
	for _, path := range paths {
		asserted[path] = true
	}

	// fx.order lists every loaded package, dependencies first; running
	// the analyzer in that order with one store reproduces the module
	// driver's fact flow.
	store := NewFactStore()
	var diags []Diagnostic
	var wantFiles []*ast.File
	for _, path := range fx.order {
		pkg := fx.pkgs[path]
		d, err := runAnalyzers([]*Analyzer{a}, fx.fset, fx.files[path], pkg.tpkg, pkg.info, path, store)
		if err != nil {
			t.Fatal(err)
		}
		if asserted[path] {
			diags = append(diags, d...)
			wantFiles = append(wantFiles, fx.files[path]...)
		}
	}

	wants := collectWants(t, fx.fset, wantFiles)
	matched := map[*wantComment]bool{}
	for _, d := range diags {
		pos := fx.fset.Position(d.Pos)
		var hit *wantComment
		for _, w := range wants {
			if w.file == pos.Filename && w.line == pos.Line && !matched[w] && w.re.MatchString(d.Message) {
				hit = w
				break
			}
		}
		if hit == nil {
			t.Errorf("%s: unexpected diagnostic: %s", pos, d.Message)
			continue
		}
		matched[hit] = true
	}
	for _, w := range wants {
		if !matched[w] {
			t.Errorf("%s:%d: no diagnostic matching %q", w.file, w.line, w.re)
		}
	}
}

type wantComment struct {
	file string
	line int
	re   *regexp.Regexp
}

// collectWants extracts `// want "regexp"` annotations.
func collectWants(t *testing.T, fset *token.FileSet, files []*ast.File) []*wantComment {
	t.Helper()
	var wants []*wantComment
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, "want ") {
					continue
				}
				quoted := strings.TrimSpace(strings.TrimPrefix(text, "want "))
				pat, err := strconv.Unquote(quoted)
				if err != nil {
					t.Fatalf("%s: malformed want comment %q: %v", fset.Position(c.Pos()), c.Text, err)
				}
				re, err := regexp.Compile(pat)
				if err != nil {
					t.Fatalf("%s: bad want regexp %q: %v", fset.Position(c.Pos()), pat, err)
				}
				pos := fset.Position(c.Pos())
				wants = append(wants, &wantComment{file: pos.Filename, line: pos.Line, re: re})
			}
		}
	}
	return wants
}

type fixturePkg struct {
	tpkg *types.Package
	info *types.Info
}

// fixtureLoader type-checks fixture packages under testdata/src,
// resolving fixture-to-fixture imports recursively and everything else
// through the standard-library source importer.
type fixtureLoader struct {
	fset  *token.FileSet
	std   types.Importer
	pkgs  map[string]*fixturePkg
	files map[string][]*ast.File
	stack []string
	// order records completion order: a package is appended after its
	// fixture dependencies, so iterating order visits dependencies first.
	order []string
}

func (fx *fixtureLoader) load(path string) (*fixturePkg, error) {
	if p, ok := fx.pkgs[path]; ok {
		return p, nil
	}
	for _, s := range fx.stack {
		if s == path {
			return nil, fmt.Errorf("lint: fixture import cycle through %s", path)
		}
	}
	dir := filepath.Join("testdata", "src", filepath.FromSlash(path))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: fixture package %s: %v", path, err)
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("lint: fixture package %s has no Go files", path)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(fx.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	fx.files[path] = files

	fx.stack = append(fx.stack, path)
	defer func() { fx.stack = fx.stack[:len(fx.stack)-1] }()
	info := newTypesInfo()
	conf := types.Config{Importer: importerFunc(func(imp string) (*types.Package, error) {
		if _, err := os.Stat(filepath.Join("testdata", "src", filepath.FromSlash(imp))); err == nil {
			dep, err := fx.load(imp)
			if err != nil {
				return nil, err
			}
			return dep.tpkg, nil
		}
		return fx.std.Import(imp)
	})}
	tpkg, err := conf.Check(path, fx.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking fixture %s: %v", path, err)
	}
	p := &fixturePkg{tpkg: tpkg, info: info}
	fx.pkgs[path] = p
	fx.order = append(fx.order, path)
	return p, nil
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
