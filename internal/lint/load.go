package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, parsed and type-checked module package.
type Package struct {
	Path  string
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	// DepOnly marks a module package the patterns do not match but
	// import: it is analyzed for the facts its importers consult, and
	// its own findings are not reported.
	DepOnly bool
}

// listPackage is the subset of `go list -json` output the loader needs.
type listPackage struct {
	Dir        string
	ImportPath string
	Name       string
	GoFiles    []string
	Imports    []string
	Standard   bool
	DepOnly    bool
	Error      *struct{ Err string }
}

// Load enumerates the packages matching patterns, plus the module
// packages they import, with `go list -deps`, parses their (non-test)
// Go files and type-checks them in dependency order. Standard-library
// imports are resolved by compiling their sources from GOROOT (the
// "source" importer), so loading needs no pre-built export data, no
// network and no tooling beyond the go command itself.
func Load(dir string, tags string, patterns ...string) ([]*Package, error) {
	args := []string{"list", "-e", "-json", "-deps"}
	if tags != "" {
		args = append(args, "-tags", tags)
	}
	args = append(args, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("lint: go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}

	var metas []*listPackage
	dec := json.NewDecoder(&stdout)
	for {
		var lp listPackage
		if err := dec.Decode(&lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("lint: decoding go list output: %v", err)
		}
		if lp.Error != nil {
			return nil, fmt.Errorf("lint: go list: %s", lp.Error.Err)
		}
		if lp.Standard || lp.Name == "" || len(lp.GoFiles) == 0 {
			continue
		}
		metas = append(metas, &lp)
	}
	sort.Slice(metas, func(i, j int) bool { return metas[i].ImportPath < metas[j].ImportPath })

	fset := token.NewFileSet()
	parsed := map[string][]*ast.File{}
	byPath := map[string]*listPackage{}
	for _, lp := range metas {
		byPath[lp.ImportPath] = lp
		for _, name := range lp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return nil, fmt.Errorf("lint: %v", err)
			}
			parsed[lp.ImportPath] = append(parsed[lp.ImportPath], f)
		}
	}

	order, err := topoSort(metas, byPath)
	if err != nil {
		return nil, err
	}

	imp := &moduleImporter{
		std:   importer.ForCompiler(fset, "source", nil),
		local: map[string]*types.Package{},
	}
	var out []*Package
	for _, lp := range order {
		info := newTypesInfo()
		conf := types.Config{Importer: imp}
		tpkg, err := conf.Check(lp.ImportPath, fset, parsed[lp.ImportPath], info)
		if err != nil {
			return nil, fmt.Errorf("lint: type-checking %s: %v", lp.ImportPath, err)
		}
		imp.local[lp.ImportPath] = tpkg
		out = append(out, &Package{
			Path:    lp.ImportPath,
			Dir:     lp.Dir,
			Fset:    fset,
			Files:   parsed[lp.ImportPath],
			Types:   tpkg,
			Info:    info,
			DepOnly: lp.DepOnly,
		})
	}
	return out, nil
}

// topoSort orders packages so every local import precedes its importer.
func topoSort(metas []*listPackage, byPath map[string]*listPackage) ([]*listPackage, error) {
	const (
		white = iota // unvisited
		gray         // on the visitation stack
		black        // done
	)
	state := map[string]int{}
	var order []*listPackage
	var visit func(lp *listPackage) error
	visit = func(lp *listPackage) error {
		switch state[lp.ImportPath] {
		case black:
			return nil
		case gray:
			return fmt.Errorf("lint: import cycle through %s", lp.ImportPath)
		}
		state[lp.ImportPath] = gray
		for _, imp := range lp.Imports {
			if dep, ok := byPath[imp]; ok {
				if err := visit(dep); err != nil {
					return err
				}
			}
		}
		state[lp.ImportPath] = black
		order = append(order, lp)
		return nil
	}
	for _, lp := range metas {
		if err := visit(lp); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// moduleImporter resolves module-local imports from the packages already
// type-checked this load, and everything else (the standard library)
// through the source importer.
type moduleImporter struct {
	std   types.Importer
	local map[string]*types.Package
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if p, ok := m.local[path]; ok {
		return p, nil
	}
	return m.std.Import(path)
}
