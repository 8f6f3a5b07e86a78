package lint

import (
	"go/ast"
	"go/token"
	"strings"
)

// Doccomment enforces documentation on the public surface: every
// exported symbol of the facade package (semsim — circuits, decks,
// logic expansion) and of the batch layer (internal/jobs, whose API is
// re-exported by the facade and driven remotely through semsimd) must
// carry a doc comment, and doc comments on functions and types must
// start with the symbol's name (optionally after "A", "An" or "The"),
// the form godoc and pkgsite index. The facade is the first thing a
// user of the repository reads; an undocumented export there is a bug
// in the product, not a style nit.
//
// Grouped const/var declarations may document the group as a whole; a
// doc comment on the group covers every name it declares.
var Doccomment = &Analyzer{
	Name: "doccomment",
	Run:  runDoccomment,
}

// doccommentPkgs are the package path suffixes whose exported surface
// must be fully documented.
var doccommentPkgs = []string{
	"semsim",
	"internal/jobs",
}

func runDoccomment(pass *Pass) error {
	if !pathHasSuffixAny(pass.Path, doccommentPkgs) {
		return nil
	}
	hasPkgDoc := false
	for _, f := range pass.Files {
		if f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != "" {
			hasPkgDoc = true
		}
	}
	for _, f := range pass.Files {
		isTest := strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go")
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				checkFuncDoc(pass, d)
			case *ast.GenDecl:
				checkGenDoc(pass, d)
			}
		}
		if isTest {
			hasPkgDoc = true // test files never carry the package doc
		}
	}
	if !hasPkgDoc && len(pass.Files) > 0 {
		pass.Reportf(pass.Files[0].Package, "package %s has no package doc comment", pass.Pkg.Name())
	}
	return nil
}

// checkFuncDoc requires a doc comment on exported functions and on
// exported methods of exported types.
func checkFuncDoc(pass *Pass, d *ast.FuncDecl) {
	if !d.Name.IsExported() {
		return
	}
	if d.Recv != nil && !exportedReceiver(d.Recv) {
		return // method of an unexported type: not part of the surface
	}
	if d.Doc == nil || strings.TrimSpace(d.Doc.Text()) == "" {
		kind := "function"
		if d.Recv != nil {
			kind = "method"
		}
		pass.Reportf(d.Name.Pos(), "exported %s %s has no doc comment", kind, d.Name.Name)
		return
	}
	checkDocStartsWithName(pass, d.Name.Pos(), d.Doc, d.Name.Name)
}

// checkGenDoc requires doc comments on exported types, vars and consts.
// A doc comment on a grouped declaration covers all of its specs.
func checkGenDoc(pass *Pass, d *ast.GenDecl) {
	groupDoc := d.Doc != nil && strings.TrimSpace(d.Doc.Text()) != ""
	for _, spec := range d.Specs {
		switch s := spec.(type) {
		case *ast.TypeSpec:
			if !s.Name.IsExported() {
				continue
			}
			doc := s.Doc
			if doc == nil && len(d.Specs) == 1 {
				doc = d.Doc
			}
			if doc == nil || strings.TrimSpace(doc.Text()) == "" {
				pass.Reportf(s.Name.Pos(), "exported type %s has no doc comment", s.Name.Name)
				continue
			}
			checkDocStartsWithName(pass, s.Name.Pos(), doc, s.Name.Name)
		case *ast.ValueSpec:
			var exported *ast.Ident
			for _, name := range s.Names {
				if name.IsExported() {
					exported = name
					break
				}
			}
			if exported == nil {
				continue
			}
			if groupDoc {
				continue // the group's doc covers its members
			}
			if s.Doc == nil || strings.TrimSpace(s.Doc.Text()) == "" {
				pass.Reportf(exported.Pos(), "exported %s %s has no doc comment", strings.ToLower(d.Tok.String()), exported.Name)
			}
		}
	}
}

// checkDocStartsWithName enforces the godoc convention that a symbol's
// documentation begins with its name (an optional "A", "An" or "The"
// article may precede it).
func checkDocStartsWithName(pass *Pass, pos token.Pos, doc *ast.CommentGroup, name string) {
	text := strings.TrimSpace(doc.Text())
	for _, article := range []string{"A ", "An ", "The "} {
		text = strings.TrimPrefix(text, article)
	}
	if strings.HasPrefix(text, name) {
		return
	}
	pass.Reportf(pos, "doc comment for %s should start with %q (godoc convention)", name, name)
}

// exportedReceiver reports whether a method receiver names an exported
// type.
func exportedReceiver(recv *ast.FieldList) bool {
	if len(recv.List) == 0 {
		return false
	}
	t := recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr: // generic receiver T[P]
			t = tt.X
		case *ast.IndexListExpr:
			t = tt.X
		case *ast.Ident:
			return tt.IsExported()
		default:
			return false
		}
	}
}
