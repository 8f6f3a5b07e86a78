package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// Obsdiscipline keeps the simulator hot path quiet. The inner Monte
// Carlo loop runs millions of events per second; a stray fmt.Printf or
// log.Printf left over from debugging serializes every worker on a
// global mutex, floods the terminal, and — worst — perturbs timing
// enough to mask the races the determinism tests exist to catch. All
// run-time reporting from hot packages flows through internal/obs
// (counters, the event journal, progress lines), which is asynchronous,
// allocation-free when disabled, and off by default.
//
// In the hot packages the pass flags:
//
//   - direct terminal printing: fmt.Print/Printf/Println, and
//     fmt.Fprint* when the writer is os.Stdout or os.Stderr;
//   - any use of the log and log/slog packages (flagged at the import,
//     so stored loggers cannot slip through);
//   - the print/println built-ins, which are debug leftovers by
//     definition.
//
// fmt.Sprintf, fmt.Errorf and fmt.Fprint* into buffers or files stay
// legal: formatting values and writing result artifacts are not
// terminal chatter. Packages outside the hot set (CLIs, bench, the
// experiment drivers) print freely.
//
// Independently of the hot set, the pass enforces the publish-path
// contract in EVERY package: a function marked with a
// `//semsim:publish` doc-comment line (the event bus's Publish and
// push, the jobs engine's per-task publish hooks) promises to never
// block on a subscriber. In such functions every channel send must be a
// case of a select statement that has a default clause — the only form
// Go guarantees cannot block. A bare `ch <- v`, or a send in a select
// without a default, is reported. The marker is the enforcement
// boundary: callees reachable from a publish path either carry the
// marker themselves or take no channels at all.
var Obsdiscipline = &Analyzer{
	Name: "obsdiscipline",
	Run:  runObsdiscipline,
}

// obsHotPkgs are the package path suffixes forming the simulator hot
// path: everything executed per event, per rate calculation or per
// sweep point. internal/obs itself is deliberately absent — it is the
// sanctioned output layer.
var obsHotPkgs = []string{
	"internal/solver",
	"internal/circuit",
	"internal/master",
	"internal/cotunnel",
	"internal/super",
	"internal/orthodox",
	"internal/numeric",
	"internal/sweep",
	"internal/jobs",
	"internal/noise",
}

func runObsdiscipline(pass *Pass) error {
	hot := pathHasSuffixAny(pass.Path, obsHotPkgs)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if ok && fd.Body != nil && docHasMarker(fd, "semsim:publish") {
				checkPublishPath(pass, fd)
			}
		}
		if !hot {
			continue
		}
		for _, imp := range f.Imports {
			p := strings.Trim(imp.Path.Value, `"`)
			if p == "log" || p == "log/slog" {
				pass.Reportf(imp.Pos(), "import of %s in hot simulator package: report through internal/obs instead", p)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			checkObsCall(pass, call)
			return true
		})
	}
	return nil
}

func checkObsCall(pass *Pass, call *ast.CallExpr) {
	if id, ok := call.Fun.(*ast.Ident); ok {
		if id.Name == "print" || id.Name == "println" {
			if _, isBuiltin := pass.Info.Uses[id].(*types.Builtin); isBuiltin {
				pass.Reportf(call.Pos(), "%s built-in in hot simulator package: debug output must go through internal/obs", id.Name)
			}
		}
		return
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	obj := pass.Info.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil {
		return
	}
	switch obj.Pkg().Path() {
	case "fmt":
		switch obj.Name() {
		case "Print", "Printf", "Println":
			pass.Reportf(call.Pos(), "fmt.%s in hot simulator package: report through internal/obs instead", obj.Name())
		case "Fprint", "Fprintf", "Fprintln":
			if len(call.Args) > 0 && isStdStream(pass, call.Args[0]) {
				pass.Reportf(call.Pos(), "fmt.%s to a terminal stream in hot simulator package: report through internal/obs instead", obj.Name())
			}
		}
	case "log", "log/slog":
		pass.Reportf(call.Pos(), "%s.%s in hot simulator package: report through internal/obs instead", obj.Pkg().Name(), obj.Name())
	}
}

// docHasMarker reports whether the function's doc comment carries the
// given `//semsim:*` marker as a line of its own.
func docHasMarker(fd *ast.FuncDecl, marker string) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.TrimSpace(strings.TrimPrefix(c.Text, "//")) == marker {
			return true
		}
	}
	return false
}

// checkPublishPath enforces the non-blocking contract of one
// `//semsim:publish` function: every channel send in its body
// (including nested function literals) must be a communication case of
// a select statement that also has a default clause.
func checkPublishPath(pass *Pass, fd *ast.FuncDecl) {
	// First pass: collect the sends that are legal because their select
	// has a default and therefore cannot block.
	nonblocking := map[*ast.SendStmt]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectStmt)
		if !ok {
			return true
		}
		hasDefault := false
		for _, c := range sel.Body.List {
			if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
				hasDefault = true
			}
		}
		if !hasDefault {
			return true
		}
		for _, c := range sel.Body.List {
			cc, ok := c.(*ast.CommClause)
			if !ok {
				continue
			}
			if send, ok := cc.Comm.(*ast.SendStmt); ok {
				nonblocking[send] = true
			}
		}
		return true
	})
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		send, ok := n.(*ast.SendStmt)
		if !ok || nonblocking[send] {
			return true
		}
		pass.Reportf(send.Pos(), "blocking channel send in publish path %s: a //semsim:publish function may only send inside a select with a default case", fd.Name.Name)
		return true
	})
}

// isStdStream reports whether e resolves to os.Stdout or os.Stderr.
func isStdStream(pass *Pass, e ast.Expr) bool {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	obj := pass.Info.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "os" {
		return false
	}
	return obj.Name() == "Stdout" || obj.Name() == "Stderr"
}
