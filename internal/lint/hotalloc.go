package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Hotalloc guards the per-event hot path of the Monte Carlo engine.
// Functions marked with a `//semsim:hot` doc-comment line (the solver's
// Step/apply/recompute kernels, the Fenwick tree operations, the batched
// RNG) run millions of times per simulated trajectory; the repository's
// zero-alloc benchmarks assert they never touch the garbage collector
// and never dispatch dynamically. This pass makes the same property
// reviewable statically, at the source line that would break it:
//
//   - dynamic dispatch: method calls through an interface value (each
//     call is an indirect jump the inliner cannot see through; on the
//     hot path rates are computed through precomputed concrete kernels);
//   - allocation sites: make, new, slice/map/&composite literals,
//     append, function literals (captures escape), go and defer
//     statements.
//
// A finding is waived by a same-line `//hotalloc:ok <reason>` comment —
// the reason is mandatory, so every allowed allocation or dispatch on
// the hot path documents why it is amortized or out of the per-rate
// loop (e.g. the Fenwick pending arrays append into preallocated
// capacity; a PWL ramp's RampStep runs once per step, not per rate).
//
// The pass runs only over internal/solver, internal/rng,
// internal/numeric and internal/obs — the packages with code on the
// per-event path (the event bus's publish fan-out runs once per
// published job event and must stay amortized-allocation-free) — and,
// like every pass, skips _test.go files.
var Hotalloc = &Analyzer{
	Name: "hotalloc",
	Run:  runHotalloc,
}

var hotallocPkgs = []string{"internal/solver", "internal/rng", "internal/numeric", "internal/obs", "internal/noise"}

func runHotalloc(pass *Pass) error {
	if !pathHasSuffixAny(pass.Path, hotallocPkgs) {
		return nil
	}
	for _, f := range pass.Files {
		waived := hotallocWaivers(pass, f)
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !isHotMarked(fd) {
				continue
			}
			checkHotBody(pass, fd, waived)
		}
	}
	return nil
}

// isHotMarked reports whether the function's doc comment carries a
// `//semsim:hot` marker line.
func isHotMarked(fd *ast.FuncDecl) bool {
	return docHasMarker(fd, "semsim:hot")
}

// hotallocWaivers collects the lines of f carrying a
// `//hotalloc:ok <reason>` comment. A waiver without a reason is not
// honored: the comment exists to document why the cost is acceptable.
func hotallocWaivers(pass *Pass, f *ast.File) map[int]bool {
	waived := map[int]bool{}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := c.Text
			if strings.HasPrefix(text, "//") {
				text = text[2:]
			} else {
				text = strings.TrimSuffix(strings.TrimPrefix(text, "/*"), "*/")
			}
			text = strings.TrimSpace(text)
			if !strings.HasPrefix(text, "hotalloc:ok") {
				continue
			}
			reason := strings.TrimSpace(strings.TrimPrefix(text, "hotalloc:ok"))
			if reason == "" {
				pass.Reportf(c.Pos(), "hotalloc:ok waiver without a reason: say why this cost is acceptable on the hot path")
				continue
			}
			waived[pass.Fset.Position(c.Pos()).Line] = true
		}
	}
	return waived
}

// checkHotBody walks one hot function and reports dispatch and
// allocation sites. Nested function literals are themselves flagged as
// allocations, and their bodies are not separately walked: the closure
// either runs off the hot path (and the waiver says so) or its cost is
// already accounted to the literal.
func checkHotBody(pass *Pass, fd *ast.FuncDecl, waived map[int]bool) {
	name := fd.Name.Name
	report := func(pos token.Pos, format string, args ...any) {
		if waived[pass.Fset.Position(pos).Line] {
			return
		}
		args = append(args, name)
		pass.Reportf(pos, format+" in hot function %s (waive with //hotalloc:ok <reason>)", args...)
	}
	// A literal that is itself the callee of a go/defer statement is
	// covered by that statement's diagnostic; don't double-report it.
	stmtLits := map[*ast.FuncLit]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.GoStmt:
			if lit, ok := e.Call.Fun.(*ast.FuncLit); ok {
				stmtLits[lit] = true
			}
		case *ast.DeferStmt:
			if lit, ok := e.Call.Fun.(*ast.FuncLit); ok {
				stmtLits[lit] = true
			}
		}
		return true
	})
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.FuncLit:
			if !stmtLits[e] {
				report(e.Pos(), "function literal allocates its closure")
			}
			return false
		case *ast.GoStmt:
			report(e.Pos(), "go statement spawns a goroutine")
		case *ast.DeferStmt:
			report(e.Pos(), "defer on the hot path")
		case *ast.CompositeLit:
			if t := pass.Info.TypeOf(e); t != nil {
				switch t.Underlying().(type) {
				case *types.Slice:
					report(e.Pos(), "slice literal allocates")
				case *types.Map:
					report(e.Pos(), "map literal allocates")
				}
			}
		case *ast.UnaryExpr:
			if e.Op == token.AND {
				if _, isLit := e.X.(*ast.CompositeLit); isLit {
					report(e.Pos(), "&composite literal escapes to the heap")
				}
			}
		case *ast.CallExpr:
			checkHotCall(pass, e, report)
		}
		return true
	})
}

// checkHotCall classifies one call on the hot path: a builtin that
// allocates, or a method call dispatched through an interface.
func checkHotCall(pass *Pass, call *ast.CallExpr, report func(token.Pos, string, ...any)) {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		switch pass.Info.Uses[fun] {
		case types.Universe.Lookup("make"):
			report(call.Pos(), "make allocates")
		case types.Universe.Lookup("new"):
			report(call.Pos(), "new allocates")
		case types.Universe.Lookup("append"):
			report(call.Pos(), "append may grow its backing array")
		}
	case *ast.SelectorExpr:
		sel, ok := pass.Info.Selections[fun]
		if !ok || sel.Kind() != types.MethodVal {
			return
		}
		if types.IsInterface(sel.Recv()) {
			report(call.Pos(), "interface method call %s.%s dispatches dynamically",
				types.ExprString(fun.X), fun.Sel.Name)
		}
	}
}
