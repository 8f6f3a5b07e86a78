package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// Physerr flags discarded errors from the numerical and parsing APIs of
// the module. A swallowed ErrNotPositiveDefinite from the Cholesky
// factorization, a dropped netlist parse error, or an ignored solver
// error does not crash — it silently simulates the wrong circuit, which
// is the worst failure mode a physics code has. Errors from module
// packages must be handled or explicitly propagated, never assigned to
// blank or dropped on the floor.
//
// The analyzer flags, outside tests:
//
//   - a call used as a statement (including go/defer) whose callee
//     returns an error and lives in a module package;
//   - an assignment that binds such a call's error result to _.
//
// Third-party-free by design, the module boundary is the watched set:
// fmt.Println and friends stay un-flagged.
var Physerr = &Analyzer{
	Name: "physerr",
	Run:  runPhyserr,
}

// physerrWatchedFragments extends the module-path rule so fixture
// packages can model the layout.
var physerrWatchedFragments = []string{
	"internal/matrix",
	"internal/netlist",
	"internal/solver",
	"internal/master",
	"internal/circuit",
	"internal/spicemodel",
	"internal/super",
	"internal/logicnet",
	"internal/bench",
	"internal/sweep",
}

func physerrWatched(path string) bool {
	if path == "semsim" || strings.HasPrefix(path, "semsim/") {
		return true
	}
	for _, frag := range physerrWatchedFragments {
		if path == frag || strings.HasSuffix(path, "/"+frag) || strings.Contains(path, "/"+frag+"/") {
			return true
		}
	}
	return false
}

func runPhyserr(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.ExprStmt:
				if call, ok := st.X.(*ast.CallExpr); ok {
					checkDroppedCall(pass, call)
				}
			case *ast.GoStmt:
				checkDroppedCall(pass, st.Call)
			case *ast.DeferStmt:
				checkDroppedCall(pass, st.Call)
			case *ast.AssignStmt:
				checkBlankError(pass, st)
			}
			return true
		})
	}
	return nil
}

// errorResultIndices returns which results of a watched module call are
// errors; nil when the call is unwatched, a conversion, or error-free.
func errorResultIndices(pass *Pass, call *ast.CallExpr) []int {
	if tv, ok := pass.Info.Types[call.Fun]; ok && tv.IsType() {
		return nil // conversion
	}
	sig, ok := pass.Info.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return nil
	}
	pkg := calleePackage(pass, call)
	if pkg == nil || !physerrWatched(pkg.Path()) {
		return nil
	}
	errType := types.Universe.Lookup("error").Type()
	var idx []int
	for i := 0; i < sig.Results().Len(); i++ {
		if types.Identical(sig.Results().At(i).Type(), errType) {
			idx = append(idx, i)
		}
	}
	return idx
}

// calleePackage resolves the package owning the called function, method
// or function-typed variable.
func calleePackage(pass *Pass, call *ast.CallExpr) *types.Package {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	obj := pass.Info.Uses[id]
	if obj == nil {
		return nil
	}
	return obj.Pkg()
}

func checkDroppedCall(pass *Pass, call *ast.CallExpr) {
	if idx := errorResultIndices(pass, call); len(idx) > 0 {
		pass.Reportf(call.Pos(), "error result of %s is discarded: numerical and parsing failures must be handled, not dropped", calleeName(call))
	}
}

func checkBlankError(pass *Pass, st *ast.AssignStmt) {
	if len(st.Rhs) != 1 {
		return
	}
	call, ok := st.Rhs[0].(*ast.CallExpr)
	if !ok {
		return
	}
	idx := errorResultIndices(pass, call)
	if len(idx) == 0 {
		return
	}
	for _, i := range idx {
		if i < len(st.Lhs) {
			if id, isId := st.Lhs[i].(*ast.Ident); isId && id.Name == "_" {
				pass.Reportf(id.Pos(), "error result of %s assigned to blank: handle or propagate it", calleeName(call))
			}
		}
	}
}

func calleeName(call *ast.CallExpr) string {
	return types.ExprString(call.Fun)
}
