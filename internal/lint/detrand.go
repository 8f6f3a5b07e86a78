package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Detrand guards the determinism contract: Monte Carlo runs must be
// bit-reproducible across runs and platforms for a fixed seed (the
// paper's error figures average nine fixed seeds, and the determinism
// tests compare trajectories bit-for-bit). Three things break
// that silently:
//
//   - math/rand (and math/rand/v2): global, lockable, version-drifting
//     generator state. All randomness flows through internal/rng.
//   - time-seeded randomness (time.Now().UnixNano() and friends as
//     integer seeds): irreproducible by construction.
//   - ranging over a map in a determinism-critical package when the
//     loop body is order-sensitive: Go randomizes map iteration order,
//     so any order-dependent effect (appends, returns, non-commutative
//     accumulation) diverges between runs.
//
// Order-insensitive map loops — set/map writes, commutative
// accumulators (+=, counters), guarded max/min updates, and the
// collect-then-sort idiom (append keys, sort, iterate the slice) — are
// allowed.
var Detrand = &Analyzer{
	Name: "detrand",
	Run:  runDetrand,
}

// detrandCorePkgs are the determinism-critical package path suffixes:
// everything whose floating-point trajectory feeds simulator results.
var detrandCorePkgs = []string{
	"internal/solver",
	"internal/circuit",
	"internal/master",
	"internal/cotunnel",
	"internal/super",
	"internal/orthodox",
	"internal/logicnet",
	"internal/numeric",
	"internal/sweep",
	"internal/spicemodel",
}

func pathHasSuffixAny(path string, suffixes []string) bool {
	for _, s := range suffixes {
		if path == s || strings.HasSuffix(path, "/"+s) {
			return true
		}
	}
	return false
}

func runDetrand(pass *Pass) error {
	rngPkg := pathHasSuffixAny(pass.Path, []string{"internal/rng"})
	core := pathHasSuffixAny(pass.Path, detrandCorePkgs)
	for _, f := range pass.Files {
		if !rngPkg {
			for _, imp := range f.Imports {
				p := strings.Trim(imp.Path.Value, `"`)
				if p == "math/rand" || p == "math/rand/v2" {
					pass.Reportf(imp.Pos(), "import of %s: all simulator randomness must flow through internal/rng for reproducibility", p)
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				checkTimeSeed(pass, call)
			}
			return true
		})
		if core {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				checkMapRanges(pass, fd.Body)
			}
		}
	}
	return nil
}

// checkTimeSeed flags time.Now().UnixNano() and the other integer
// projections of wall time: in a deterministic simulator the only use
// for them is seeding, which must come from configuration instead.
func checkTimeSeed(pass *Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	switch sel.Sel.Name {
	case "Unix", "UnixNano", "UnixMilli", "UnixMicro":
	default:
		return
	}
	inner, ok := sel.X.(*ast.CallExpr)
	if !ok {
		return
	}
	innerSel, ok := inner.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	obj := pass.Info.Uses[innerSel.Sel]
	if obj == nil || obj.Pkg() == nil {
		return
	}
	if obj.Pkg().Path() == "time" && obj.Name() == "Now" {
		pass.Reportf(call.Pos(), "time-seeded value time.Now().%s(): seeds must be explicit configuration (Options.Seed), not wall time", sel.Sel.Name)
	}
}

// checkMapRanges walks one function body looking for order-sensitive
// map iteration. stmts after a range statement (within the same body)
// are consulted for the collect-then-sort exemption.
func checkMapRanges(pass *Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := pass.Info.TypeOf(rs.X)
		if t == nil {
			return true
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			return true
		}
		if bad, pos, why := orderSensitive(pass, rs, body); bad {
			pass.Reportf(pos, "map iteration order feeds simulator state (%s); iterate a sorted slice of keys or make the body order-insensitive", why)
		}
		return true
	})
}

// orderSensitive reports whether the body of map-range rs has an
// order-dependent effect, along with the offending position and a short
// reason. enclosing is the function body containing rs, used for the
// sorted-afterwards exemption.
func orderSensitive(pass *Pass, rs *ast.RangeStmt, enclosing *ast.BlockStmt) (bad bool, pos token.Pos, why string) {
	flag := func(p token.Pos, reason string) {
		if !bad {
			bad, pos, why = true, p, reason
		}
	}
	var checkStmt func(s ast.Stmt)
	checkList := func(list []ast.Stmt) {
		for _, s := range list {
			checkStmt(s)
		}
	}
	checkStmt = func(s ast.Stmt) {
		switch st := s.(type) {
		case *ast.AssignStmt:
			if st.Tok != token.ASSIGN && st.Tok != token.DEFINE {
				return // compound ops (+=, -=, *=, ...) commute across iterations
			}
			for i, lhs := range st.Lhs {
				if ok, reason := orderInsensitiveAssign(pass, rs, enclosing, st, i, lhs); !ok {
					flag(lhs.Pos(), reason)
				}
			}
		case *ast.IncDecStmt:
			// x++ / x-- commute.
		case *ast.ExprStmt:
			call, ok := st.X.(*ast.CallExpr)
			if !ok {
				return
			}
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "delete" {
				return // set subtraction commutes
			}
			flag(st.Pos(), "call with potential side effects inside map range")
		case *ast.ReturnStmt:
			flag(st.Pos(), "return inside map range picks an arbitrary element")
		case *ast.BranchStmt, *ast.DeclStmt, *ast.EmptyStmt:
		case *ast.BlockStmt:
			checkList(st.List)
		case *ast.IfStmt:
			checkStmt(st.Body)
			if st.Else != nil {
				checkStmt(st.Else)
			}
		case *ast.ForStmt:
			checkStmt(st.Body)
		case *ast.RangeStmt:
			checkStmt(st.Body)
		case *ast.SwitchStmt:
			for _, c := range st.Body.List {
				checkList(c.(*ast.CaseClause).Body)
			}
		default:
			flag(s.Pos(), "statement kind not provably order-insensitive")
		}
	}
	checkStmt(rs.Body)
	return bad, pos, why
}

// orderInsensitiveAssign decides whether one plain assignment inside a
// map range is order-insensitive, returning a reason when it is not.
func orderInsensitiveAssign(pass *Pass, rs *ast.RangeStmt, enclosing *ast.BlockStmt, st *ast.AssignStmt, i int, lhs ast.Expr) (ok bool, reason string) {
	if id, isIdent := lhs.(*ast.Ident); isIdent {
		if id.Name == "_" {
			return true, ""
		}
		obj := pass.Info.ObjectOf(id)
		if obj == nil {
			return true, ""
		}
		// Locals of the loop body (and the range variables themselves)
		// are per-iteration scratch.
		if obj.Pos() >= rs.Pos() && obj.Pos() < rs.End() {
			return true, ""
		}
		// x = append(x, ...) is allowed when x is sorted after the loop.
		if appendToSelf(st, i, lhs) {
			if sortedAfter(pass, rs, enclosing, obj) {
				return true, ""
			}
			return false, "append accumulates in map order without a subsequent sort"
		}
		// Guarded extremum update: if <cmp involving x> { x = ... }.
		if ifStmt := enclosingMaxMinGuard(pass, rs, st, obj); ifStmt {
			return true, ""
		}
		return false, "assignment to variable declared outside the loop"
	}
	if idx, isIdx := lhs.(*ast.IndexExpr); isIdx {
		if t := pass.Info.TypeOf(idx.X); t != nil {
			if _, isMap := t.Underlying().(*types.Map); isMap {
				return true, "" // map/set insertion commutes (per-key)
			}
		}
		return false, "indexed write in map order"
	}
	// s.items = append(s.items, v): same accumulation hazard through a
	// selector target; no sorted-after exemption for shared state.
	if appendToSelf(st, i, lhs) {
		return false, "append accumulates in map order without a subsequent sort"
	}
	return false, "assignment target not provably order-insensitive"
}

// appendToSelf reports whether the i-th assignment is the
// x = append(x, ...) accumulation shape, for any expression x.
func appendToSelf(st *ast.AssignStmt, i int, lhs ast.Expr) bool {
	if len(st.Rhs) == 0 {
		return false
	}
	rhs := st.Rhs[0]
	if len(st.Rhs) > i {
		rhs = st.Rhs[i]
	}
	call, ok := rhs.(*ast.CallExpr)
	if !ok {
		return false
	}
	fid, ok := call.Fun.(*ast.Ident)
	if !ok || fid.Name != "append" || len(call.Args) == 0 {
		return false
	}
	return types.ExprString(call.Args[0]) == types.ExprString(lhs)
}

// sortedAfter reports whether obj is passed to a sort-like call in a
// statement after rs within the enclosing body — the canonical
// collect-keys-then-sort idiom.
func sortedAfter(pass *Pass, rs *ast.RangeStmt, enclosing *ast.BlockStmt, obj types.Object) bool {
	found := false
	ast.Inspect(enclosing, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rs.End() {
			return true
		}
		// Match on the full callee spelling so sort.Ints, slices.Sort
		// and local sortKeys helpers all qualify.
		if !strings.Contains(strings.ToLower(types.ExprString(call.Fun)), "sort") {
			return true
		}
		for _, arg := range call.Args {
			root := arg
			if u, isU := root.(*ast.UnaryExpr); isU {
				root = u.X
			}
			if id, isId := root.(*ast.Ident); isId && pass.Info.ObjectOf(id) == obj {
				found = true
			}
		}
		return true
	})
	return found
}

// enclosingMaxMinGuard recognizes the running-extremum idiom
//
//	if v > max { max = v }
//
// which is order-insensitive: the assignment to obj must be the sole
// statement of an if whose condition is a </<=/>/>= comparison reading
// obj.
func enclosingMaxMinGuard(pass *Pass, rs *ast.RangeStmt, target *ast.AssignStmt, obj types.Object) bool {
	found := false
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		ifStmt, ok := n.(*ast.IfStmt)
		if !ok || found {
			return !found
		}
		if len(ifStmt.Body.List) != 1 || ifStmt.Body.List[0] != target || ifStmt.Else != nil {
			return true
		}
		cmp, ok := ifStmt.Cond.(*ast.BinaryExpr)
		if !ok {
			return true
		}
		switch cmp.Op {
		case token.LSS, token.LEQ, token.GTR, token.GEQ:
		default:
			return true
		}
		for _, side := range []ast.Expr{cmp.X, cmp.Y} {
			if id, isId := side.(*ast.Ident); isId && pass.Info.ObjectOf(id) == obj {
				found = true
			}
		}
		return true
	})
	return found
}
