package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
)

// Floateq flags == and != between floating-point values (and between
// float-containing composite values) in non-test code. After a few
// thousand Monte Carlo events two mathematically equal quantities differ
// in their last bits, so raw equality silently degrades into "almost
// never true" — the class of bug that makes an adaptive refresh fire on
// every event or a change detector never fire.
//
// Three comparisons are exact by construction and stay allowed:
//
//   - comparison against a constant zero (zero is a sentinel, and
//     x == 0 is an exact IEEE-754 predicate);
//   - x != x / x == x (the portable NaN test);
//   - anything in _test.go files, where bit-exact comparison is often
//     the point (determinism tests compare trajectories bit-for-bit).
//
// Deliberate bit-identity checks in simulator code go through
// numeric.SameBits, which names the intent and satisfies the analyzer.
var Floateq = &Analyzer{
	Name: "floateq",
	Run:  runFloateq,
}

func runFloateq(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			e, ok := n.(*ast.BinaryExpr)
			if !ok || (e.Op != token.EQL && e.Op != token.NEQ) {
				return true
			}
			tx, ty := pass.Info.TypeOf(e.X), pass.Info.TypeOf(e.Y)
			if tx == nil || ty == nil {
				return true
			}
			if !containsFloat(tx) && !containsFloat(ty) {
				return true
			}
			if isConstZero(pass, e.X) || isConstZero(pass, e.Y) {
				return true
			}
			if types.ExprString(e.X) == types.ExprString(e.Y) {
				return true // x != x: the NaN test
			}
			if isFloat(tx) || isFloat(ty) {
				pass.Reportf(e.OpPos, "floating-point %s comparison: use a tolerance, or numeric.SameBits for deliberate bit identity", e.Op)
			} else {
				pass.Reportf(e.OpPos, "%s on float-containing composite type %s compares floats exactly; compare fields with tolerances", e.Op, tx)
			}
			return true
		})
	}
	return nil
}

func isFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&(types.IsFloat|types.IsComplex) != 0
}

// containsFloat reports whether comparing two values of type t compares
// floating-point representations somewhere: floats themselves, or
// structs/arrays with float components. Pointers, maps and slices
// compare identities, not contents.
func containsFloat(t types.Type) bool {
	seen := map[types.Type]bool{}
	var rec func(types.Type) bool
	rec = func(t types.Type) bool {
		if seen[t] {
			return false
		}
		seen[t] = true
		switch u := t.Underlying().(type) {
		case *types.Basic:
			return u.Info()&(types.IsFloat|types.IsComplex) != 0
		case *types.Struct:
			for i := 0; i < u.NumFields(); i++ {
				if rec(u.Field(i).Type()) {
					return true
				}
			}
		case *types.Array:
			return rec(u.Elem())
		}
		return false
	}
	return rec(t)
}

func isConstZero(pass *Pass, e ast.Expr) bool {
	tv, ok := pass.Info.Types[e]
	if !ok || tv.Value == nil {
		return false
	}
	switch tv.Value.Kind() {
	case constant.Int, constant.Float:
		return constant.Sign(tv.Value) == 0
	}
	return false
}
