package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"math"

	"semsim/internal/numeric"
	"semsim/internal/units"
)

// Unitsafety guards the SI unit discipline: every physical constant and
// unit-prefix conversion lives in internal/units, so a junction
// resistance is always ohms, a capacitance always farads, an energy
// always joules. Matsuoka et al.'s single-electron trap study (see
// PAPERS.md) documents how sensitively MC predictions depend on small
// parameter errors; a hand-typed 1.6e-19 that drifts from the CODATA
// elementary charge, or an inline *1e-18 attofarad conversion applied
// twice, is exactly the class of bug that produces plausible-looking
// wrong physics.
//
// Two patterns are flagged outside internal/units (and outside tests):
//
//   - float literals within 2% of a known physical constant
//     (e, k_B, h, hbar, R_K, R_Q) — use the units package constant;
//   - multiplying or dividing by a bare 1e-18/1e-15 unit-prefix literal
//     — use units.AF/units.FF/units.Atto/units.Femto, which name the
//     unit being converted.
var Unitsafety = &Analyzer{
	Name: "unitsafety",
	Run:  runUnitsafety,
}

// physConstants are the guarded values with the units-package spelling
// to suggest; referencing units directly keeps this table incapable of
// drifting from the canonical constants.
var physConstants = []struct {
	val  float64
	name string
}{
	{units.E, "units.E"},
	{units.KB, "units.KB"},
	{units.H, "units.H"},
	{units.Hbar, "units.Hbar"},
	{units.RK, "units.RK"},
	{units.RQ, "units.RQ"},
}

// prefixLiterals are the unit-prefix magnitudes whose inline use almost
// always means an ad-hoc capacitance conversion.
var prefixLiterals = []struct {
	val  float64
	name string
}{
	{units.Atto, "units.Atto (or units.AF)"},
	{units.Femto, "units.Femto (or units.FF)"},
}

func runUnitsafety(pass *Pass) error {
	if pathHasSuffixAny(pass.Path, []string{"internal/units"}) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch e := n.(type) {
			case *ast.BasicLit:
				checkConstantLiteral(pass, e)
			case *ast.BinaryExpr:
				if e.Op == token.MUL || e.Op == token.QUO {
					checkPrefixArithmetic(pass, e)
				}
			}
			return true
		})
	}
	return nil
}

// litFloat evaluates a FLOAT basic literal.
func litFloat(lit *ast.BasicLit) (float64, bool) {
	if lit.Kind != token.FLOAT {
		return 0, false
	}
	v := constant.MakeFromLiteral(lit.Value, token.FLOAT, 0)
	if v.Kind() != constant.Float {
		return 0, false
	}
	f, _ := constant.Float64Val(v)
	return f, true
}

func checkConstantLiteral(pass *Pass, lit *ast.BasicLit) {
	f, ok := litFloat(lit)
	if !ok || f == 0 {
		return
	}
	for _, c := range physConstants {
		if math.Abs(f-c.val)/c.val < 0.02 {
			pass.Reportf(lit.Pos(), "raw physical-constant literal %s: use %s (hand-typed constants drift and defeat unit auditing)", lit.Value, c.name)
			return
		}
	}
}

func checkPrefixArithmetic(pass *Pass, e *ast.BinaryExpr) {
	for _, side := range []ast.Expr{e.X, e.Y} {
		lit, ok := side.(*ast.BasicLit)
		if !ok {
			continue
		}
		f, ok := litFloat(lit)
		if !ok {
			continue
		}
		for _, p := range prefixLiterals {
			if numeric.SameBits(f, p.val) {
				pass.Reportf(lit.Pos(), "inline unit-prefix literal %s in arithmetic: use %s so the converted unit is named", lit.Value, p.name)
				return
			}
		}
	}
}
