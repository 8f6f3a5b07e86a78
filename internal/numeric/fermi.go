package numeric

import "math"

// Fermi returns the Fermi-Dirac occupation 1/(exp(e/kT) + 1) with safe
// asymptotics for |e| >> kT and the T -> 0 step-function limit.
func Fermi(e, kT float64) float64 {
	if kT <= 0 {
		switch {
		case e < 0:
			return 1
		case e > 0:
			return 0
		default:
			return 0.5
		}
	}
	x := e / kT
	if x > 700 {
		return 0
	}
	if x < -700 {
		return 1
	}
	return 1 / (math.Exp(x) + 1)
}

// XOverExpm1 returns x/(exp(x) - 1), the thermally-smeared factor in
// the orthodox rate, with the correct limits: ->1 as x->0, ->-x as
// x->-inf, ->0 as x->+inf.
func XOverExpm1(x float64) float64 {
	if math.Abs(x) < 1e-8 {
		return 1 - x/2 + x*x/12
	}
	if x > 700 {
		return 0
	}
	if x < -700 {
		return -x
	}
	return x / math.Expm1(x)
}
