package bench

import (
	"math"
	"runtime"
	"time"

	"semsim/internal/circuit"
	"semsim/internal/logicnet"
	"semsim/internal/solver"
	"semsim/internal/units"
)

// PotentialEngineRun is one engine configuration of the potential-engine
// benchmark: build cost, storage shape, micro-timed potential-update
// costs, and a short adaptive solver run.
type PotentialEngineRun struct {
	// Engine is "dense" (ε = 0) or "sparse-trunc" (ε = Eps > 0).
	Engine string  `json:"engine"`
	Eps    float64 `json:"eps"`
	// BuildSeconds is the workload expansion and circuit build at this
	// engine's ε: one RCM + sparse Cholesky factorization, then the
	// exact dense rows or the truncated CSR rows.
	BuildSeconds float64 `json:"build_seconds"`
	// Storage shape.
	NNZ             int     `json:"cinv_nnz"`
	TruncationRatio float64 `json:"truncation_ratio"`
	Fill            float64 `json:"chol_fill"`
	// ShiftNsPerOp micro-times the per-event potential shift (one
	// electron across a junction, averaged over the junction list).
	ShiftNsPerOp float64 `json:"shift_ns_per_op"`
	// RefreshMsPerSolve micro-times one full potential solve.
	RefreshMsPerSolve float64 `json:"refresh_ms_per_solve"`
	// Short adaptive Monte Carlo run.
	Events       uint64  `json:"events"`
	WallSeconds  float64 `json:"wall_seconds"`
	EventsPerSec float64 `json:"events_per_sec"`
	// ErrorBound is the engine's refresh-time truncation bound (volts)
	// at the settled state; zero for exact engines.
	ErrorBound float64 `json:"error_bound_v"`
	// MaxAbsPotentialError compares this engine's settled island
	// potentials against the dense reference (volts).
	MaxAbsPotentialError float64 `json:"max_abs_potential_error_v"`
}

// PotentialEngineReport is the machine-readable comparison of the two
// potential engines on one benchmark circuit.
type PotentialEngineReport struct {
	Benchmark  string               `json:"benchmark"`
	Junctions  int                  `json:"junctions"`
	Islands    int                  `json:"islands"`
	GOMAXPROCS int                  `json:"gomaxprocs"`
	Runs       []PotentialEngineRun `json:"runs"`
	// ShiftSpeedup and RefreshSpeedup are dense cost over
	// sparse-trunc cost for the two potential-update paths.
	ShiftSpeedup   float64 `json:"shift_speedup"`
	RefreshSpeedup float64 `json:"refresh_speedup"`
}

// TruncEps is the truncation threshold the potential-engine benchmark
// uses for its sparse-trunc configuration. C^-1 entries of the logic
// circuits decay exponentially with distance; at 1e-8 relative to the
// row maximum ~95% of entries drop while the potential error bound
// stays orders of magnitude below kT/e at the 2 K workload temperature.
const TruncEps = 1e-8

// shiftOps times the per-event shift path: one electron forward and one
// back across each junction in turn, leaving v unchanged at the end.
func shiftOps(pe *circuit.Potentials, c *circuit.Circuit, v []float64, reps int) float64 {
	nj := c.NumJunctions()
	start := time.Now()
	ops := 0
	for r := 0; r < reps; r++ {
		for j := 0; j < nj; j++ {
			jc := c.Junction(j)
			pe.Shift(v, jc.A, jc.B, units.E)
			pe.Shift(v, jc.B, jc.A, units.E)
			ops += 2
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(ops)
}

// solveOps times the full-refresh solve path.
func solveOps(pe *circuit.Potentials, dst, q, vext []float64, reps int) float64 {
	start := time.Now()
	for r := 0; r < reps; r++ {
		pe.Solve(dst, q, vext)
	}
	return time.Since(start).Seconds() * 1e3 / float64(reps)
}

// RunPotentialEngines benchmarks the two potential engines — exact dense
// rows (ε = 0) and truncated CSR rows (ε = TruncEps) — on benchmark b:
// build cost, per-event shift and full-refresh micro timings, a short
// adaptive Monte Carlo run each, and the accuracy of the truncated
// engine against the dense reference.
func RunPotentialEngines(b Benchmark, p logicnet.Params, events, seed uint64) (*PotentialEngineReport, error) {
	buildStart := time.Now()
	ex, err := BuildWorkload(b, p)
	if err != nil {
		return nil, err
	}
	denseBuild := time.Since(buildStart).Seconds()
	c := ex.Circuit
	ni := c.NumIslands()

	rep := &PotentialEngineReport{
		Benchmark:  b.Name,
		Junctions:  c.NumJunctions(),
		Islands:    ni,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}

	// Shared settled-state inputs for the micro timings.
	ns := make([]int, ni)
	q := c.ChargeVector(nil, ns)
	vext := c.ExternalVoltages(nil, 0)
	vRef := c.IslandPotentials(nil, ns, 0)
	qmax, vmax := 0.0, 0.0
	for _, x := range q {
		qmax = math.Max(qmax, math.Abs(x))
	}
	for _, x := range vext {
		vmax = math.Max(vmax, math.Abs(x))
	}

	// Truncated build: a separate workload expansion so the build timing
	// is honest end to end.
	truncStart := time.Now()
	exT, err := BuildWorkloadWith(b, p, circuit.BuildOptions{CinvTruncation: TruncEps})
	if err != nil {
		return nil, err
	}
	truncBuild := time.Since(truncStart).Seconds()
	trunc := exT.Circuit.Potentials()

	shiftReps := 1 + 40000/(2*c.NumJunctions())
	solveReps := 3

	opt := solver.Options{Temp: WorkloadTemp, Seed: seed, Adaptive: true}
	denseRun, err := TimeSolverOn(ex, opt, events, 0)
	if err != nil {
		return nil, err
	}
	truncRun, err := TimeSolverOn(exT, opt, events, 0)
	if err != nil {
		return nil, err
	}

	// Truncated engine accuracy at the settled state.
	vTrunc := make([]float64, ni)
	trunc.Solve(vTrunc, q, vext)
	maxErr := 0.0
	for i := range vRef {
		maxErr = math.Max(maxErr, math.Abs(vRef[i]-vTrunc[i]))
	}

	dense := c.Potentials()
	runs := []PotentialEngineRun{
		{
			Engine: "dense", BuildSeconds: denseBuild,
			NNZ: dense.NNZ(), TruncationRatio: dense.TruncationRatio(), Fill: dense.Fill(),
			ShiftNsPerOp:      shiftOps(dense, c, append([]float64(nil), vRef...), shiftReps),
			RefreshMsPerSolve: solveOps(dense, make([]float64, ni), q, vext, solveReps),
			Events:            denseRun.Events, WallSeconds: denseRun.Wall.Seconds(),
		},
		{
			Engine: "sparse-trunc", Eps: TruncEps, BuildSeconds: truncBuild,
			NNZ: trunc.NNZ(), TruncationRatio: trunc.TruncationRatio(), Fill: trunc.Fill(),
			ShiftNsPerOp:      shiftOps(trunc, exT.Circuit, make([]float64, ni), shiftReps),
			RefreshMsPerSolve: solveOps(trunc, make([]float64, ni), q, vext, solveReps),
			Events:            truncRun.Events, WallSeconds: truncRun.Wall.Seconds(),
			ErrorBound:           trunc.RefreshErrorBound(qmax, vmax),
			MaxAbsPotentialError: maxErr,
		},
	}
	for i := range runs {
		if runs[i].WallSeconds > 0 {
			runs[i].EventsPerSec = float64(runs[i].Events) / runs[i].WallSeconds
		}
	}
	rep.Runs = runs
	if runs[1].ShiftNsPerOp > 0 {
		rep.ShiftSpeedup = runs[0].ShiftNsPerOp / runs[1].ShiftNsPerOp
	}
	if runs[1].RefreshMsPerSolve > 0 {
		rep.RefreshSpeedup = runs[0].RefreshMsPerSolve / runs[1].RefreshMsPerSolve
	}
	return rep, nil
}
