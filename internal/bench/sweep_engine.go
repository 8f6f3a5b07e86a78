package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"semsim/internal/circuit"
	"semsim/internal/logicnet"
	"semsim/internal/numeric"
	"semsim/internal/solver"
	"semsim/internal/sweep"
)

// Amortized sweep-engine benchmark: the two halves of the million-point
// map engine, measured as machine-readable numbers.
//
//  1. Compile-once throughput — a stability map over two inputs of a
//     large logic benchmark, run through sweep.Map2DSession (one
//     compiled solver per worker, solver.Reset per point) against the
//     per-point rebuild path (sweep.Map2D, a full netlist expansion,
//     capacitance build and solver construction for every point). The
//     rebuild baseline runs on a subsample of the grid — its cost is
//     bias-independent — and is reported as points/second either way.
//  2. Adaptive mesh refinement — a SET Coulomb-diamond map simulated
//     coarse-first and refined only where the current shows contrast,
//     against a uniform simulation of the same fine lattice. The
//     refined map's simulated points are bit-identical to the uniform
//     map's (the runner verifies this), so the saving is pure.

// SweepEngineOptions sizes the benchmark. The zero value is invalid;
// use the defaults in cmd/experiments.
type SweepEngineOptions struct {
	// Benchmark names the logic circuit for the throughput half.
	Benchmark string
	// GridX x GridY is the amortized map; Events/Warm the per-point
	// Monte Carlo budget.
	GridX, GridY int
	Events, Warm uint64
	// RebuildSample is how many grid points the rebuild baseline times.
	RebuildSample int
	Seed          uint64

	// Refinement half: CoarseX x CoarseY grid refined Depth dyadic
	// levels at Threshold contrast, RefineEvents measured events per
	// point.
	CoarseX, CoarseY int
	Depth            int
	Threshold        float64
	RefineEvents     uint64
}

// SweepEngineReport is the machine-readable result written to
// BENCH_sweep_engine.json and gated by `benchcmp -sweep`.
type SweepEngineReport struct {
	Benchmark      string `json:"benchmark"`
	Junctions      int    `json:"junctions"`
	GridX          int    `json:"grid_x"`
	GridY          int    `json:"grid_y"`
	EventsPerPoint uint64 `json:"events_per_point"`
	Workers        int    `json:"workers"`

	AmortizedPoints       int     `json:"amortized_points"`
	AmortizedSeconds      float64 `json:"amortized_seconds"`
	AmortizedPointsPerSec float64 `json:"amortized_points_per_sec"`
	RebuildPoints         int     `json:"rebuild_points"`
	RebuildSeconds        float64 `json:"rebuild_seconds"`
	RebuildPointsPerSec   float64 `json:"rebuild_points_per_sec"`
	// SpeedupX is amortized over rebuild points/second.
	SpeedupX float64 `json:"speedup_x"`

	RefineCircuit   string  `json:"refine_circuit"`
	CoarseX         int     `json:"coarse_x"`
	CoarseY         int     `json:"coarse_y"`
	RefineDepth     int     `json:"refine_depth"`
	LatticePoints   int     `json:"lattice_points"`
	SimulatedPoints int     `json:"simulated_points"`
	RefineSeconds   float64 `json:"refine_seconds"`
	UniformSeconds  float64 `json:"uniform_seconds"`
	// RefineSavingsX is lattice points over simulated points: how many
	// fewer simulations the refined map ran than the uniform fine grid.
	RefineSavingsX float64 `json:"refine_savings_x"`
	// RefineMaxErrPct is the largest interpolated-point deviation from
	// the uniform map, as a percent of the uniform map's current range.
	// Simulated points are bit-identical by construction.
	RefineMaxErrPct float64 `json:"refine_max_err_pct"`
}

// RunSweepEngine measures both halves and returns the report.
func RunSweepEngine(o SweepEngineOptions) (*SweepEngineReport, error) {
	rep := &SweepEngineReport{
		Benchmark:      o.Benchmark,
		GridX:          o.GridX,
		GridY:          o.GridY,
		EventsPerPoint: o.Events,
	}
	if err := runSweepThroughput(o, rep); err != nil {
		return nil, err
	}
	if err := runSweepRefine(o, rep); err != nil {
		return nil, err
	}
	return rep, nil
}

// runSweepThroughput times the compile-once path against the per-point
// rebuild path on the named logic benchmark.
func runSweepThroughput(o SweepEngineOptions, rep *SweepEngineReport) error {
	b, ok := ByName(o.Benchmark)
	if !ok {
		return fmt.Errorf("bench: benchmark %s missing from suite", o.Benchmark)
	}
	ins := b.Netlist.Inputs
	if len(ins) < 2 {
		return fmt.Errorf("bench: %s has %d inputs; the map needs two", o.Benchmark, len(ins))
	}
	p := logicnet.DefaultParams()
	// Static bias points: every input a DC source, the map sweeping the
	// first two over the logic swing.
	driveAt := func(x, y float64) map[string]circuit.Source {
		d := make(map[string]circuit.Source, len(ins))
		for _, in := range ins {
			d[in] = circuit.DC(0)
		}
		d[ins[0]] = circuit.DC(x)
		d[ins[1]] = circuit.DC(y)
		return d
	}
	cfg := sweep.Config{
		Options: solver.Options{
			Temp:       WorkloadTemp,
			Seed:       o.Seed,
			Adaptive:   true,
			RateTables: true,
		},
		WarmEvents: o.Warm,
		Events:     o.Events,
	}
	xs := numeric.Linspace(0, p.Vdd(), o.GridX)
	ys := numeric.Linspace(0, p.Vdd(), o.GridY)

	// Amortized: one netlist expansion total, one solver per worker,
	// Reset per point. The expansion is inside the timed window — it is
	// part of what the session path pays.
	amStart := time.Now()
	ex, err := b.Netlist.Expand(p, driveAt(0, 0))
	if err != nil {
		return err
	}
	xNode, yNode := ex.InputNode[ins[0]], ex.InputNode[ins[1]]
	over := func(x, y float64) map[int]float64 {
		return map[int]float64{xNode: x, yNode: y}
	}
	newSession := func() (*sweep.Session, error) {
		return sweep.NewSession(ex.Circuit, 0, over, cfg)
	}
	if _, err := sweep.Map2DSession(newSession, xs, ys, cfg); err != nil {
		return err
	}
	amWall := time.Since(amStart)

	// Rebuild baseline: the pre-session per-point path — expansion,
	// capacitance build, solver construction — on a subsample spread
	// across the x axis at the middle row. Build cost does not depend
	// on the bias, so the subsample prices every point.
	n := o.RebuildSample
	if n < 1 {
		n = 1
	}
	rxs := make([]float64, n)
	for i := range rxs {
		j := 0
		if n > 1 {
			j = i * (len(xs) - 1) / (n - 1)
		}
		rxs[i] = xs[j]
	}
	rys := []float64{ys[len(ys)/2]}
	rbStart := time.Now()
	_, err = sweep.Map2D(func(x, y float64) (*circuit.Circuit, int, error) {
		ex2, err := b.Netlist.Expand(p, driveAt(x, y))
		if err != nil {
			return nil, 0, err
		}
		return ex2.Circuit, 0, nil
	}, rxs, rys, cfg)
	if err != nil {
		return err
	}
	rbWall := time.Since(rbStart)

	rep.Junctions = ex.Circuit.NumJunctions()
	rep.Workers = runtime.GOMAXPROCS(0)
	rep.AmortizedPoints = len(xs) * len(ys)
	rep.AmortizedSeconds = amWall.Seconds()
	rep.RebuildPoints = n
	rep.RebuildSeconds = rbWall.Seconds()
	if amWall > 0 {
		rep.AmortizedPointsPerSec = float64(rep.AmortizedPoints) / amWall.Seconds()
	}
	if rbWall > 0 {
		rep.RebuildPointsPerSec = float64(n) / rbWall.Seconds()
	}
	if rep.RebuildPointsPerSec > 0 {
		rep.SpeedupX = rep.AmortizedPointsPerSec / rep.RebuildPointsPerSec
	}
	return nil
}

// runSweepRefine measures adaptive mesh refinement against a uniform
// fine grid on a SET Coulomb-diamond map, verifying that every refined
// simulated point is bit-identical to the uniform map's.
func runSweepRefine(o SweepEngineOptions, rep *SweepEngineReport) error {
	setCfg := circuit.SETConfig{R1: 1e6, C1: 1e-18, R2: 1e6, C2: 1e-18, Cg: 3e-18}
	cfg := sweep.Config{
		// 1 K keeps the diamonds sharp: near-zero current inside, so
		// contrast concentrates on the edges the refiner should find.
		Options:    solver.Options{Temp: 1, Seed: o.Seed + 1},
		WarmEvents: o.RefineEvents / 4,
		Events:     o.RefineEvents,
	}
	newSession := func() (*sweep.Session, error) {
		c, nd := circuit.NewSET(setCfg)
		over := func(x, y float64) map[int]float64 {
			// Symmetric drain-source bias x, gate bias y.
			return map[int]float64{nd.Source: x / 2, nd.Drain: -x / 2, nd.Gate: y}
		}
		return sweep.NewSession(c, nd.JuncDrain, over, cfg)
	}
	// Gate period e/Cg = 53 mV, so y spans two diamonds; |Vds| stays
	// well under e/C_Sigma = 32 mV, so most of the window is deep
	// blockade (I = 0) and the current's contrast — everything the
	// refiner keys on — concentrates on the diamond edges around the
	// two degeneracy points.
	xs := numeric.Linspace(-0.012, 0.012, o.CoarseX)
	ys := numeric.Linspace(0, 0.107, o.CoarseY)
	rc := sweep.RefineConfig{Depth: o.Depth, Threshold: o.Threshold}

	refStart := time.Now()
	rm, err := sweep.Map2DRefined(newSession, xs, ys, cfg, rc)
	if err != nil {
		return err
	}
	refWall := time.Since(refStart)

	fineXs := sweep.RefineAxis(xs, o.Depth)
	fineYs := sweep.RefineAxis(ys, o.Depth)
	uniStart := time.Now()
	uni, err := sweep.Map2DSession(newSession, fineXs, fineYs, cfg)
	if err != nil {
		return err
	}
	uniWall := time.Since(uniStart)

	lo, hi := uni[0][0], uni[0][0]
	for _, row := range uni {
		for _, v := range row {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
	}
	maxErr := 0.0
	for iy := range uni {
		for ix := range uni[iy] {
			if rm.Simulated[iy][ix] {
				if !numeric.SameBits(rm.I[iy][ix], uni[iy][ix]) {
					return fmt.Errorf("bench: refined point (%d,%d) = %g differs from uniform %g; simulated points must be bit-identical",
						ix, iy, rm.I[iy][ix], uni[iy][ix])
				}
				continue
			}
			if d := rm.I[iy][ix] - uni[iy][ix]; d > maxErr {
				maxErr = d
			} else if -d > maxErr {
				maxErr = -d
			}
		}
	}

	rep.RefineCircuit = "SET"
	rep.CoarseX = o.CoarseX
	rep.CoarseY = o.CoarseY
	rep.RefineDepth = o.Depth
	rep.LatticePoints = rm.PointsTotal
	rep.SimulatedPoints = rm.PointsSimulated
	rep.RefineSeconds = refWall.Seconds()
	rep.UniformSeconds = uniWall.Seconds()
	if rm.PointsSimulated > 0 {
		rep.RefineSavingsX = float64(rm.PointsTotal) / float64(rm.PointsSimulated)
	}
	if hi > lo {
		rep.RefineMaxErrPct = 100 * maxErr / (hi - lo)
	}
	return nil
}

// LoadSweepEngineReport reads a BENCH_sweep_engine.json snapshot.
func LoadSweepEngineReport(path string) (*SweepEngineReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep SweepEngineReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("bench: %s is not a sweep-engine report: %w", path, err)
	}
	return &rep, nil
}

// CheckSweepEngine returns one message per violated floor: the
// compile-once path must beat per-point rebuilding by at least
// minSpeedup in points/second, and refinement must simulate at least
// minSavings times fewer points than the uniform fine lattice. An empty
// slice means the snapshot holds the amortized engine's reason to
// exist.
func CheckSweepEngine(rep *SweepEngineReport, minSpeedup, minSavings float64) []string {
	var bad []string
	if rep.SpeedupX < minSpeedup {
		bad = append(bad, fmt.Sprintf(
			"%s %dx%d map: amortized %.1f points/s is only %.2fx the rebuild path's %.2f points/s (floor %.0fx)",
			rep.Benchmark, rep.GridX, rep.GridY,
			rep.AmortizedPointsPerSec, rep.SpeedupX, rep.RebuildPointsPerSec, minSpeedup))
	}
	if rep.RefineSavingsX < minSavings {
		bad = append(bad, fmt.Sprintf(
			"%s refine depth %d: simulated %d of %d lattice points, only a %.2fx saving (floor %.0fx)",
			rep.RefineCircuit, rep.RefineDepth,
			rep.SimulatedPoints, rep.LatticePoints, rep.RefineSavingsX, minSavings))
	}
	return bad
}
