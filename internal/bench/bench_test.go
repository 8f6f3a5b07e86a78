package bench

import (
	"math"
	"testing"

	"semsim/internal/circuit"
	"semsim/internal/logicnet"
	"semsim/internal/solver"
)

func TestSuiteMatchesPublishedJunctionCounts(t *testing.T) {
	want := []int{76, 100, 168, 224, 264, 336, 360, 448, 484, 944, 1344, 2072, 4616, 5608, 6988}
	suite := Suite()
	if len(suite) != 15 {
		t.Fatalf("suite has %d benchmarks, want 15", len(suite))
	}
	for i, b := range suite {
		if got := b.Netlist.NumJunctions(); got != want[i] {
			t.Errorf("%s: %d junctions, published %d", b.Name, got, want[i])
		}
		if b.PublishedJunctions != want[i] {
			t.Errorf("%s: published field %d, want %d", b.Name, b.PublishedJunctions, want[i])
		}
	}
}

func TestSuiteDeterministic(t *testing.T) {
	a := Suite()
	b := Suite()
	for i := range a {
		if len(a[i].Netlist.Gates) != len(b[i].Netlist.Gates) {
			t.Fatalf("%s: gate count differs across calls", a[i].Name)
		}
		for g := range a[i].Netlist.Gates {
			ga, gb := a[i].Netlist.Gates[g], b[i].Netlist.Gates[g]
			if ga.Out != gb.Out || ga.Kind != gb.Kind {
				t.Fatalf("%s gate %d differs: %+v vs %+v", a[i].Name, g, ga, gb)
			}
		}
	}
}

func TestByName(t *testing.T) {
	if _, ok := ByName("c432"); !ok {
		t.Fatal("c432 missing")
	}
	if _, ok := ByName("nope"); ok {
		t.Fatal("found nonexistent benchmark")
	}
}

func TestSpineIsSensitized(t *testing.T) {
	// The boolean netlist must actually propagate the toggle input to
	// the output: out(in0=0) != out(in0=1) under the workload's static
	// input assignment.
	for _, b := range Suite() {
		assign := map[string]bool{}
		for _, in := range b.Netlist.Inputs {
			assign[in] = false
		}
		for _, in := range b.HighInputs {
			assign[in] = true
		}
		assign[b.ToggleInput] = false
		v0, err := b.Netlist.Eval(assign)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		assign[b.ToggleInput] = true
		v1, err := b.Netlist.Eval(assign)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		if v0[b.OutputWire] == v1[b.OutputWire] {
			t.Errorf("%s: output does not respond to toggle input", b.Name)
		}
		if got := v1[b.OutputWire]; got != b.OutputRises {
			t.Errorf("%s: OutputRises=%v but out(toggle=1)=%v", b.Name, b.OutputRises, got)
		}
		if v0[b.OutputWire] == b.OutputRises {
			t.Errorf("%s: out(toggle=0) already at post-step level", b.Name)
		}
	}
}

func TestMeasureDelaySmallBenchmark(t *testing.T) {
	if testing.Short() {
		t.Skip("MC delay run in -short mode")
	}
	b, _ := ByName("2-to-10-decoder")
	p := logicnet.DefaultParams()
	ex, err := BuildWorkload(b, p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := MeasureDelayOn(ex, b, solver.Options{Temp: WorkloadTemp, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	if res.Delay <= 0 || res.Delay > ObserveFor {
		t.Fatalf("implausible delay %g s", res.Delay)
	}
	if res.Events == 0 {
		t.Fatal("no events simulated")
	}
}

func TestAdaptiveDelayWithinTolerance(t *testing.T) {
	if testing.Short() {
		t.Skip("MC delay run in -short mode")
	}
	// The Fig. 7 claim in miniature: adaptive delay within ~10% of
	// non-adaptive on a small benchmark (paper: 3.3% average over nine
	// seeds on the full suite; a single small benchmark is noisier).
	b, _ := ByName("2-to-10-decoder")
	p := logicnet.DefaultParams()
	ex, err := BuildWorkload(b, p)
	if err != nil {
		t.Fatal(err)
	}
	ref, _, err := MeanDelayOn(ex, b, solver.Options{Temp: WorkloadTemp, Seed: 5}, 4)
	if err != nil {
		t.Fatal(err)
	}
	ad, _, err := MeanDelayOn(ex, b, solver.Options{Temp: WorkloadTemp, Seed: 5, Adaptive: true}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(ad-ref) / ref; rel > 0.15 {
		t.Fatalf("adaptive delay %g vs non-adaptive %g: %.1f%% error", ad, ref, 100*rel)
	}
}

func TestAdaptiveCheaperOnMediumBenchmark(t *testing.T) {
	if testing.Short() {
		t.Skip("MC timing run in -short mode")
	}
	b, _ := ByName("74LS153") // 224 junctions
	p := logicnet.DefaultParams()
	ex, err := BuildWorkload(b, p)
	if err != nil {
		t.Fatal(err)
	}
	na, err := TimeSolverOn(ex, solver.Options{Temp: WorkloadTemp, Seed: 9}, 3000, 0)
	if err != nil {
		t.Fatal(err)
	}
	ad, err := TimeSolverOn(ex, solver.Options{Temp: WorkloadTemp, Seed: 9, Adaptive: true}, 3000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ad.RatePerEvent > na.RatePerEvent/4 {
		t.Fatalf("adaptive rate calcs/event %.1f vs non-adaptive %.1f: expected >4x reduction",
			ad.RatePerEvent, na.RatePerEvent)
	}
}

// BenchmarkBuildC1908 times the whole build of the largest suite
// circuit (6,988 junctions) at the ε = 1e-8 C^-1 truncation the
// logic-c1908 benchmark workload uses: netlist expansion, RCM, sparse
// Cholesky and the blocked inverse-row solves. Run it at -cpu 1 and
// -cpu 2 to separate the blocked kernel from the worker fan-out.
func BenchmarkBuildC1908(b *testing.B) {
	bm, _ := ByName("c1908")
	p := logicnet.DefaultParams()
	bo := circuit.BuildOptions{CinvTruncation: 1e-8}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := BuildWorkloadWith(bm, p, bo); err != nil {
			b.Fatal(err)
		}
	}
}
