package lint

import (
	"bytes"
	"testing"
)

// TestModuleIsLintClean dogfoods the whole suite over the module
// itself, in both build configurations: the tree must stay free of
// findings, since satellite policy is to fix code, not suppress
// diagnostics.
func TestModuleIsLintClean(t *testing.T) {
	for _, tags := range []string{"", "semsimdebug"} {
		var buf bytes.Buffer
		n, err := Run("../..", tags, []string{"./..."}, &buf)
		if err != nil {
			t.Fatalf("tags %q: %v", tags, err)
		}
		if n != 0 {
			t.Errorf("tags %q: module has %d lint findings:\n%s", tags, n, buf.String())
		}
	}
}

// TestModuleFactsExported proves the facts engine runs over the real
// module, not just the fixtures: a clean module run is indistinguishable
// from a run where no facts flowed, so this inspects the store a
// module-wide analysis leaves behind. The anchors are deliberately
// load-bearing: the solver checkpoint envelope must be JSON-complete
// (the jobs run file embeds it), the solver itself must NOT be (its
// live unexported state is exactly what Checkpoint exists to
// translate), a known wall-clock reader must carry a purity fact, and
// the snapshot codec of internal/rng must carry none.
func TestModuleFactsExported(t *testing.T) {
	_, _, store, err := runModule("../..", "", []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}

	var sf SerialFact
	if !store.get("semsim/internal/solver", "Checkpoint", &sf) {
		t.Fatal("no SerialFact for solver.Checkpoint: statecover exported no module facts")
	}
	if !sf.Complete {
		t.Errorf("solver.Checkpoint must be fully serialized (the jobs envelope embeds it): %s", sf.Reason)
	}
	if !store.get("semsim/internal/solver", "Sim", &sf) {
		t.Fatal("no SerialFact for solver.Sim")
	}
	if sf.Complete {
		t.Error("solver.Sim reported JSON-complete; its unexported live state should make it incomplete")
	}

	var pf PurityFact
	if !store.get("semsim/internal/jobs", "Engine.Submit", &pf) {
		t.Error("no PurityFact for jobs.Engine.Submit (reads time.Now): resumepurity exported no module facts")
	}
	if store.get("semsim/internal/rng", "Source.MarshalBinary", &pf) {
		t.Errorf("rng.Source.MarshalBinary became resume-impure: %s", pf.Reason)
	}
	if store.get("semsim/internal/rng", "Source.UnmarshalBinary", &pf) {
		t.Errorf("rng.Source.UnmarshalBinary became resume-impure: %s", pf.Reason)
	}
}

// TestSubsetRunAnalyzesImportedPackages: a run over part of the module
// (as `make docs-verify` does) still analyzes the module packages the
// patterns import, in dependency order, so their facts reach the listed
// packages: linting internal/jobs alone sees internal/solver's facts.
func TestSubsetRunAnalyzesImportedPackages(t *testing.T) {
	diags, _, store, err := runModule("../..", "", []string{"./internal/jobs"})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Errorf("internal/jobs has %d lint findings", len(diags))
	}
	var sf SerialFact
	if !store.get("semsim/internal/solver", "Checkpoint", &sf) || !sf.Complete {
		t.Error("no complete SerialFact for solver.Checkpoint: the imported solver package was not analyzed")
	}
}
