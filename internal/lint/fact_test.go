package lint

import "testing"

// TestFactStoreTypeKeying: two fact types on the same object coexist,
// and get with the wrong type misses instead of corrupting.
func TestFactStoreTypeKeying(t *testing.T) {
	s := NewFactStore()
	s.put("p", "Checkpoint", &SerialFact{Complete: true})
	s.put("p", "Checkpoint", &PurityFact{Reason: "r"})
	var sf SerialFact
	var pf PurityFact
	var gf GlobalFact
	if !s.get("p", "Checkpoint", &sf) || !s.get("p", "Checkpoint", &pf) {
		t.Error("facts of distinct types on one object should coexist")
	}
	if s.get("p", "Checkpoint", &gf) {
		t.Error("get hit a fact type that was never exported")
	}
}
