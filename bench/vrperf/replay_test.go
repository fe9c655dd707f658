package main

import (
	"testing"

	"vrsim/internal/harness"
	"vrsim/internal/isa"
	"vrsim/internal/mem"
	"vrsim/internal/workloads"
)

func TestRecordCountsEveryAccess(t *testing.T) {
	w := workloads.NASIS(12, 2000)
	s := record(w, 20_000)
	if s.instrs == 0 || s.loads == 0 {
		t.Fatalf("recorded nothing: %+v", s)
	}
	if got, want := uint64(len(s.accesses)), s.loads+s.stores; got != want {
		t.Errorf("recorded %d accesses, interpreter executed %d loads + stores", got, want)
	}
	var writes uint64
	for _, a := range s.accesses {
		if a.write {
			writes++
		}
	}
	if writes != s.stores {
		t.Errorf("recorded %d stores, interpreter executed %d", writes, s.stores)
	}

	it := isa.NewInterp(w.Prog, w.Fresh())
	for it.Executed < s.instrs && it.Step() {
	}
	if it.Loads != s.loads || it.Stores != s.stores {
		t.Errorf("recording changed execution: %d/%d loads/stores, plain interpreter %d/%d", s.loads, s.stores, it.Loads, it.Stores)
	}
}

// TestReplayHierarchyMatchesHarness checks that the replay assembles the
// memory system harness.Run does for each technique: the default memory
// configuration, the stream prefetcher, and IMP only under imp. nas-is is
// the indirect pattern IMP learns.
func TestReplayHierarchyMatchesHarness(t *testing.T) {
	w := workloads.NASIS(12, 2000)
	s := record(w, 20_000)
	for _, tech := range harness.AllTechniques() {
		rc := harness.DefaultRunConfig(tech)
		if rc.Mem != mem.DefaultConfig() || rc.DisableStridePrefetcher {
			t.Fatalf("%s: harness default memory system changed; the replay probes assume mem.DefaultConfig with the stream prefetcher", tech)
		}
		rc.MaxBudget = s.instrs
		want, err := harness.RunSupervised(w, rc)
		if err != nil {
			t.Fatal(err)
		}
		if tech == harness.TechOracle {
			continue // the oracle's perfect L1 never reaches a prefetcher
		}
		h, err := replayHierarchy(rc, w.Fresh())
		if err != nil {
			t.Fatal(err)
		}
		replayAccesses(h, s.accesses, float64(want.Cycles)/float64(want.Instrs))
		for _, src := range []mem.PrefetchSource{mem.SrcStride, mem.SrcIMP} {
			got, ran := h.Stats.PrefetchIssued[src] > 0, want.PrefetchIssued[src] > 0
			if got != ran {
				t.Errorf("%s: replay issued %d prefetches from source %d; harness.Run issued %d",
					tech, h.Stats.PrefetchIssued[src], src, want.PrefetchIssued[src])
			}
		}
	}

	rc := harness.DefaultRunConfig(harness.TechOoO)
	rc.DisableStridePrefetcher = true
	h, err := replayHierarchy(rc, w.Fresh())
	if err != nil {
		t.Fatal(err)
	}
	replayAccesses(h, s.accesses, 1)
	if h.Stats.PrefetchIssued != [mem.NumSources]uint64{} {
		t.Errorf("prefetcher ran with the stream prefetcher disabled: %v", h.Stats.PrefetchIssued)
	}
}
