package hierarchy

import (
	"testing"

	"ldis/internal/distill"
	"ldis/internal/mem"
	"ldis/internal/sfp"
	"ldis/internal/trace"
	"ldis/internal/values"
	"ldis/internal/workload"

	ccompress "ldis/internal/compress"
)

func access(line int, word int, write bool, instret uint32) mem.Access {
	k := mem.Load
	if write {
		k = mem.Store
	}
	return mem.Access{Addr: mem.LineAddr(line).WordAddr(word), Kind: k, Instret: instret, PC: 0x400}
}

func TestL1FiltersRepeatAccesses(t *testing.T) {
	sys, l2 := Baseline("b", 64*8*mem.LineSize, 8)
	// Two accesses to the same line: second is an L1 hit, L2 sees one.
	if got := sys.Do(access(5, 0, false, 3)); got != L2Miss {
		t.Fatalf("first access class %v", got)
	}
	if got := sys.Do(access(5, 1, false, 3)); got != L1Hit {
		t.Fatalf("second access class %v", got)
	}
	if l2.Stats().Accesses != 1 {
		t.Errorf("L2 saw %d accesses, want 1", l2.Stats().Accesses)
	}
	if sys.Instructions != 6 {
		t.Errorf("instructions = %d", sys.Instructions)
	}
}

func TestFootprintFlowsToL2OnL1Eviction(t *testing.T) {
	sys, l2 := Baseline("b", 64*8*mem.LineSize, 8)
	// Touch two words of line 0 (one L2 access + one L1 hit), then evict
	// it from the tiny L1D by filling its set (L1D: 128 sets, 2 ways —
	// lines 0, 128, 256 share L1 set 0).
	sys.Do(access(0, 0, false, 1))
	sys.Do(access(0, 5, false, 1))
	sys.Do(access(128, 0, false, 1))
	sys.Do(access(256, 0, false, 1)) // evicts line 0 from L1D
	// L2 line 0 footprint must now include word 5 (merged from L1).
	found := false
	l2.VisitLines(func(la mem.LineAddr, fp mem.Footprint) {
		if la == 0 {
			found = true
			if !fp.Has(0) || !fp.Has(5) {
				t.Errorf("L2 footprint for line 0 = %v, want words 0 and 5", fp)
			}
		}
	})
	if !found {
		t.Fatal("line 0 missing from L2")
	}
}

func TestSectorMissGoesBackToL2(t *testing.T) {
	cfg := distill.Config{
		Name: "d", SizeBytes: 64 * 4 * mem.LineSize, Ways: 4, WOCWays: 1, Seed: 3,
	}
	sys, dc := Distill(cfg)
	// Distill line 0 with only word 0 used: fill LOC set 0 (3 ways).
	// Lines 128 and 256 also map to L1D set 0, evicting line 0 from the
	// L1D so later accesses reach the L2.
	sys.Do(access(0, 0, false, 1))
	for _, ln := range []int{64, 128, 256} {
		sys.Do(access(ln, 0, false, 1)) // same L2 set
	}
	if dc.Present(0) != "woc" {
		t.Fatalf("line 0 in %q, want woc", dc.Present(0))
	}
	// WOC hit: the L1D receives only word 0.
	if got := sys.Do(access(0, 0, false, 1)); got != L2WOCHit {
		t.Fatalf("WOC access class %v", got)
	}
	if vb := sys.L1D.ValidBits(0); vb != mem.FootprintOfWord(0) {
		t.Fatalf("L1D valid bits %v, want word 0 only", vb)
	}
	// Accessing word 3 sector-misses in L1D and hole-misses in L2.
	before := dc.Stats().HoleMisses
	if got := sys.Do(access(0, 3, false, 1)); got != L2Miss {
		t.Fatalf("hole access class %v", got)
	}
	if dc.Stats().HoleMisses != before+1 {
		t.Error("hole miss not recorded")
	}
	// After the refetch the L1D holds the full line.
	if vb := sys.L1D.ValidBits(0); vb != mem.FullFootprint {
		t.Errorf("L1D valid bits after hole fill = %v", vb)
	}
	if sys.L1D.Stats().SectorMisses != 1 {
		t.Errorf("sector misses = %d", sys.L1D.Stats().SectorMisses)
	}
}

func TestWindowMeasuresDeltas(t *testing.T) {
	sys, _ := Baseline("b", 64*8*mem.LineSize, 8)
	prof, err := workload.ByName("twolf")
	if err != nil {
		t.Fatal(err)
	}
	st := prof.Stream()
	sys.Run(st, 2000)
	w := sys.StartWindow()
	if w.Misses() != 0 || w.Instructions() != 0 {
		t.Fatal("fresh window should be empty")
	}
	sys.Run(st, 2000)
	if w.Instructions() == 0 || w.L2Accesses() == 0 {
		t.Error("window did not observe the second run")
	}
	if w.MPKI() < 0 {
		t.Error("negative MPKI")
	}
}

func TestRunStopsAtStreamEnd(t *testing.T) {
	sys, _ := Baseline("b", 64*8*mem.LineSize, 8)
	accs := []mem.Access{access(0, 0, false, 1), access(1, 0, false, 1)}
	if n := sys.Run(trace.NewSliceStream(accs), 100); n != 2 {
		t.Errorf("Run did %d accesses, want 2", n)
	}
}

func TestClassStrings(t *testing.T) {
	want := map[Class]string{L1Hit: "l1-hit", L2Hit: "l2-hit", L2WOCHit: "l2-woc-hit", L2Miss: "l2-miss", Class(9): "invalid"}
	//ldis:nondet-ok iteration order only affects t.Errorf attribution, not any experiment output
	for c, s := range want {
		if c.String() != s {
			t.Errorf("%d.String() = %q", c, c.String())
		}
	}
}

func TestCMPRSystem(t *testing.T) {
	cfg := ccompress.CMPRConfig{Name: "c", SizeBytes: 64 * 8 * mem.LineSize, Ways: 8, TagFactor: 4}
	sys, cc := Compressed(cfg, values.NewModel(1, values.Mix{Zero: 1}))
	sys.Do(access(0, 0, false, 1))
	if got := sys.Do(access(0, 7, false, 1)); got != L1Hit {
		t.Fatalf("second word class %v (full line in L1)", got)
	}
	sys.Do(access(128, 0, false, 1))
	sys.Do(access(256, 0, false, 1)) // evict line 0 from L1D
	if got := sys.Do(access(0, 3, false, 1)); got != L2Hit {
		t.Fatalf("compressed L2 should hit, got %v", got)
	}
	if cc.Stats().Hits == 0 {
		t.Error("CMPR hits not counted")
	}
}

// A dirty L1D writeback into a CMPR L2 dirties the resident copy in
// place: it counts no demand access or hit, leaves the LRU order alone
// (the written-back LRU line is still the next victim), and the line is
// written back to memory when it is evicted.
func TestCMPRWritebackFromL1DirtiesInPlace(t *testing.T) {
	// One set, two tag entries: the tag budget forces LRU evictions.
	cc := ccompress.NewCMPR(ccompress.CMPRConfig{Name: "c", SizeBytes: mem.LineSize, Ways: 1, TagFactor: 2},
		values.NewModel(1, values.Mix{Zero: 1}))
	l2 := NewCMPRL2(cc)
	a, b := mem.LineAddr(0), mem.LineAddr(1)
	l2.Access(a, 0, 0, false)
	l2.Access(b, 0, 0, false) // MRU b, LRU a; both clean
	accesses, hits := l2.Accesses(), cc.Stats().Hits
	l2.WritebackFromL1(a, mem.FootprintOfWord(3), mem.FootprintOfWord(3))
	if l2.Accesses() != accesses || cc.Stats().Hits != hits {
		t.Fatalf("writeback counted as a demand access: accesses %d->%d hits %d->%d",
			accesses, l2.Accesses(), hits, cc.Stats().Hits)
	}
	l2.WritebackFromL1(mem.LineAddr(7), 0, mem.FullFootprint) // absent: no-op
	l2.Access(mem.LineAddr(2), 0, 0, false)                   // evicts the LRU line
	if cc.Present(a) || !cc.Present(b) {
		t.Fatal("writeback changed the LRU order: a should still be the victim")
	}
	if st := cc.Stats(); st.Evictions != 1 || st.Writebacks != 1 {
		t.Errorf("evictions %d writebacks %d, want the dirtied line written back", st.Evictions, st.Writebacks)
	}
}

func TestSFPSystem(t *testing.T) {
	cfg := sfp.Config{
		Name: "s", SizeBytes: 64 * 8 * mem.LineSize, Ways: 8,
		PredictorEntries: 256, TagsPerSet: 22, Seed: 3,
	}
	sys, sc := SFP(cfg)
	sys.Do(access(0, 0, false, 1))
	if sc.Stats().LineMisses != 1 {
		t.Errorf("SFP line misses = %d", sc.Stats().LineMisses)
	}
	if got := sys.Do(access(0, 5, false, 1)); got != L1Hit {
		t.Fatalf("full cold install should leave the line in L1, got %v", got)
	}
}

func TestFACSystem(t *testing.T) {
	cfg := distill.Config{
		Name: "fac", SizeBytes: 64 * 4 * mem.LineSize, Ways: 4, WOCWays: 1, Seed: 3,
	}
	sys, dc := FAC(cfg, values.NewModel(1, values.Mix{Zero: 1}))
	// Distill a 4-word line: with all-zero values it compresses into a
	// single WOC slot instead of four.
	for w := 0; w < 4; w++ {
		sys.Do(access(0, w, false, 1))
	}
	// Fillers 128 and 256 evict line 0 from the L1D first, so its full
	// footprint reaches the LOC before distillation.
	for _, ln := range []int{64, 128, 256} {
		sys.Do(access(ln, 0, false, 1))
	}
	if dc.Present(0) != "woc" {
		t.Fatalf("line in %q", dc.Present(0))
	}
	if vb := dc.WOCValidBits(0); vb.Count() != 4 {
		t.Errorf("FAC WOC words = %v", vb)
	}
}

func TestDescribe(t *testing.T) {
	sys, _ := Baseline("b", 64*8*mem.LineSize, 8)
	sys.Do(access(0, 0, false, 5))
	if s := sys.Describe(); s == "" {
		t.Error("empty description")
	}
}

func TestInstructionFetchPath(t *testing.T) {
	// IFetch accesses bypass the L1D and reach the L2 directly; the
	// distill cache must never distill instruction lines.
	cfg := distill.Config{
		Name: "d", SizeBytes: 64 * 4 * mem.LineSize, Ways: 4, WOCWays: 1, Seed: 3,
	}
	sys, dc := Distill(cfg)
	ifetch := func(line int) Class {
		return sys.Do(mem.Access{Addr: mem.LineAddr(line).WordAddr(0), Kind: mem.IFetch, Instret: 1})
	}
	if got := ifetch(0); got != L2Miss {
		t.Fatalf("cold ifetch class %v", got)
	}
	if got := ifetch(0); got != L2Hit {
		t.Fatalf("warm ifetch class %v", got)
	}
	if sys.L1D.Present(0) {
		t.Error("instruction line must not enter the L1D")
	}
	// Push the instruction line out of the LOC: it must be evicted, not
	// distilled into the WOC.
	for i := 1; i <= 3; i++ {
		ifetch(i * 64)
	}
	if got := dc.Present(0); got != "" {
		t.Errorf("evicted instruction line in %q, want gone", got)
	}
	if dc.Stats().InstrEvictions == 0 {
		t.Error("instruction eviction not counted")
	}
}

func TestInstructionFetchOtherL2s(t *testing.T) {
	ia := mem.Access{Addr: mem.LineAddr(7).WordAddr(0), Kind: mem.IFetch, Instret: 1}
	// Traditional.
	sysT, _ := Baseline("t", 64*8*mem.LineSize, 8)
	if got := sysT.Do(ia); got != L2Miss {
		t.Errorf("trad cold ifetch = %v", got)
	}
	if got := sysT.Do(ia); got != L2Hit {
		t.Errorf("trad warm ifetch = %v", got)
	}
	// CMPR.
	sysC, _ := Compressed(ccompress.CMPRConfig{Name: "c", SizeBytes: 64 * 8 * mem.LineSize, Ways: 8, TagFactor: 4},
		values.NewModel(1, values.Mix{Zero: 1}))
	if got := sysC.Do(ia); got != L2Miss {
		t.Errorf("cmpr cold ifetch = %v", got)
	}
	if got := sysC.Do(ia); got != L2Hit {
		t.Errorf("cmpr warm ifetch = %v", got)
	}
	// SFP.
	sysS, _ := SFP(sfp.Config{Name: "s", SizeBytes: 64 * 8 * mem.LineSize, Ways: 8,
		PredictorEntries: 256, TagsPerSet: 22, Seed: 3})
	if got := sysS.Do(ia); got != L2Miss {
		t.Errorf("sfp cold ifetch = %v", got)
	}
	if got := sysS.Do(ia); got != L2Hit {
		t.Errorf("sfp warm ifetch = %v", got)
	}
}

func TestCompulsoryTracking(t *testing.T) {
	sys, _ := Baseline("b", 64*8*mem.LineSize, 8)
	sys.Do(access(0, 0, false, 1))   // compulsory
	sys.Do(access(0, 1, false, 1))   // L1 hit
	sys.Do(access(128, 0, false, 1)) // compulsory
	if sys.CompulsoryMisses != 2 {
		t.Errorf("compulsory = %d, want 2", sys.CompulsoryMisses)
	}
	if sys.L2.Misses() != 2 || sys.L2.Accesses() != 2 {
		t.Errorf("L2 misses/accesses = %d/%d", sys.L2.Misses(), sys.L2.Accesses())
	}
}
