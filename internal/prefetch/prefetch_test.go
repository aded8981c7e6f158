package prefetch

import (
	"testing"

	"ldis/internal/cache"
	"ldis/internal/distill"
	"ldis/internal/hierarchy"
	"ldis/internal/mem"
	"ldis/internal/workload"
)

func TestConfigValidate(t *testing.T) {
	for _, d := range []int{0, 9, -1} {
		if err := (Config{Degree: d}).Validate(); err == nil {
			t.Errorf("degree %d should fail", d)
		}
	}
	if err := (Config{Degree: 1}).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestNextLinePrefetchCatchesSequentialDemand(t *testing.T) {
	inner := hierarchy.NewTradL2(cache.New(cache.Config{Name: "i", SizeBytes: 64 * 8 * mem.LineSize, Ways: 8}))
	p := Wrap(inner, Config{Degree: 1})
	// Sequential demand: line 0 misses and prefetches line 1; line 1's
	// demand access then hits.
	if c, _ := p.Access(0, 0, 0, false); c != hierarchy.L2Miss {
		t.Fatalf("first access class %v", c)
	}
	if c, _ := p.Access(1, 0, 0, false); c != hierarchy.L2Miss {
		if p.Misses() != 1 {
			t.Errorf("demand misses = %d, want 1", p.Misses())
		}
	} else {
		t.Fatal("prefetched line should hit")
	}
	if p.Stats().Issued == 0 {
		t.Error("no prefetches issued")
	}
}

func TestDemandAccountingExcludesPrefetches(t *testing.T) {
	innerCache := cache.New(cache.Config{Name: "i", SizeBytes: 64 * 8 * mem.LineSize, Ways: 8})
	p := Wrap(hierarchy.NewTradL2(innerCache), Config{Degree: 4})
	p.Access(0, 0, 0, false)
	if p.Accesses() != 1 {
		t.Errorf("demand accesses = %d, want 1", p.Accesses())
	}
	// The inner cache saw the demand access plus 4 prefetches.
	if got := innerCache.Stats().Accesses; got != 5 {
		t.Errorf("inner accesses = %d, want 5", got)
	}
}

func TestUselessPrefetchCounted(t *testing.T) {
	inner := hierarchy.NewTradL2(cache.New(cache.Config{Name: "i", SizeBytes: 64 * 8 * mem.LineSize, Ways: 8}))
	p := Wrap(inner, Config{Degree: 1})
	p.Access(1, 0, 0, false) // miss; prefetches line 2
	p.Access(0, 0, 0, false) // miss; prefetches line 1 -> already present: useless
	if p.Stats().Useless != 1 {
		t.Errorf("useless = %d, want 1", p.Stats().Useless)
	}
}

func TestPrefetchHelpsStreamingWorkload(t *testing.T) {
	prof, err := workload.ByName("wupwise") // pure sequential streaming
	if err != nil {
		t.Fatal(err)
	}
	run := func(degree int) uint64 {
		inner := hierarchy.NewTradL2(cache.New(cache.Config{Name: "i", SizeBytes: 1 << 20, Ways: 8}))
		var l2 hierarchy.L2 = inner
		if degree > 0 {
			l2 = Wrap(inner, Config{Degree: degree})
		}
		sys := hierarchy.NewSystem(l2)
		sys.Run(prof.Stream(), 150_000)
		return sys.L2.Misses()
	}
	noPf, pf := run(0), run(2)
	if pf >= noPf {
		t.Errorf("next-line prefetch did not help streaming: %d vs %d misses", pf, noPf)
	}
}

func TestPrefetchComposesWithDistill(t *testing.T) {
	prof, err := workload.ByName("wupwise")
	if err != nil {
		t.Fatal(err)
	}
	dc := distill.New(distill.Config{Name: "distill", SizeBytes: 1 << 20, Ways: 8, WOCWays: 2,
		MedianThreshold: true, Reverter: true, Seed: 1})
	p := Wrap(hierarchy.NewDistillL2(dc), Config{Degree: 2})
	sys := hierarchy.NewSystem(p)
	sys.Run(prof.Stream(), 100_000)
	if p.Misses() == 0 || p.Stats().Issued == 0 {
		t.Errorf("composition degenerate: %+v", p.Stats())
	}
	if err := dc.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestWritebackPassthrough(t *testing.T) {
	innerCache := cache.New(cache.Config{Name: "i", SizeBytes: 64 * 8 * mem.LineSize, Ways: 8})
	p := Wrap(hierarchy.NewTradL2(innerCache), Config{Degree: 1})
	p.Access(0, 0, 0, false)
	p.WritebackFromL1(0, mem.FullFootprint, mem.FootprintOfWord(1))
	found := false
	innerCache.VisitLines(func(la mem.LineAddr, fp mem.Footprint) {
		if la == 0 {
			found = true
			if !fp.Has(1) {
				t.Error("writeback footprint not merged through the wrapper")
			}
		}
	})
	if !found {
		t.Fatal("line 0 missing")
	}
}
