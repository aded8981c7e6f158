package l1

import (
	"testing"
	"unsafe"

	"ldis/internal/mem"
)

func tiny() *Cache {
	// 2 sets x 2 ways = 256B.
	return New(Config{SizeBytes: 2 * 2 * mem.LineSize, Ways: 2})
}

// access performs a processor access through AccessEvict, the L1D's
// one demand path, and returns its outcome.
func access(c *Cache, la mem.LineAddr, word int, write bool) Outcome {
	out, _, _ := c.AccessEvict(la, word, write)
	return out
}

func TestDefaultConfig(t *testing.T) {
	c := DefaultConfig()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.Sets() != 128 {
		t.Errorf("default L1D sets = %d, want 128", c.Sets())
	}
}

func TestConfigValidateErrors(t *testing.T) {
	bad := []Config{
		{SizeBytes: 128, Ways: 0},
		{SizeBytes: 64 * 3 * 2, Ways: 2}, // 3 sets
		{SizeBytes: 100, Ways: 2},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("%+v should fail validation", c)
		}
	}
}

func TestMissFillHit(t *testing.T) {
	c := tiny()
	l := mem.LineAddr(10)
	if got := access(c, l, 3, false); got != LineMiss {
		t.Fatalf("cold access = %v", got)
	}
	if _, had := c.FillNew(l, mem.FullFootprint, 3, false); had {
		t.Fatal("fill into empty set evicted")
	}
	if got := access(c, l, 3, false); got != Hit {
		t.Fatalf("after fill = %v", got)
	}
	if got := access(c, l, 6, false); got != Hit {
		t.Fatalf("other word = %v", got)
	}
	st := c.Stats()
	if st.Accesses != 3 || st.Hits != 2 || st.LineMisses != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestSectorMiss(t *testing.T) {
	c := tiny()
	l := mem.LineAddr(4)
	// Fill with only words 0 and 1 valid (a partial WOC response).
	partial := mem.FootprintOfWord(0).Or(mem.FootprintOfWord(1))
	access(c, l, 0, false)
	c.Fill(l, partial, 0, false)
	if got := access(c, l, 1, false); got != Hit {
		t.Fatalf("valid word = %v", got)
	}
	if got := access(c, l, 5, false); got != SectorMiss {
		t.Fatalf("invalid word = %v", got)
	}
	if c.Stats().SectorMisses != 1 {
		t.Errorf("sector misses = %d", c.Stats().SectorMisses)
	}
	// Sector fill merges valid bits without losing footprint.
	if _, had := c.Fill(l, mem.FullFootprint, 5, false); had {
		t.Fatal("sector fill must not evict")
	}
	if got := c.ValidBits(l); got != mem.FullFootprint {
		t.Errorf("valid bits after merge = %v", got)
	}
	if got := access(c, l, 5, false); got != Hit {
		t.Fatalf("after sector fill = %v", got)
	}
}

func TestFootprintHandoffOnEviction(t *testing.T) {
	c := tiny()
	// Lines 0, 2, 4 all map to set 0 (2 sets).
	a, b, d := mem.LineAddr(0), mem.LineAddr(2), mem.LineAddr(4)
	c.Fill(a, mem.FullFootprint, 1, false)
	access(c, a, 4, false)
	access(c, a, 4, true) // write word 4
	c.Fill(b, mem.FullFootprint, 0, false)
	ev, had := c.Fill(d, mem.FullFootprint, 0, false) // evicts a
	if !had || ev.Line != a {
		t.Fatalf("eviction = %+v (had=%v)", ev, had)
	}
	if ev.Footprint.Count() != 2 || !ev.Footprint.Has(1) || !ev.Footprint.Has(4) {
		t.Errorf("footprint = %v", ev.Footprint)
	}
	if ev.Dirty != mem.FootprintOfWord(4) {
		t.Errorf("dirty = %v", ev.Dirty)
	}
	if c.Stats().Evictions != 1 || c.Stats().Writebacks != 1 {
		t.Errorf("stats = %+v", c.Stats())
	}
}

func TestCleanEvictionNoWriteback(t *testing.T) {
	c := tiny()
	a, b, d := mem.LineAddr(0), mem.LineAddr(2), mem.LineAddr(4)
	c.Fill(a, mem.FullFootprint, 0, false)
	c.Fill(b, mem.FullFootprint, 0, false)
	ev, had := c.Fill(d, mem.FullFootprint, 0, false)
	if !had || ev.Dirty != 0 {
		t.Fatalf("clean eviction = %+v", ev)
	}
	if c.Stats().Writebacks != 0 {
		t.Error("clean eviction counted as writeback")
	}
}

func TestLRUPromotionOnHit(t *testing.T) {
	c := tiny()
	a, b, d := mem.LineAddr(0), mem.LineAddr(2), mem.LineAddr(4)
	c.Fill(a, mem.FullFootprint, 0, false)
	c.Fill(b, mem.FullFootprint, 0, false)
	access(c, a, 0, false) // promote a
	ev, _ := c.Fill(d, mem.FullFootprint, 0, false)
	if ev.Line != b {
		t.Errorf("victim %v, want %v", ev.Line, b)
	}
	if !c.Present(a) || c.Present(b) {
		t.Error("contents wrong after eviction")
	}
}

func TestFillDemandWordMustBeValid(t *testing.T) {
	c := tiny()
	defer func() {
		if recover() == nil {
			t.Error("expected panic when fill lacks demand word")
		}
	}()
	c.Fill(0, mem.FootprintOfWord(0), 5, false)
}

func TestWriteOnFillSetsDirty(t *testing.T) {
	c := tiny()
	a, b, d := mem.LineAddr(0), mem.LineAddr(2), mem.LineAddr(4)
	c.Fill(a, mem.FullFootprint, 2, true)
	c.Fill(b, mem.FullFootprint, 0, false)
	ev, _ := c.Fill(d, mem.FullFootprint, 0, false)
	if ev.Line != a || ev.Dirty != mem.FootprintOfWord(2) {
		t.Errorf("eviction = %+v", ev)
	}
}

func TestValidBitsAbsent(t *testing.T) {
	c := tiny()
	if c.ValidBits(123) != 0 {
		t.Error("absent line should have zero valid bits")
	}
}

func TestSectorMissDoesNotTouchLRU(t *testing.T) {
	c := tiny()
	a, b := mem.LineAddr(0), mem.LineAddr(2)
	c.Fill(a, mem.FootprintOfWord(0), 0, false)
	c.Fill(b, mem.FullFootprint, 0, false)
	// Sector-missing on a must not promote it...
	if got := access(c, a, 7, false); got != SectorMiss {
		t.Fatalf("access = %v", got)
	}
	// ...so a is still LRU and gets evicted by the next fill.
	ev, _ := c.Fill(mem.LineAddr(4), mem.FullFootprint, 0, false)
	if ev.Line != a {
		t.Errorf("victim %v, want %v (sector miss must not promote)", ev.Line, a)
	}
}

func TestOutcomeString(t *testing.T) {
	if Hit.String() != "hit" || SectorMiss.String() != "sector-miss" || LineMiss.String() != "line-miss" {
		t.Error("Outcome.String wrong")
	}
	if Outcome(9).String() == "" {
		t.Error("unknown outcome should render")
	}
}

// AccessEvict evicts the LRU way on a line miss in a full set, before
// the fill, and never on a hit, a sector miss, or a miss with a free
// way; the FillNew that follows then has a free way.
func TestAccessEvict(t *testing.T) {
	c := tiny()
	a, b, d := mem.LineAddr(0), mem.LineAddr(2), mem.LineAddr(4)
	// Empty set: no eviction needed.
	if out, _, had := c.AccessEvict(a, 1, true); out != LineMiss || had {
		t.Fatalf("cold access = %v (had=%v)", out, had)
	}
	c.FillNew(a, mem.FootprintOfWord(1).Or(mem.FootprintOfWord(2)), 1, true)
	// Line present: a hit, then a sector miss, neither evicts.
	if out, _, had := c.AccessEvict(a, 2, false); out != Hit || had {
		t.Fatalf("hit = %v (had=%v)", out, had)
	}
	if out, _, had := c.AccessEvict(a, 5, false); out != SectorMiss || had {
		t.Fatalf("sector miss = %v (had=%v)", out, had)
	}
	c.FillNew(b, mem.FullFootprint, 0, false)
	// Set full, new line: the LRU victim (a) is evicted early with its
	// footprint and dirty words.
	out, ev, had := c.AccessEvict(d, 0, false)
	if out != LineMiss || !had || ev.Line != a {
		t.Fatalf("eviction = %v %+v (had=%v)", out, ev, had)
	}
	if ev.Footprint != mem.FootprintOfWord(1).Or(mem.FootprintOfWord(2)) || ev.Dirty != mem.FootprintOfWord(1) {
		t.Errorf("footprint %v dirty %v", ev.Footprint, ev.Dirty)
	}
	if c.Present(a) {
		t.Error("victim still present")
	}
	if st := c.Stats(); st.Evictions != 1 || st.Writebacks != 1 || st.LineMisses != 2 {
		t.Errorf("stats = %+v", st)
	}
	// The follow-up fill must not evict again.
	if _, had := c.FillNew(d, mem.FullFootprint, 0, false); had {
		t.Error("fill evicted after AccessEvict freed a way")
	}
	if !c.Present(b) || !c.Present(d) {
		t.Error("contents wrong after fill")
	}
}

// TestLineRecordSize pins the tag record at 16 bytes, so a field that
// re-pads it fails here.
func TestLineRecordSize(t *testing.T) {
	if got := unsafe.Sizeof(line{}); got != 16 {
		t.Errorf("line is %d bytes, want 16", got)
	}
}

// TestFillNewAfterLineMissNeverEvicts drives random streams through
// the AccessEvict-then-fill protocol the hierarchy uses and checks that
// neither the FillNew after a LineMiss nor the Fill after a SectorMiss
// ever reports an eviction: AccessEvict has already freed a way.
func TestFillNewAfterLineMissNeverEvicts(t *testing.T) {
	for _, cfg := range []Config{
		{SizeBytes: 1 * 1 * mem.LineSize, Ways: 1},
		{SizeBytes: 2 * 2 * mem.LineSize, Ways: 2},
		{SizeBytes: 4 * 4 * mem.LineSize, Ways: 4},
		DefaultConfig(),
	} {
		c := New(cfg)
		pool := uint64(cfg.Sets() * cfg.Ways * 3)
		rng := uint64(cfg.SizeBytes)
		next := func(n uint64) uint64 {
			rng = rng*6364136223846793005 + 1442695040888963407
			return (rng >> 33) % n
		}
		early := 0
		for i := 0; i < 200000; i++ {
			la, word, write := mem.LineAddr(next(pool)), int(next(mem.WordsPerLine)), next(4) == 0
			out, _, had := c.AccessEvict(la, word, write)
			if had {
				early++
			}
			// A partial fill, as from the WOC, leaves sectors to miss on.
			valid := mem.Footprint(next(256)).Set(word)
			switch out {
			case LineMiss:
				if ev, had := c.FillNew(la, valid, word, write); had {
					t.Fatalf("%+v access %d: FillNew after LineMiss evicted %+v", cfg, i, ev)
				}
			case SectorMiss:
				if ev, had := c.Fill(la, valid, word, write); had {
					t.Fatalf("%+v access %d: Fill after SectorMiss evicted %+v", cfg, i, ev)
				}
			}
		}
		if st := c.Stats(); early == 0 || st.SectorMisses == 0 || st.Hits == 0 || uint64(early) != st.Evictions {
			t.Errorf("%+v: %d early evictions, stats %+v: the stream missed a case", cfg, early, st)
		}
	}
}
