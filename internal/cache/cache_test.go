package cache

import (
	"slices"
	"testing"
	"testing/quick"
	"unsafe"

	"ldis/internal/mem"
)

func small() *Cache {
	// 4 sets x 2 ways.
	return New(Config{Name: "t", SizeBytes: 4 * 2 * mem.LineSize, Ways: 2})
}

func TestConfigValidate(t *testing.T) {
	good := Config{Name: "l2", SizeBytes: 1 << 20, Ways: 8}
	if err := good.Validate(); err != nil {
		t.Errorf("baseline config invalid: %v", err)
	}
	if good.Sets() != 2048 {
		t.Errorf("baseline Sets = %d, want 2048", good.Sets())
	}
	if wide := (Config{Name: "wide", SizeBytes: maxWays * mem.LineSize, Ways: maxWays}); wide.Validate() != nil {
		t.Errorf("%d ways invalid: %v", maxWays, wide.Validate())
	}
	bad := []Config{
		{Name: "w0", SizeBytes: 1024, Ways: 0},
		{Name: "odd", SizeBytes: 3 * 64, Ways: 2},                // sets=0 -> invalid
		{Name: "np2", SizeBytes: 3 * 64 * 2, Ways: 2},            // 3 sets
		{Name: "frac", SizeBytes: 4*2*mem.LineSize + 1, Ways: 2}, // not line divisible
		// MaxFPPos would overflow.
		{Name: "wide", SizeBytes: 2 * maxWays * mem.LineSize, Ways: 2 * maxWays},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %+v should be invalid", c)
		}
	}
}

// access performs an unpartitioned demand access through
// AccessInstallTenant, the cache's one demand path.
func access(c *Cache, line mem.LineAddr, word int, write bool) bool {
	return c.AccessInstallTenant(line, word, write, 0)
}

func TestMissThenInstallThenHit(t *testing.T) {
	c := small()
	l := mem.LineAddr(0x40)
	if access(c, l, 0, false) {
		t.Fatal("cold access should miss")
	}
	if !c.Lookup(l) {
		t.Fatal("miss should install the line")
	}
	if !access(c, l, 1, false) {
		t.Fatal("second access should hit")
	}
	st := c.Stats()
	if st.Accesses != 2 || st.Hits != 1 || st.Misses != 1 || st.Evictions != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestLRUEviction(t *testing.T) {
	c := small()
	// Three lines mapping to set 0 of a 4-set cache: line addresses
	// congruent mod 4.
	a, b, d := mem.LineAddr(0), mem.LineAddr(4), mem.LineAddr(8)
	access(c, a, 0, false)
	access(c, b, 0, false)
	// a is LRU; touch a to promote it, then miss on d: b must be victim.
	access(c, a, 0, false)
	access(c, d, 0, false)
	if c.Stats().Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", c.Stats().Evictions)
	}
	if !c.Lookup(a) || !c.Lookup(d) || c.Lookup(b) {
		t.Error("post-eviction contents wrong")
	}
	if c.RecencyPosition(d) != 0 || c.RecencyPosition(a) != 1 {
		t.Errorf("recency d=%d a=%d, want 0 and 1", c.RecencyPosition(d), c.RecencyPosition(a))
	}
}

func TestDirtyWriteback(t *testing.T) {
	c := small()
	a, b, d := mem.LineAddr(0), mem.LineAddr(4), mem.LineAddr(8)
	access(c, a, 0, true) // write miss: the fill is dirty
	access(c, b, 0, false)
	access(c, d, 0, false) // evicts a (LRU)
	if c.Lookup(a) {
		t.Fatal("a should have been evicted")
	}
	if c.Stats().Writebacks != 1 {
		t.Errorf("writebacks = %d", c.Stats().Writebacks)
	}
}

func TestWriteHitSetsDirty(t *testing.T) {
	c := small()
	a, b, d := mem.LineAddr(0), mem.LineAddr(4), mem.LineAddr(8)
	access(c, a, 0, false)
	access(c, a, 0, true) // write hit
	access(c, b, 0, false)
	access(c, d, 0, false) // evicts a
	if c.Lookup(a) || c.Stats().Writebacks != 1 {
		t.Fatalf("write hit should have dirtied %v: writebacks %d", a, c.Stats().Writebacks)
	}
}

func TestFootprintAccumulates(t *testing.T) {
	c := small()
	a := mem.LineAddr(0)
	access(c, a, 2, false)
	access(c, a, 5, false)
	access(c, a, 5, false) // repeated word: no new bit
	access(c, mem.LineAddr(4), 0, false)
	access(c, mem.LineAddr(8), 0, false) // evicts a
	if c.Lookup(a) {
		t.Fatal("a should have been evicted")
	}
	if c.Stats().WordsUsedAtEvict.Count(2) != 1 {
		t.Errorf("words-used histogram %v, want one 2-word eviction", c.Stats().WordsUsedAtEvict)
	}
}

func TestMergeFootprint(t *testing.T) {
	c := small()
	a := mem.LineAddr(0)
	access(c, a, 0, false)
	c.MergeWriteback(a, mem.FootprintOfWord(7).Or(mem.FootprintOfWord(0)), 0)
	access(c, mem.LineAddr(4), 0, false)
	access(c, mem.LineAddr(8), 0, false) // evicts a
	st := c.Stats()
	if st.WordsUsedAtEvict.Count(2) != 1 {
		t.Errorf("merged footprint not seen at eviction: %v", st.WordsUsedAtEvict)
	}
	if st.Writebacks != 0 {
		t.Error("a clean notice dirtied the line")
	}
	// Merging into an absent line is a no-op.
	c.MergeWriteback(mem.LineAddr(0x7777), mem.FullFootprint, mem.FullFootprint)
	if st.Accesses != 3 {
		t.Errorf("notices counted as accesses: %d", st.Accesses)
	}
}

// A dirty L1D eviction notice dirties the resident copy in place: no
// access is counted and the line keeps its recency position.
func TestMergeWritebackSetsDirty(t *testing.T) {
	c := small()
	a, b := mem.LineAddr(0), mem.LineAddr(4)
	access(c, a, 0, false)
	access(c, b, 0, false)
	c.MergeWriteback(a, 0, mem.FootprintOfWord(3))
	if c.RecencyPosition(a) != 1 || c.Stats().Accesses != 2 {
		t.Fatalf("notice moved a to %d or counted an access (%d)", c.RecencyPosition(a), c.Stats().Accesses)
	}
	access(c, mem.LineAddr(8), 0, false) // evicts a
	if c.Stats().Writebacks != 1 {
		t.Error("dirty notice did not stick")
	}
}

// Under a partition a tenant at its quota evicts its own LRU-most
// line, not the global LRU line, and a tenant under its quota evicts
// the LRU-most line of an over-quota tenant.
func TestPartitionQuotaVictim(t *testing.T) {
	c := New(Config{Name: "q", SizeBytes: 4 * mem.LineSize, Ways: 4})
	c.SetPartition([]int{3, 1})
	a0, a1, a2, a3 := mem.LineAddr(0), mem.LineAddr(1), mem.LineAddr(2), mem.LineAddr(3)
	b, b2 := mem.LineAddr(10), mem.LineAddr(11)
	c.AccessInstallTenant(b, 0, false, 1)
	for _, l := range []mem.LineAddr{a0, a1, a2} {
		c.AccessInstallTenant(l, 0, false, 0)
	}
	// Set full, MRU-first: a2 a1 a0 b. Tenant 0 is at its quota.
	c.AccessInstallTenant(a3, 0, false, 0)
	if c.Lookup(a0) || !c.Lookup(b) {
		t.Fatal("tenant at quota should evict its own LRU line a0, not the global LRU b")
	}
	// Shrink tenant 0 to one way: tenant 1, under quota, takes the
	// LRU-most line of over-quota tenant 0 (a1), sparing its own b.
	c.SetPartition([]int{1, 3})
	c.AccessInstallTenant(b2, 0, false, 1)
	if c.Lookup(a1) || !c.Lookup(b) || !c.Lookup(a2) || !c.Lookup(a3) {
		t.Fatal("under-quota tenant should evict the over-quota tenant's LRU line a1")
	}
	// Without a partition the victim is the global LRU line again.
	c.SetPartition(nil)
	c.AccessInstallTenant(a0, 0, false, 0)
	if c.Lookup(b) {
		t.Error("unpartitioned miss should evict the global LRU line b")
	}
}

func TestMaxFPPosTracking(t *testing.T) {
	// 1 set, 4 ways: place a, then bury it to position 2, then touch a
	// new word -> MaxFPPos should be 2.
	c := New(Config{Name: "p", SizeBytes: 4 * mem.LineSize, Ways: 4})
	a := mem.LineAddr(0)
	access(c, a, 0, false)
	access(c, mem.LineAddr(1), 0, false)
	access(c, mem.LineAddr(2), 0, false)
	if pos := c.RecencyPosition(a); pos != 2 {
		t.Fatalf("a at position %d, want 2", pos)
	}
	access(c, a, 3, false) // footprint change at position 2
	access(c, mem.LineAddr(3), 0, false)
	access(c, mem.LineAddr(4), 0, false)
	access(c, mem.LineAddr(5), 0, false)
	// a is LRU now; next miss evicts it.
	access(c, mem.LineAddr(6), 0, false)
	if c.Lookup(a) {
		t.Fatal("a should have been evicted")
	}
	if got := c.Stats().FPChangePos.Count(2); got != 1 {
		t.Errorf("FPChangePos[2] = %d, want 1 (%v)", got, c.Stats().FPChangePos)
	}
}

func TestAccessSameWordDoesNotRaiseMaxPos(t *testing.T) {
	c := New(Config{Name: "p", SizeBytes: 4 * mem.LineSize, Ways: 4})
	a := mem.LineAddr(0)
	access(c, a, 0, false)
	access(c, mem.LineAddr(1), 0, false)
	access(c, mem.LineAddr(2), 0, false)
	access(c, a, 0, false) // same word at depth: footprint unchanged
	for i := 3; i < 7; i++ {
		access(c, mem.LineAddr(i), 0, false)
	}
	h := c.Stats().FPChangePos
	if h.Total() != h.Count(0) {
		t.Errorf("all footprint changes should be at position 0: %v", h)
	}
}

func TestVisitLines(t *testing.T) {
	c := small()
	want := map[mem.LineAddr]bool{1: true, 2: true, 5: true}
	for l := range want {
		access(c, l, 0, false)
	}
	got := map[mem.LineAddr]bool{}
	c.VisitLines(func(l mem.LineAddr, fp mem.Footprint) {
		got[l] = true
		if fp.Count() != 1 {
			t.Errorf("line %v footprint %v", l, fp)
		}
	})
	if len(got) != len(want) {
		t.Errorf("visited %v, want %v", got, want)
	}
	for l := range want {
		if !got[l] {
			t.Errorf("line %v not visited", l)
		}
	}
}

func TestHitRate(t *testing.T) {
	c := small()
	access(c, 0, 0, false)
	access(c, 0, 0, false)
	if hr := c.Stats().HitRate(); hr != 0.5 {
		t.Errorf("HitRate = %v, want 0.5", hr)
	}
	var empty Stats
	if empty.HitRate() != 0 {
		t.Error("empty HitRate should be 0")
	}
}

// Property: after any access sequence through the demand path every
// experiment runs (AccessInstallTenant, tenant 0, no quota), each
// access hits exactly when a shadow LRU model of the most recent Ways
// distinct lines per set holds the line, and Lookup agrees with that
// model at the end.
func TestLRUMatchesReferenceModel(t *testing.T) {
	f := func(seq []uint16) bool {
		const sets, ways = 4, 2
		c := New(Config{Name: "ref", SizeBytes: sets * ways * mem.LineSize, Ways: ways})
		geom, _ := mem.NewGeometry(sets*ways*mem.LineSize, ways)
		// Reference: per set, slice of lines MRU-first.
		ref := make([][]mem.LineAddr, sets)
		for _, raw := range seq {
			line := mem.LineAddr(raw % 64)
			si := geom.SetIndex(line)
			// reference access
			found := -1
			for i, l := range ref[si] {
				if l == line {
					found = i
					break
				}
			}
			hit := access(c, line, 0, false)
			if (found >= 0) != hit {
				return false
			}
			if found >= 0 {
				ref[si] = append([]mem.LineAddr{line}, append(ref[si][:found], ref[si][found+1:]...)...)
			} else {
				ref[si] = append([]mem.LineAddr{line}, ref[si]...)
				if len(ref[si]) > ways {
					ref[si] = ref[si][:ways]
				}
			}
		}
		// Final contents agree.
		for si := 0; si < sets; si++ {
			for _, l := range ref[si] {
				if !c.Lookup(l) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestLineRecordSize pins the tag record at 8 bytes, so a field that
// re-pads it fails here.
func TestLineRecordSize(t *testing.T) {
	if got := unsafe.Sizeof(Line{}); got != 8 {
		t.Errorf("Line is %d bytes, want 8", got)
	}
}

// refLine is one entry of refSet, the reference model of a set: plain
// fields, the full line address, nothing packed.
type refLine struct {
	line     mem.LineAddr
	fp       mem.Footprint
	dirty    bool
	maxFPPos int
}

// TestMatchesReferenceAcrossLineSpace drives random reads, writes and
// L1D writeback notices over lines drawn from the whole 34-bit line
// space through 1-set and 4-set caches and a reference model of plain
// per-set slices, and after every call compares hit or miss, each
// set's contents way by way (line, footprint, dirty bit, MaxFPPos)
// and the eviction, writeback and histogram counters. The line pool
// holds groups of lines that differ only in bits 32-33, which the
// packed tag keeps outside its 32-bit field.
func TestMatchesReferenceAcrossLineSpace(t *testing.T) {
	for _, geo := range []struct{ sets, ways int }{{1, 4}, {4, 2}} {
		for seed := uint64(1); seed <= 20; seed++ {
			x := seed * 0x9e3779b97f4a7c15
			next := func() uint64 {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				return x
			}
			pool := []mem.LineAddr{0, 1<<mem.LineBits - 1}
			for range 3 {
				low := next() & (1<<32 - 1)
				for hi := uint64(0); hi < 4; hi++ {
					pool = append(pool, mem.LineAddr(hi<<32|low))
				}
			}
			c := New(Config{Name: "ref", SizeBytes: geo.sets * geo.ways * mem.LineSize, Ways: geo.ways})
			ref := make([][]refLine, geo.sets)
			var evictions, writebacks uint64
			words := make([]uint64, mem.WordsPerLine+1)
			fpPos := make([]uint64, geo.ways)
			for call := 0; call < 400; call++ {
				r := next()
				line := pool[r%uint64(len(pool))]
				word := int(r >> 8 % mem.WordsPerLine)
				si := int(uint64(line) % uint64(geo.sets))
				set := ref[si]
				pos := slices.IndexFunc(set, func(e refLine) bool { return e.line == line })
				if r>>16%4 == 3 {
					// An L1D writeback notice: two used words, one of
					// them dirty when bit 20 is set.
					fp := mem.FootprintOfWord(word) | mem.FootprintOfWord((word+3)%8)
					var dirty mem.Footprint
					if r>>20&1 != 0 {
						dirty = mem.FootprintOfWord(word)
					}
					c.MergeWriteback(line, fp, dirty)
					if pos >= 0 {
						e := &set[pos]
						if e.fp|fp != e.fp {
							e.fp |= fp
							e.maxFPPos = max(e.maxFPPos, pos)
						}
						e.dirty = e.dirty || dirty != 0
					}
				} else {
					write := r>>16%4 == 2
					if hit := access(c, line, word, write); hit != (pos >= 0) {
						t.Fatalf("%d sets, seed %d, call %d: access(%v) hit %v, reference %v", geo.sets, seed, call, line, hit, pos >= 0)
					}
					if pos >= 0 {
						e := set[pos]
						if !e.fp.Has(word) {
							e.fp = e.fp.Set(word)
							e.maxFPPos = max(e.maxFPPos, pos)
						}
						e.dirty = e.dirty || write
						set = append(append([]refLine{e}, set[:pos]...), set[pos+1:]...)
					} else {
						if len(set) == geo.ways {
							v := set[len(set)-1]
							set = set[:len(set)-1]
							evictions++
							words[v.fp.Count()]++
							fpPos[v.maxFPPos]++
							if v.dirty {
								writebacks++
							}
						}
						set = append([]refLine{{line: line, fp: mem.FootprintOfWord(word), dirty: write}}, set...)
					}
					ref[si] = set
				}
				for s := range ref {
					ways := c.set(s)
					for p := range ways {
						l := &ways[p]
						if p >= len(ref[s]) {
							if l.Valid() {
								t.Fatalf("%d sets, seed %d, call %d: set %d way %d valid, reference empty", geo.sets, seed, call, s, p)
							}
							continue
						}
						e := ref[s][p]
						got := refLine{c.geom.Line(l.Tag(), s), l.Footprint(), l.Dirty() != 0, l.MaxFPPos()}
						if !l.Valid() || got != e {
							t.Fatalf("%d sets, seed %d, call %d: set %d way %d = %+v (valid %v), reference %+v", geo.sets, seed, call, s, p, got, l.Valid(), e)
						}
					}
				}
				st := c.Stats()
				if st.Evictions != evictions || st.Writebacks != writebacks {
					t.Fatalf("%d sets, seed %d, call %d: %d evictions %d writebacks, reference %d %d", geo.sets, seed, call, st.Evictions, st.Writebacks, evictions, writebacks)
				}
				for i, n := range words {
					if st.WordsUsedAtEvict.Count(i) != n {
						t.Fatalf("%d sets, seed %d, call %d: words-used bucket %d = %d, reference %d", geo.sets, seed, call, i, st.WordsUsedAtEvict.Count(i), n)
					}
				}
				for i, n := range fpPos {
					if st.FPChangePos.Count(i) != n {
						t.Fatalf("%d sets, seed %d, call %d: fp-change bucket %d = %d, reference %d", geo.sets, seed, call, i, st.FPChangePos.Count(i), n)
					}
				}
			}
		}
	}
}

// A line beyond the 34-bit line space has no packed tag: installing
// one panics instead of truncating its tag onto another line's.
func TestInstallBeyondLineSpacePanics(t *testing.T) {
	for _, sets := range []int{1, 4} {
		c := New(Config{Name: "big", SizeBytes: sets * 2 * mem.LineSize, Ways: 2})
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%d sets: installing line 1<<34 did not panic", sets)
				}
			}()
			access(c, 1<<mem.LineBits, 0, false)
		}()
	}
}
