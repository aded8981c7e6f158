package cache_test

import (
	"fmt"
	"slices"
	"testing"

	"ldis/internal/cache"
	"ldis/internal/exp"
	"ldis/internal/hierarchy"
	"ldis/internal/mem"
	"ldis/internal/workload"
)

// oracleLine is one way of the oracle's per-set LRU stack: the line,
// its footprint, whether it was written, and the deepest stack
// position at which its footprint grew.
type oracleLine struct {
	line  mem.LineAddr
	fp    mem.Footprint
	dirty bool
	fpPos int
}

// lruOracle is a plain per-set LRU stack, written from the definition:
// a line hits iff it is among its set's last Ways distinct lines, a
// hit moves it to the top, and a miss pushes it there and drops the
// bottom line once the set holds Ways. It keeps the counters
// cache.Stats reports for evictions.
type lruOracle struct {
	ways       int
	sets       [][]oracleLine // MRU first
	writebacks uint64
	words      [mem.WordsPerLine + 1]uint64 // footprint popcount of evicted lines
	fpPos      []uint64                     // fp-change position of evicted lines
}

func newOracle(cfg cache.Config) *lruOracle {
	return &lruOracle{ways: cfg.Ways, sets: make([][]oracleLine, cfg.Sets()), fpPos: make([]uint64, cfg.Ways)}
}

func (o *lruOracle) set(la mem.LineAddr) *[]oracleLine {
	return &o.sets[uint64(la)%uint64(len(o.sets))]
}

func (o *lruOracle) access(la mem.LineAddr, word int, write bool) bool {
	s := o.set(la)
	pos := slices.IndexFunc(*s, func(e oracleLine) bool { return e.line == la })
	e := oracleLine{line: la, fp: mem.FootprintOfWord(word), dirty: write}
	if pos >= 0 {
		e = (*s)[pos]
		if !e.fp.Has(word) {
			e.fp, e.fpPos = e.fp.Set(word), max(e.fpPos, pos)
		}
		e.dirty = e.dirty || write
		*s = slices.Delete(*s, pos, pos+1)
	} else if len(*s) == o.ways {
		v := (*s)[o.ways-1]
		*s = (*s)[:o.ways-1]
		o.words[v.fp.Count()]++
		o.fpPos[v.fpPos]++
		if v.dirty {
			o.writebacks++
		}
	}
	*s = slices.Insert(*s, 0, e)
	return pos >= 0
}

func (o *lruOracle) merge(la mem.LineAddr, fp, dirty mem.Footprint) {
	s := *o.set(la)
	if pos := slices.IndexFunc(s, func(e oracleLine) bool { return e.line == la }); pos >= 0 {
		e := &s[pos]
		if e.fp|fp != e.fp {
			e.fp, e.fpPos = e.fp|fp, max(e.fpPos, pos)
		}
		e.dirty = e.dirty || dirty != 0
	}
}

// lruTwin drives a cache.Cache and the oracle with the same calls and
// fails at the first call after which hit or miss, Writebacks, or a
// WordsUsedAtEvict or FPChangePos bucket differ. It is a hierarchy.L2
// built as hierarchy.TradL2 is, so a System's L1D produces the calls
// exactly as in a simulation.
type lruTwin struct {
	tb    testing.TB
	c     *cache.Cache
	o     *lruOracle
	calls int
}

func (w *lruTwin) Access(la mem.LineAddr, word int, _ mem.Addr, write bool) (hierarchy.Class, mem.Footprint) {
	hit := w.c.AccessInstallTenant(la, word, write, 0)
	if want := w.o.access(la, word, write); hit != want {
		w.tb.Fatalf("call %d: access(%v, word %d, write %v) hit %v, oracle %v", w.calls, la, word, write, hit, want)
	}
	w.check()
	if hit {
		return hierarchy.L2Hit, mem.FullFootprint
	}
	return hierarchy.L2Miss, mem.FullFootprint
}

func (w *lruTwin) AccessInstr(la mem.LineAddr, pc mem.Addr) (hierarchy.Class, mem.Footprint) {
	return w.Access(la, 0, pc, false)
}

func (w *lruTwin) WritebackFromL1(la mem.LineAddr, fp, dirty mem.Footprint) {
	w.c.MergeWriteback(la, fp|dirty, dirty)
	w.o.merge(la, fp|dirty, dirty)
	w.check()
}

func (w *lruTwin) Misses() uint64   { return w.c.Stats().Misses }
func (w *lruTwin) Accesses() uint64 { return w.c.Stats().Accesses }

func (w *lruTwin) check() {
	w.calls++
	st := w.c.Stats()
	if st.Writebacks != w.o.writebacks {
		w.tb.Fatalf("call %d: %d writebacks, oracle %d", w.calls, st.Writebacks, w.o.writebacks)
	}
	for i, n := range w.o.words {
		if st.WordsUsedAtEvict.Count(i) != n {
			w.tb.Fatalf("call %d: words-used bucket %d = %d, oracle %d", w.calls, i, st.WordsUsedAtEvict.Count(i), n)
		}
	}
	for i, n := range w.o.fpPos {
		if st.FPChangePos.Count(i) != n {
			w.tb.Fatalf("call %d: fp-change bucket %d = %d, oracle %d", w.calls, i, st.FPChangePos.Count(i), n)
		}
	}
}

// TestCacheMatchesLRUOracle runs every bundled benchmark's first 200k
// accesses through an L1D over the traditional cache and over the
// per-set LRU oracle, at base-1MB's geometry and at 64kB 8-way (128
// sets, where the sets fill and evict within the run).
func TestCacheMatchesLRUOracle(t *testing.T) {
	n := 200_000
	if testing.Short() {
		n = 20_000
	}
	for _, bench := range workload.Names() {
		prof, err := workload.ByName(bench)
		if err != nil {
			t.Fatal(err)
		}
		sys, err := exp.Build("base-1MB", bench, nil)
		if err != nil {
			t.Fatal(err)
		}
		base := sys.L2.(*hierarchy.TradL2).C.Config()
		small := base
		small.SizeBytes = 64 << 10
		for _, cfg := range []cache.Config{base, small} {
			t.Run(fmt.Sprintf("%s/%dkB", bench, cfg.SizeBytes>>10), func(t *testing.T) {
				w := &lruTwin{tb: t, c: cache.New(cfg), o: newOracle(cfg)}
				if got := hierarchy.NewSystem(w).Run(prof.Stream(), n); got != n {
					t.Fatalf("ran %d accesses, want %d", got, n)
				}
				if w.c.Stats().Evictions == 0 && cfg.SizeBytes == small.SizeBytes {
					t.Errorf("no evictions at %dkB: the run does not exercise replacement", cfg.SizeBytes>>10)
				}
			})
		}
	}
}
