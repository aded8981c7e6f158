// Package sfp implements the Spatial Footprint Predictor comparator of
// the paper's related-work evaluation (Section 9, Figure 13), after
// Kumar & Wilkerson [9]: a predictor table, indexed by the miss PC and
// line offset, predicts which words of a line will be used; only those
// words are installed, in a decoupled word-organized store with the
// same tag-entry count as the distill cache. Prediction happens at
// *install* time (so a misprediction turns a would-be hit into a miss),
// and the predictor is trained with the observed footprint when a line
// is evicted — the structural contrast with LDIS, which filters only at
// eviction time.
package sfp

import (
	"fmt"

	"ldis/internal/mem"
	"ldis/internal/sampler"
	"ldis/internal/wordstore"
)

// Config describes an SFP cache.
type Config struct {
	Name      string
	SizeBytes int
	Ways      int // data ways per set (baseline 8)

	// PredictorEntries sizes the footprint history table: the paper
	// evaluates 16k entries (64kB) and 64k entries (256kB).
	PredictorEntries int

	// TagsPerSet bounds resident lines per set; the paper gives the
	// decoupled sectored cache the same number of tag entries as the
	// distill cache (6 line tags + 16 word tags = 22 for the baseline).
	TagsPerSet int

	// Reverter adds the same set-sampling fallback the paper added to
	// SFP to limit its MPKI increases.
	Reverter bool

	Seed          uint64
	SamplerConfig *sampler.Config
}

// DefaultConfig returns the paper's SFP-64kB configuration matched to
// the baseline distill cache.
func DefaultConfig() Config {
	return Config{
		Name:             "sfp",
		SizeBytes:        1 << 20,
		Ways:             8,
		PredictorEntries: 16 << 10,
		TagsPerSet:       6 + 2*mem.WordsPerLine,
		Reverter:         true,
		Seed:             1,
	}
}

// Sets returns the number of sets.
func (c Config) Sets() int { return c.SizeBytes / (mem.LineSize * c.Ways) }

// Validate checks structural invariants.
func (c Config) Validate() error {
	if c.Ways <= 0 || c.Ways > wordstore.MaxWays {
		return fmt.Errorf("sfp %q: ways %d not in [1, %d]", c.Name, c.Ways, wordstore.MaxWays)
	}
	if _, err := mem.NewGeometry(c.SizeBytes, c.Ways); err != nil {
		return fmt.Errorf("sfp %q: %w", c.Name, err)
	}
	if c.PredictorEntries <= 0 || c.PredictorEntries&(c.PredictorEntries-1) != 0 {
		return fmt.Errorf("sfp %q: predictor entries %d must be a positive power of two", c.Name, c.PredictorEntries)
	}
	if c.TagsPerSet <= 0 {
		return fmt.Errorf("sfp %q: TagsPerSet must be positive", c.Name)
	}
	return nil
}

// predEntry is one footprint-history-table entry: a partial tag to
// filter aliases and the last observed footprint.
type predEntry struct {
	valid bool
	tag   uint8
	fp    mem.Footprint
}

// lineMeta tracks per-resident-line training state: the words actually
// observed used during this residency and the PC that installed it.
type lineMeta struct {
	observed mem.Footprint
	pc       mem.Addr
	lastUse  uint64
}

// metaEntry pairs a resident tag with its training state.
type metaEntry struct {
	tag uint64
	m   lineMeta
}

// metaTable holds per-line training state as a linear-scan table, one
// entry per resident line. Sets hold at most TagsPerSet lines (single
// digits to low tens), so a scan beats a map lookup and — with the
// table preallocated at full capacity — keeps the access path
// allocation-free.
type metaTable struct {
	entries []metaEntry
}

//ldis:noalloc
func (t *metaTable) find(tag uint64) int {
	for i := range t.entries {
		if t.entries[i].tag == tag {
			return i
		}
	}
	return -1
}

// get returns the entry for tag, or the zero lineMeta when absent
// (mirroring map-read semantics).
//
//ldis:noalloc
func (t *metaTable) get(tag uint64) lineMeta {
	if i := t.find(tag); i >= 0 {
		return t.entries[i].m
	}
	return lineMeta{}
}

//ldis:noalloc
func (t *metaTable) lookup(tag uint64) (lineMeta, bool) {
	if i := t.find(tag); i >= 0 {
		return t.entries[i].m, true
	}
	return lineMeta{}, false
}

// put overwrites tag's entry, appending one when absent. The table is
// preallocated at the tag budget, so the append never grows it.
//
//ldis:noalloc
func (t *metaTable) put(tag uint64, m lineMeta) {
	if i := t.find(tag); i >= 0 {
		t.entries[i].m = m
		return
	}
	t.entries = append(t.entries, metaEntry{tag: tag, m: m})
}

// del removes tag's entry by swap-remove; order is immaterial.
//
//ldis:noalloc
func (t *metaTable) del(tag uint64) {
	if i := t.find(tag); i >= 0 {
		t.entries[i] = t.entries[len(t.entries)-1]
		t.entries = t.entries[:len(t.entries)-1]
	}
}

func (t *metaTable) len() int { return len(t.entries) }

// Stats counts SFP cache behaviour. Hole misses here are accesses to
// words the predictor chose not to install.
type Stats struct {
	Accesses   uint64
	Hits       uint64
	HoleMisses uint64
	LineMisses uint64
	Writebacks uint64
	Evictions  uint64

	PredictorHits     uint64 // predictions served from a matching entry
	PredictorDefaults uint64 // cold/aliased lookups (predict all words)
}

// Misses returns the total miss count.
func (s *Stats) Misses() uint64 { return s.HoleMisses + s.LineMisses }

// Cache is the SFP-filtered decoupled word-organized cache.
type Cache struct {
	cfg   Config
	geom  mem.Geometry
	store wordstore.Store
	meta  []metaTable // one per set
	table []predEntry
	smp   *sampler.Sampler
	st    Stats
	rng   uint64
	tick  uint64
}

// New builds the cache; panics on invalid config.
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	geom, _ := mem.NewGeometry(cfg.SizeBytes, cfg.Ways) // Validate accepted it
	c := &Cache{cfg: cfg, geom: geom, rng: cfg.Seed | 1}
	// Per-set metadata tables are carved from one backing array:
	// construction cost scales with the number of arenas, not the
	// number of sets.
	numSets := geom.Sets()
	c.store = wordstore.NewStore(cfg.Ways, numSets, false)
	c.meta = make([]metaTable, numSets)
	metaArena := make([]metaEntry, numSets*cfg.TagsPerSet)
	for i := range c.meta {
		c.meta[i].entries = metaArena[i*cfg.TagsPerSet : i*cfg.TagsPerSet : (i+1)*cfg.TagsPerSet]
	}
	c.table = make([]predEntry, cfg.PredictorEntries)
	if cfg.Reverter {
		sc := sampler.DefaultConfig(cfg.Sets())
		if cfg.SamplerConfig != nil {
			sc = *cfg.SamplerConfig
		}
		c.smp = sampler.New(sc)
	}
	return c
}

// Stats returns the live counters.
func (c *Cache) Stats() *Stats { return &c.st }

// Sampler exposes the reverter's sampler (nil when disabled).
func (c *Cache) Sampler() *sampler.Sampler { return c.smp }

func (c *Cache) nextRand() uint64 {
	x := c.rng
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	c.rng = x
	return x * 0x2545f4914f6cdd1d
}

func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// predIndex hashes (pc, line) into the footprint history table; the
// upper hash bits form the alias-filter tag.
func (c *Cache) predIndex(pc mem.Addr, la mem.LineAddr) (int, uint8) {
	h := mix(uint64(pc)>>2 ^ uint64(la)<<17)
	return int(h % uint64(len(c.table))), uint8(h >> 48)
}

// predict returns the footprint to install for a line missed by pc.
// Cold or aliased entries default to the full line (which makes an
// untrained SFP behave like the traditional cache).
func (c *Cache) predict(pc mem.Addr, la mem.LineAddr) mem.Footprint {
	idx, tag := c.predIndex(pc, la)
	e := c.table[idx]
	if e.valid && e.tag == tag && e.fp != 0 {
		c.st.PredictorHits++
		return e.fp
	}
	c.st.PredictorDefaults++
	return mem.FullFootprint
}

// train records the observed footprint for (pc, line).
func (c *Cache) train(pc mem.Addr, la mem.LineAddr, observed mem.Footprint) {
	if observed == 0 {
		return
	}
	idx, tag := c.predIndex(pc, la)
	c.table[idx] = predEntry{valid: true, tag: tag, fp: observed}
}

// Access performs a demand access. The returned mask is the set of
// words the L1D receives (the installed prediction on misses, which
// always includes the demand word).
//
//ldis:noalloc
func (c *Cache) Access(la mem.LineAddr, word int, pc mem.Addr, write bool) (hit bool, valid mem.Footprint) {
	c.st.Accesses++
	si := c.geom.SetIndex(la)
	meta := &c.meta[si]
	leader := false
	forceFull := false
	if c.smp != nil {
		leader = c.smp.IsLeader(si)
		c.smp.ObserveATD(si, la)
		// Followers of a disabled SFP install full lines, which makes
		// the set behave like a traditional word-organized cache.
		forceFull = !leader && !c.smp.Enabled()
	}
	tag := c.geom.Tag(la)
	if idx := c.store.Find(si, tag); idx >= 0 {
		l := &c.store.Lines(si)[idx]
		m := meta.get(tag)
		if l.Words.Has(word) {
			c.st.Hits++
			c.tick++
			m.observed = m.observed.Set(word)
			m.lastUse = c.tick
			meta.put(tag, m)
			if write {
				l.Dirty = l.Dirty.Set(word)
			}
			return true, l.Words
		}
		// The predictor filtered out a word that is now needed: a miss
		// the traditional cache would not have had. Train, invalidate,
		// and refetch with an updated prediction.
		c.st.HoleMisses++
		if leader {
			c.smp.RecordPolicyMiss(si)
		}
		removed := c.store.RemoveAt(si, idx)
		if removed.Dirty != 0 {
			c.st.Writebacks++
		}
		meta.del(tag)
		c.train(m.pc, la, m.observed.Set(word))
		return false, c.install(si, la, word, pc, write, forceFull)
	}
	c.st.LineMisses++
	if leader {
		c.smp.RecordPolicyMiss(si)
	}
	return false, c.install(si, la, word, pc, write, forceFull)
}

// install fetches the line and places the predicted words.
//
//ldis:noalloc
func (c *Cache) install(si int, la mem.LineAddr, word int, pc mem.Addr, write, forceFull bool) mem.Footprint {
	fp := mem.FullFootprint
	if !forceFull {
		fp = c.predict(pc, la).Set(word)
	}
	nl := wordstore.Line{
		Tag:   c.geom.Tag(la),
		Words: fp,
		Slots: uint8(mem.Pow2WordsFor(fp.Count())),
	}
	if write {
		nl.Dirty = mem.FootprintOfWord(word)
	}
	// The decoupled sectored cache replaces in LRU order (unlike the
	// WOC's random policy): evict least-recently-used lines until an
	// aligned region of the required size is free and the tag budget
	// holds. This also makes the reverter's full-install fallback
	// behave like the traditional LRU baseline.
	for len(c.store.Lines(si)) > 0 &&
		(!c.store.HasFreeRegion(si, int(nl.Slots)) || len(c.store.Lines(si))+1 > c.cfg.TagsPerSet) {
		c.evicted(si, c.store.RemoveAt(si, c.lruIndex(si)))
	}
	for _, ev := range c.store.Install(si, nl, c.nextRand(), 0) {
		c.evicted(si, ev)
	}
	c.tick++
	c.meta[si].put(nl.Tag, lineMeta{observed: mem.FootprintOfWord(word), pc: pc, lastUse: c.tick})
	return fp
}

// lruIndex returns the index of the least-recently-used resident line.
//
//ldis:noalloc
func (c *Cache) lruIndex(si int) int {
	best, bestUse := 0, ^uint64(0)
	lines := c.store.Lines(si)
	for i := range lines {
		if u := c.meta[si].get(lines[i].Tag).lastUse; u < bestUse {
			best, bestUse = i, u
		}
	}
	return best
}

// evicted trains the predictor with the line's observed footprint and
// accounts for dirty writebacks.
func (c *Cache) evicted(si int, l wordstore.Line) {
	c.st.Evictions++
	if l.Dirty != 0 {
		c.st.Writebacks++
	}
	if m, ok := c.meta[si].lookup(l.Tag); ok {
		c.train(m.pc, c.geom.Line(l.Tag, si), m.observed)
		c.meta[si].del(l.Tag)
	}
}

// WritebackFromL1 accepts an L1D eviction notice, mirroring the distill
// cache's interface: observed words train the residency, dirty words
// for stored entries stay, unstored dirty words go to memory.
//
//ldis:noalloc
func (c *Cache) WritebackFromL1(la mem.LineAddr, footprint, dirty mem.Footprint) {
	footprint = footprint.Or(dirty)
	si := c.geom.SetIndex(la)
	tag := c.geom.Tag(la)
	if idx := c.store.Find(si, tag); idx >= 0 {
		l := &c.store.Lines(si)[idx]
		meta := &c.meta[si]
		m := meta.get(tag)
		m.observed = m.observed.Or(footprint & l.Words)
		meta.put(tag, m)
		l.Dirty = l.Dirty.Or(dirty & l.Words)
		if dirty&^l.Words != 0 {
			c.st.Writebacks++
		}
		return
	}
	if dirty != 0 {
		c.st.Writebacks++
	}
}

// Present reports whether the line is resident; StoredWords returns its
// word mask (0 if absent). For tests.
func (c *Cache) Present(la mem.LineAddr) bool { return c.StoredWords(la) != 0 }

// StoredWords returns the stored-word mask of the line, or 0 if absent.
func (c *Cache) StoredWords(la mem.LineAddr) mem.Footprint {
	si := c.geom.SetIndex(la)
	if idx := c.store.Find(si, c.geom.Tag(la)); idx >= 0 {
		return c.store.Lines(si)[idx].Words
	}
	return 0
}

// PredictorStorageBytes returns the history table's cost (4B/entry as
// in the paper: 16k entries = 64kB).
func (c *Cache) PredictorStorageBytes() int { return c.cfg.PredictorEntries * 4 }

// CheckInvariants validates internal consistency; tests call it after
// stress runs.
func (c *Cache) CheckInvariants() error {
	for i := range c.meta {
		if err := c.store.CheckInvariants(i); err != nil {
			return fmt.Errorf("set %d: %v", i, err)
		}
		lines := c.store.Lines(i)
		if len(lines) > c.cfg.TagsPerSet {
			return fmt.Errorf("set %d: %d lines exceed tag budget %d", i, len(lines), c.cfg.TagsPerSet)
		}
		for _, l := range lines {
			if _, ok := c.meta[i].lookup(l.Tag); !ok {
				return fmt.Errorf("set %d: line %x missing metadata", i, l.Tag)
			}
		}
		if c.meta[i].len() != len(lines) {
			return fmt.Errorf("set %d: %d meta entries for %d lines", i, c.meta[i].len(), len(lines))
		}
	}
	return nil
}
