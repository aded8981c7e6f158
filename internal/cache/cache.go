// Package cache implements a traditional set-associative cache with LRU
// replacement — the paper's baseline L2 organization (Table 1) — plus
// the per-line footprint instrumentation the motivation experiments need
// (Figures 1 and 2) and optional per-tenant way partitioning. Its LRU
// tag array (Set, of Line records) is also the distill cache's LOC and
// the reverter's ATD.
package cache

import (
	"fmt"
	"math"

	"ldis/internal/mem"
	"ldis/internal/obs"
	"ldis/internal/stats"
)

// Config describes a traditional cache.
type Config struct {
	// Name labels the cache in stats output.
	Name string
	// SizeBytes is the data capacity (must be sets*ways*64).
	SizeBytes int
	// Ways is the associativity.
	Ways int
	// WayMemo, when non-nil, enables the way-memoization memo buffer
	// (see WayMemoConfig): per-set last-hit-way tracking whose hit/skip
	// counters feed costmodel.WayMemoEnergy. Functional behaviour is
	// unchanged.
	WayMemo *WayMemoConfig
	// Obs, when non-nil, receives eviction/writeback counters for the
	// owning grid cell. Counters land on the install (miss) path only —
	// the per-access hit path stays untouched — and the handles no-op
	// when Obs is nil, so disabled observability costs one branch per
	// eviction.
	Obs *obs.Cell
}

// Sets returns the number of sets implied by the config.
func (c Config) Sets() int { return c.SizeBytes / (mem.LineSize * c.Ways) }

// maxWays bounds Ways: a line records the deepest recency position
// its footprint changed at, up to Ways-1, in one byte (Line.MaxFPPos).
const maxWays = math.MaxUint8 + 1

// Validate checks structural invariants: the set geometry
// (mem.NewGeometry), the way bound and the way-memo parameters.
func (c Config) Validate() error {
	if _, err := mem.NewGeometry(c.SizeBytes, c.Ways); err != nil {
		return fmt.Errorf("cache %q: %w", c.Name, err)
	}
	if c.Ways > maxWays {
		return fmt.Errorf("cache %q: ways %d above %d", c.Name, c.Ways, maxWays)
	}
	if c.WayMemo != nil {
		if err := c.WayMemo.Validate(); err != nil {
			return fmt.Errorf("cache %q: %v", c.Name, err)
		}
	}
	return nil
}

// Stats aggregates the cache's behaviour.
type Stats struct {
	Accesses   uint64 //ldis:shard-owned
	Hits       uint64 //ldis:shard-owned
	Misses     uint64 //ldis:shard-owned
	Evictions  uint64 //ldis:shard-owned
	Writebacks uint64 //ldis:shard-owned

	// Way-memoization counters (Config.WayMemo; zero otherwise). The
	// memo buffer is per-set state, so these stay shard-owned and sum
	// exactly under the shard merge.
	MemoRefs          uint64 //ldis:shard-owned
	MemoHits          uint64 //ldis:shard-owned
	MemoProbesSkipped uint64 //ldis:shard-owned

	// WordsUsedAtEvict histograms footprint popcounts of evicted lines
	// (buckets 0..8); bucket 0 stays empty because installs mark the
	// demand word. This is Figure 1 and Table 6.
	WordsUsedAtEvict *stats.Histogram

	// FPChangePos histograms, per evicted line, the maximum recency
	// position at which its footprint changed (Figure 2).
	FPChangePos *stats.Histogram
}

// HitRate returns hits/accesses.
func (s *Stats) HitRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Accesses)
}

// Cache is a set-associative LRU cache over 64B lines.
type Cache struct {
	cfg  Config
	geom mem.Geometry
	// lines holds every set's ways, set si's at si*Ways, each set
	// ordered MRU-first.
	lines Set
	st    Stats

	// Per-tenant way quotas, installed by SetPartition and consulted
	// only on the AccessInstallTenant miss path.
	quota Quotas

	// Way-memoization state (Config.WayMemo; nil when disabled): one
	// tag arena of EntriesPerSet slots per set, plus a per-set validity
	// bitmask. Strictly per-set, so sharding composes untouched.
	memoTags  []uint64
	memoValid []uint64
	memoEPS   int
	memoShift uint

	// Observability handles, registered once at construction; nil when
	// the config carries no obs cell.
	obsEvictions   *obs.Counter
	obsWritebacks  *obs.Counter
	obsMemoHits    *obs.Counter
	obsMemoSkipped *obs.Counter
}

// New builds a cache; it panics on an invalid config (configs are
// programmer-supplied constants, not user input).
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	geom, _ := mem.NewGeometry(cfg.SizeBytes, cfg.Ways) // Validate accepted it
	numSets := geom.Sets()
	c := &Cache{cfg: cfg, geom: geom, lines: make([]Line, numSets*cfg.Ways)}
	// Histograms are allocated eagerly so the access path never tests
	// for them.
	c.st.WordsUsedAtEvict = stats.NewHistogram(cfg.Name+" words used", mem.WordsPerLine+1)
	c.st.FPChangePos = stats.NewHistogram(cfg.Name+" fp-change pos", cfg.Ways)
	if cfg.WayMemo != nil {
		wm := cfg.WayMemo.withDefaults()
		c.memoEPS = wm.EntriesPerSet
		c.memoTags = make([]uint64, numSets*c.memoEPS)
		c.memoValid = make([]uint64, numSets)
		c.memoShift = 64
		for n := c.memoEPS; n > 1; n >>= 1 {
			c.memoShift--
		}
	}
	c.obsEvictions = cfg.Obs.Counter("cache_evictions")
	c.obsWritebacks = cfg.Obs.Counter("cache_writebacks")
	c.obsMemoHits = cfg.Obs.Counter("cache_waymemo_hits")
	c.obsMemoSkipped = cfg.Obs.Counter("cache_waymemo_skipped_probes")
	return c
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a pointer to the live statistics.
func (c *Cache) Stats() *Stats { return &c.st }

// set returns set si's ways, MRU-first.
func (c *Cache) set(si int) Set {
	base := si * c.cfg.Ways
	return c.lines[base : base+c.cfg.Ways : base+c.cfg.Ways]
}

// Lookup reports whether the line is present without touching LRU state
// or stats (used by auxiliary structures and tests).
func (c *Cache) Lookup(line mem.LineAddr) bool { return c.RecencyPosition(line) >= 0 }

// SetPartition installs per-tenant way quotas for AccessInstallTenant
// (see Quotas.Set); it panics on quotas Set refuses. A nil or empty
// quota disables partitioning. Quotas may change at any time (the
// epoch re-balancer does): lines installed under the old allocation
// drain out through the over-quota victim rule rather than being
// flushed.
func (c *Cache) SetPartition(quota []int) {
	if err := c.quota.Set(quota, c.cfg.Ways); err != nil {
		panic(fmt.Sprintf("cache %q: %v", c.cfg.Name, err))
	}
}

// AccessInstallTenant performs a demand access for one word of a line
// on behalf of tenant (0 when unpartitioned), filling the line on a
// miss. A hit moves the line to MRU and updates its footprint; any
// tenant hits any resident line. A miss installs the line as MRU with
// the demand word's footprint bit set, in the LRU way or, under the
// quotas installed by SetPartition, the way Quotas.Victim picks. The
// victim's eviction and writeback are counted here. Returns whether the
// access hit.
//
//ldis:noalloc
func (c *Cache) AccessInstallTenant(line mem.LineAddr, word int, write bool, tenant int) bool {
	st := &c.st
	st.Accesses++
	si := c.geom.SetIndex(line)
	set := c.set(si)
	tag := c.geom.Tag(line)
	c.memoLookup(si, tag)
	// Hits never transfer ownership: the installing tenant keeps the
	// line against its quota.
	if set.Access(mem.KeyOf(tag), word, write) {
		st.Hits++
		c.memoRecord(si, tag)
		return true
	}
	st.Misses++
	var dirty mem.Footprint
	if write {
		dirty = mem.FootprintOfWord(word)
	}
	v := set.Install(set.Victim(&c.quota, tenant), NewLine(line, tag, mem.FootprintOfWord(word), dirty, tenant, false))
	if v.Valid() {
		st.Evictions++
		c.obsEvictions.Inc()
		st.WordsUsedAtEvict.Add(v.Footprint().Count())
		st.FPChangePos.Add(int(v.maxFPPos))
		if v.Dirty() != 0 {
			st.Writebacks++
			c.obsWritebacks.Inc()
		}
		c.memoInvalidate(si, v.Tag())
	}
	c.memoRecord(si, tag)
	return false
}

// MergeWriteback applies an L1D eviction notice to the resident copy, if
// any (Set.Merge): fp is ORed into the line's footprint (so the
// baseline's Figure 1 and 2 statistics see the full word-usage
// information; if new bits appear, the line's current recency position
// competes for MaxFPPos), and the notice's dirty words into its dirty
// words.
//
//ldis:noalloc
func (c *Cache) MergeWriteback(line mem.LineAddr, fp, dirty mem.Footprint) {
	c.set(c.geom.SetIndex(line)).Merge(mem.KeyOf(c.geom.Tag(line)), fp, dirty)
}

// VisitLines calls fn for every valid line (used by the compressibility
// sampling of Figure 10). The footprint passed is the line's current
// footprint.
func (c *Cache) VisitLines(fn func(line mem.LineAddr, fp mem.Footprint)) {
	for i := range c.lines {
		if l := &c.lines[i]; l.Valid() {
			fn(c.geom.Line(l.Tag(), i/c.cfg.Ways), l.Footprint())
		}
	}
}

// RecencyPosition returns the LRU-stack position of the line (0 = MRU)
// or -1 if absent; exposed for tests and the distill cache's auxiliary
// structures.
func (c *Cache) RecencyPosition(line mem.LineAddr) int {
	return c.set(c.geom.SetIndex(line)).Find(mem.KeyOf(c.geom.Tag(line)))
}

// Merge folds a sibling shard's counters into s: shards partition the
// line-address space, so plain sums (and bucket-wise histogram sums)
// reproduce the sequential totals exactly.
//
//ldis:noalloc
func (s *Stats) Merge(o *Stats) {
	s.Accesses += o.Accesses
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Evictions += o.Evictions
	s.Writebacks += o.Writebacks
	s.MemoRefs += o.MemoRefs
	s.MemoHits += o.MemoHits
	s.MemoProbesSkipped += o.MemoProbesSkipped
	s.WordsUsedAtEvict.Merge(o.WordsUsedAtEvict)
	s.FPChangePos.Merge(o.FPChangePos)
}
