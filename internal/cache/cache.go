// Package cache implements a traditional set-associative cache with LRU
// replacement — the paper's baseline L2 organization (Table 1) — plus
// the per-line footprint instrumentation the motivation experiments need
// (Figures 1 and 2) and optional per-tenant way partitioning.
package cache

import (
	"fmt"

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

// Validate checks structural invariants: power-of-two set count, at
// least one way.
func (c Config) Validate() error {
	if c.Ways <= 0 {
		return fmt.Errorf("cache %q: ways must be positive, got %d", c.Name, c.Ways)
	}
	sets := c.Sets()
	if sets <= 0 || sets*c.Ways*mem.LineSize != c.SizeBytes {
		return fmt.Errorf("cache %q: size %dB not divisible into %d ways of 64B lines", c.Name, c.SizeBytes, c.Ways)
	}
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache %q: set count %d not a power of two", c.Name, sets)
	}
	if c.WayMemo != nil {
		if err := c.WayMemo.Validate(); err != nil {
			return fmt.Errorf("cache %q: %v", c.Name, err)
		}
	}
	return nil
}

// MaxPartitionTenants bounds the tenants a partitioned cache can
// distinguish; way-quota bookkeeping fits fixed stack arrays at this
// size, keeping the enforcement path allocation-free.
const MaxPartitionTenants = 8

// Line is one tag entry. MaxFPPos tracks the maximum recency position
// the line occupied at any access that changed its footprint — the
// statistic behind the paper's Figure 2. Tenant records which sharer
// installed the line (always 0 outside partitioned mode). The tag
// comes first so the byte-sized fields pack after it: 16 bytes a line.
type Line struct {
	Tag       uint64
	Valid     bool
	Dirty     bool
	Footprint mem.Footprint
	MaxFPPos  uint8
	Tenant    uint8
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
	sets [][]Line // sets[i] ordered MRU-first
	st   Stats

	// Set-indexing geometry, precomputed at construction so the access
	// path does not rederive it (Config.Sets divides; LineAddr.Tag
	// shift-loops) on every access.
	setMask  uint64
	tagShift uint

	// Per-tenant way quotas (nil when unpartitioned). Installed by
	// SetPartition and consulted only on the AccessInstallTenant miss
	// path: hits are never restricted, matching way-partitioned
	// hardware, where partitioning constrains replacement, not lookup.
	quota []int32

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
	numSets := cfg.Sets()
	sets := make([][]Line, numSets)
	for i := range sets {
		sets[i] = make([]Line, cfg.Ways)
	}
	c := &Cache{cfg: cfg, sets: sets, setMask: uint64(numSets - 1)}
	for n := numSets; n > 1; n >>= 1 {
		c.tagShift++
	}
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

// setIndexOf and tagOf are the precomputed equivalents of
// mem.LineAddr.SetIndex/Tag for this cache's geometry.
func (c *Cache) setIndexOf(line mem.LineAddr) int { return int(uint64(line) & c.setMask) }
func (c *Cache) tagOf(line mem.LineAddr) uint64   { return uint64(line) >> c.tagShift }

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a pointer to the live statistics.
func (c *Cache) Stats() *Stats { return &c.st }

// Lookup reports whether the line is present without touching LRU state
// or stats (used by auxiliary structures and tests).
func (c *Cache) Lookup(line mem.LineAddr) bool {
	set := c.sets[c.setIndexOf(line)]
	tag := c.tagOf(line)
	for i := range set {
		if set[i].Valid && set[i].Tag == tag {
			return true
		}
	}
	return false
}

// promote moves the entry at pos to MRU, shifting the more recent
// entries down one position.
func (c *Cache) promote(set []Line, pos int, l Line) {
	copy(set[1:pos+1], set[0:pos])
	set[0] = l
}

// SetPartition installs per-tenant way quotas for AccessInstallTenant.
// quota[t] is the number of ways tenant t may occupy per set; the sum
// must not exceed the associativity. A nil or empty quota disables
// partitioning. Quotas may change at any time (the epoch re-balancer
// does): lines installed under the old allocation drain out through
// the over-quota victim rule rather than being flushed.
func (c *Cache) SetPartition(quota []int) {
	if len(quota) == 0 {
		c.quota = nil
		return
	}
	if len(quota) > MaxPartitionTenants {
		panic(fmt.Sprintf("cache %q: %d tenants exceed MaxPartitionTenants", c.cfg.Name, len(quota)))
	}
	sum := 0
	for t, q := range quota {
		if q < 0 {
			panic(fmt.Sprintf("cache %q: negative quota %d for tenant %d", c.cfg.Name, q, t))
		}
		sum += q
	}
	if sum > c.cfg.Ways {
		panic(fmt.Sprintf("cache %q: quota sum %d exceeds %d ways", c.cfg.Name, sum, c.cfg.Ways))
	}
	if c.quota == nil {
		c.quota = make([]int32, 0, MaxPartitionTenants)
	}
	c.quota = c.quota[:0]
	for _, q := range quota {
		c.quota = append(c.quota, int32(q))
	}
}

// AccessInstallTenant performs a demand access for one word of a line
// on behalf of tenant (0 when unpartitioned), filling the line on a
// miss. A hit moves the line to MRU and updates its footprint; any
// tenant hits any resident line. A miss installs the line as MRU with
// the demand word's footprint bit set, in the way chosen by the LRU
// rule — under the quotas installed by SetPartition, a tenant at or
// over its quota evicts its own LRU-most line and a tenant under it
// evicts the LRU-most line of an over-quota tenant. The victim's
// eviction and writeback are counted here; one set scan serves both
// the lookup and the install. Returns whether the access hit.
//
//ldis:noalloc
func (c *Cache) AccessInstallTenant(line mem.LineAddr, word int, write bool, tenant int) bool {
	st := &c.st
	st.Accesses++
	si := c.setIndexOf(line)
	set := c.sets[si]
	tag := c.tagOf(line)
	c.memoLookup(si, tag)
	// MRU fast path: a hit on way 0 needs no promotion (and cannot raise
	// MaxFPPos), so it updates the line in place. Hits never transfer
	// ownership: the installing tenant keeps the line against its quota.
	if l := &set[0]; l.Valid && l.Tag == tag {
		st.Hits++
		l.Footprint = l.Footprint.Set(word)
		if write {
			l.Dirty = true
		}
		c.memoRecord(si, tag)
		return true
	}
	for pos := 1; pos < len(set); pos++ {
		if !set[pos].Valid || set[pos].Tag != tag {
			continue
		}
		st.Hits++
		l := set[pos]
		if !l.Footprint.Has(word) {
			l.Footprint = l.Footprint.Set(word)
			if uint8(pos) > l.MaxFPPos {
				l.MaxFPPos = uint8(pos)
			}
		}
		if write {
			l.Dirty = true
		}
		c.promote(set, pos, l)
		c.memoRecord(si, tag)
		return true
	}
	st.Misses++
	victimPos := len(set) - 1
	if c.quota != nil {
		victimPos = c.partitionVictim(set, tenant)
	}
	if v := set[victimPos]; v.Valid {
		st.Evictions++
		c.obsEvictions.Inc()
		st.WordsUsedAtEvict.Add(v.Footprint.Count())
		st.FPChangePos.Add(int(v.MaxFPPos))
		if v.Dirty {
			st.Writebacks++
			c.obsWritebacks.Inc()
		}
		c.memoInvalidate(si, v.Tag)
	}
	c.promote(set, victimPos, Line{
		Valid:     true,
		Dirty:     write,
		Tag:       tag,
		Footprint: mem.FootprintOfWord(word),
		Tenant:    uint8(tenant),
	})
	c.memoRecord(si, tag)
	return false
}

// partitionVictim picks the way to replace for a missing tenant under
// the installed quotas. Invalid ways fill first; then the quota rule
// above. The global-LRU fallbacks are unreachable when quotas sum to
// the associativity and every tenant's quota is at least one, but a
// transient quota shrink can leave every other tenant exactly at its
// new quota — falling back to global LRU keeps the install total even
// then.
//
//ldis:noalloc
func (c *Cache) partitionVictim(set []Line, tenant int) int {
	var occ [MaxPartitionTenants]int32
	invalid := -1
	for pos := range set {
		if !set[pos].Valid {
			invalid = pos
			continue
		}
		occ[set[pos].Tenant]++
	}
	if invalid >= 0 {
		return invalid
	}
	if tenant < len(c.quota) && occ[tenant] >= c.quota[tenant] {
		for pos := len(set) - 1; pos >= 0; pos-- {
			if int(set[pos].Tenant) == tenant {
				return pos
			}
		}
		return len(set) - 1 // quota 0 and no resident line: take global LRU
	}
	for pos := len(set) - 1; pos >= 0; pos-- {
		t := set[pos].Tenant
		if int(t) >= len(c.quota) || occ[t] > c.quota[t] {
			return pos
		}
	}
	return len(set) - 1
}

// lineFromTag reconstructs a line address from a tag and set index.
func (c *Cache) lineFromTag(tag uint64, setIdx int) mem.LineAddr {
	return mem.LineAddr(tag<<c.tagShift | uint64(setIdx))
}

// MergeWriteback applies an L1D eviction notice to the resident copy, if
// any: fp is ORed into the line's footprint (so the baseline's Figure 1
// and 2 statistics see the full word-usage information; if new bits
// appear, the line's current recency position competes for MaxFPPos),
// and the line is marked dirty when the notice carries dirty words.
//
//ldis:noalloc
func (c *Cache) MergeWriteback(line mem.LineAddr, fp, dirty mem.Footprint) {
	set := c.sets[c.setIndexOf(line)]
	tag := c.tagOf(line)
	for pos := range set {
		if set[pos].Valid && set[pos].Tag == tag {
			e := &set[pos]
			if merged := e.Footprint.Or(fp); merged != e.Footprint {
				e.Footprint = merged
				if uint8(pos) > e.MaxFPPos {
					e.MaxFPPos = uint8(pos)
				}
			}
			if dirty != 0 {
				e.Dirty = true
			}
			return
		}
	}
}

// VisitLines calls fn for every valid line (used by the compressibility
// sampling of Figure 10). The footprint passed is the line's current
// footprint.
func (c *Cache) VisitLines(fn func(line mem.LineAddr, fp mem.Footprint)) {
	for si, set := range c.sets {
		for _, l := range set {
			if l.Valid {
				fn(c.lineFromTag(l.Tag, si), l.Footprint)
			}
		}
	}
}

// RecencyPosition returns the LRU-stack position of the line (0 = MRU)
// or -1 if absent; exposed for tests and the distill cache's auxiliary
// structures.
func (c *Cache) RecencyPosition(line mem.LineAddr) int {
	set := c.sets[c.setIndexOf(line)]
	tag := c.tagOf(line)
	for pos := range set {
		if set[pos].Valid && set[pos].Tag == tag {
			return pos
		}
	}
	return -1
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
