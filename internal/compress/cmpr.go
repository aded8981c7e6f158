package compress

import (
	"fmt"

	"ldis/internal/mem"
	"ldis/internal/stats"
	"ldis/internal/values"
)

// CMPRConfig describes a compressed traditional cache (the paper's
// CMPR-4xTags comparator in Figure 11): the baseline data array, each
// set holding compressed lines in 8B segments, with TagFactor times as
// many tag entries as a traditional cache and *perfect LRU* replacement
// — the paper's words — meaning lines are evicted strictly in LRU order
// until the incoming line fits, with no placement constraints.
type CMPRConfig struct {
	Name      string
	SizeBytes int
	Ways      int // baseline associativity (data ways per set)
	TagFactor int // tag entries per set = TagFactor * Ways
}

// DefaultCMPRConfig is CMPR-4xTags over the paper's 1MB 8-way baseline.
func DefaultCMPRConfig() CMPRConfig {
	return CMPRConfig{Name: "cmpr", SizeBytes: 1 << 20, Ways: 8, TagFactor: 4}
}

// Sets returns the number of sets.
func (c CMPRConfig) Sets() int { return c.SizeBytes / (mem.LineSize * c.Ways) }

// SegmentsPerSet returns the data capacity of a set in 8B segments.
func (c CMPRConfig) SegmentsPerSet() int { return c.Ways * mem.WordsPerLine }

// TagsPerSet returns the tag-entry budget of a set.
func (c CMPRConfig) TagsPerSet() int { return c.TagFactor * c.Ways }

// Validate checks structural invariants.
func (c CMPRConfig) Validate() error {
	if c.Ways <= 0 || c.TagFactor <= 0 {
		return fmt.Errorf("cmpr %q: ways %d and tag factor %d must be positive", c.Name, c.Ways, c.TagFactor)
	}
	sets := c.Sets()
	if sets <= 0 || sets*c.Ways*mem.LineSize != c.SizeBytes {
		return fmt.Errorf("cmpr %q: size %dB not divisible into %d ways of 64B lines", c.Name, c.SizeBytes, c.Ways)
	}
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cmpr %q: set count %d not a power of two", c.Name, sets)
	}
	return nil
}

type cmprLine struct {
	tag      uint64
	segments int
	dirty    bool
}

// CMPRStats counts compressed-cache behaviour.
type CMPRStats struct {
	Accesses   uint64
	Hits       uint64
	Misses     uint64
	Evictions  uint64
	Writebacks uint64
	// SegmentsHist histograms the compressed size (in segments) of
	// installed lines.
	SegmentsHist *stats.Histogram
}

// HitRate returns hits/accesses.
func (s *CMPRStats) HitRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Accesses)
}

// CMPR is the compressed traditional cache. Whole lines are compressed
// with the Table-4 encoding (using the workload's value model) and
// stored in 8B segments; a set holds at most TagsPerSet lines and
// SegmentsPerSet segments.
type CMPR struct {
	cfg  CMPRConfig
	vals *values.Model
	sets [][]cmprLine // MRU-first
	st   CMPRStats

	// Set-indexing geometry, precomputed at construction so the access
	// path does not rederive it per access.
	setMask  uint64
	tagShift uint
}

// NewCMPR builds the compressed cache over the given value model;
// panics on invalid config.
func NewCMPR(cfg CMPRConfig, vals *values.Model) *CMPR {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	numSets := cfg.Sets()
	sets := make([][]cmprLine, numSets)
	for i := range sets {
		// Full tag-budget capacity up front: install's in-place prepend
		// then never grows the slice, keeping the miss path
		// allocation-free.
		sets[i] = make([]cmprLine, 0, cfg.TagsPerSet())
	}
	c := &CMPR{cfg: cfg, vals: vals, sets: sets, setMask: uint64(numSets - 1)}
	for n := numSets; n > 1; n >>= 1 {
		c.tagShift++
	}
	c.st.SegmentsHist = stats.NewHistogram(cfg.Name+" segments", mem.WordsPerLine+1)
	return c
}

// setIndexOf and tagOf are the precomputed equivalents of
// mem.LineAddr.SetIndex/Tag for this cache's geometry.
func (c *CMPR) setIndexOf(la mem.LineAddr) int { return int(uint64(la) & c.setMask) }
func (c *CMPR) tagOf(la mem.LineAddr) uint64   { return uint64(la) >> c.tagShift }

// Stats returns the live counters.
func (c *CMPR) Stats() *CMPRStats { return &c.st }

// Config returns the cache's configuration.
func (c *CMPR) Config() CMPRConfig { return c.cfg }

// Access performs a demand access; on a miss the line is compressed and
// installed, evicting LRU lines until both the segment and tag budgets
// are satisfied. All words of a stored line are valid (compression
// keeps the whole line), so there are no hole misses.
//
//ldis:noalloc
func (c *CMPR) Access(la mem.LineAddr, word int, write bool) bool {
	c.st.Accesses++
	si := c.setIndexOf(la)
	set := c.sets[si]
	tag := c.tagOf(la)
	for pos := range set {
		if set[pos].tag != tag {
			continue
		}
		c.st.Hits++
		l := set[pos]
		if write {
			l.dirty = true
		}
		copy(set[1:pos+1], set[0:pos])
		set[0] = l
		return true
	}
	c.st.Misses++
	c.install(si, la, write)
	return false
}

func (c *CMPR) install(si int, la mem.LineAddr, write bool) {
	segs := SegmentsFor(LineBits(c.vals, la, mem.FullFootprint))
	c.st.SegmentsHist.Add(segs)
	set := c.sets[si]
	used := 0
	for _, l := range set {
		used += l.segments
	}
	// Perfect LRU: evict from the tail until the line fits in both the
	// segment budget and the tag budget.
	for len(set) > 0 && (used+segs > c.cfg.SegmentsPerSet() || len(set)+1 > c.cfg.TagsPerSet()) {
		v := set[len(set)-1]
		set = set[:len(set)-1]
		used -= v.segments
		c.st.Evictions++
		if v.dirty {
			c.st.Writebacks++
		}
	}
	// In-place MRU prepend: the eviction loop guarantees len(set)+1 is
	// within the tag budget, and the set was allocated at full capacity,
	// so the append never grows the backing array.
	set = append(set, cmprLine{})
	copy(set[1:], set)
	set[0] = cmprLine{tag: c.tagOf(la), segments: segs, dirty: write}
	c.sets[si] = set
}

// Present reports whether the line is resident (for tests).
func (c *CMPR) Present(la mem.LineAddr) bool {
	set := c.sets[c.setIndexOf(la)]
	tag := c.tagOf(la)
	for _, l := range set {
		if l.tag == tag {
			return true
		}
	}
	return false
}

// LinesResident returns the number of lines in the set holding la; used
// to verify the compression capacity benefit in tests.
func (c *CMPR) LinesResident(la mem.LineAddr) int {
	return len(c.sets[c.setIndexOf(la)])
}

// FACSlots returns a distill.SlotsFunc-compatible sizing function
// implementing footprint-aware compression (Section 8.2): only the used
// words are compressed, and the result is rounded to the power-of-two
// slot count the WOC requires.
func FACSlots(vals *values.Model) func(line mem.LineAddr, used mem.Footprint) int {
	return func(line mem.LineAddr, used mem.Footprint) int {
		return SegmentsFor(LineBits(vals, line, used))
	}
}

// Merge folds a sibling shard's counters into s: shards partition the
// line-address space, so plain sums (and bucket-wise histogram sums)
// reproduce the sequential totals exactly.
//
//ldis:noalloc
func (s *CMPRStats) Merge(o *CMPRStats) {
	s.Accesses += o.Accesses
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Evictions += o.Evictions
	s.Writebacks += o.Writebacks
	s.SegmentsHist.Merge(o.SegmentsHist)
}
