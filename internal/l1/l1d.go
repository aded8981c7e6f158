// Package l1 implements the first-level data cache of the paper's
// framework (Section 4): a small set-associative cache that is
// *sectored* at word granularity — lines filled from the WOC may hold
// only a subset of valid words — and that tracks a per-line footprint
// which is handed to the L2 when the line is evicted (Section 4.1).
package l1

import (
	"fmt"

	"ldis/internal/mem"
)

// Config describes the L1D. The paper's baseline is 16kB, 2-way, 64B
// lines with LRU replacement (Table 1).
type Config struct {
	SizeBytes int
	Ways      int
}

// DefaultConfig is the paper's baseline L1D.
func DefaultConfig() Config { return Config{SizeBytes: 16 << 10, Ways: 2} }

// Sets returns the number of sets.
func (c Config) Sets() int { return c.SizeBytes / (mem.LineSize * c.Ways) }

// Validate checks structural invariants.
func (c Config) Validate() error {
	if _, err := mem.NewGeometry(c.SizeBytes, c.Ways); err != nil {
		return fmt.Errorf("l1: %w", err)
	}
	return nil
}

// line is one L1D tag entry. The tag comes first so the byte-sized
// fields pack after it: 16 bytes a line.
type line struct {
	tag       uint64
	valid     bool
	validBits mem.Footprint // which words hold data (sectored fill)
	dirty     mem.Footprint // which words have been written
	footprint mem.Footprint // which words the processor accessed
}

// Outcome classifies an L1D access.
type Outcome uint8

const (
	// Hit: the word is present.
	Hit Outcome = iota
	// SectorMiss: the line is present but the requested word's sector is
	// invalid (it was filled from a partial WOC line). The request must
	// go to the L2 with the sector id (paper Section 4.2).
	SectorMiss
	// LineMiss: the line is absent.
	LineMiss
)

// String implements fmt.Stringer.
func (o Outcome) String() string {
	switch o {
	case Hit:
		return "hit"
	case SectorMiss:
		return "sector-miss"
	case LineMiss:
		return "line-miss"
	default:
		return fmt.Sprintf("Outcome(%d)", uint8(o))
	}
}

// Eviction carries the information an evicted line sends to the L2: the
// accumulated footprint (ORed into the LOC entry) and the dirty words
// (written back).
type Eviction struct {
	Line      mem.LineAddr
	Footprint mem.Footprint
	Dirty     mem.Footprint
}

// Stats counts L1D behaviour.
type Stats struct {
	Accesses     uint64
	Hits         uint64
	SectorMisses uint64
	LineMisses   uint64
	Evictions    uint64
	Writebacks   uint64 // evictions carrying at least one dirty word
}

// Cache is the sectored, footprint-tracking L1D.
type Cache struct {
	cfg  Config
	geom mem.Geometry
	sets [][]line // MRU-first
	st   Stats
}

// New builds the L1D; panics on invalid config.
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	geom, _ := mem.NewGeometry(cfg.SizeBytes, cfg.Ways) // Validate accepted it
	sets := make([][]line, geom.Sets())
	for i := range sets {
		sets[i] = make([]line, cfg.Ways)
	}
	return &Cache{cfg: cfg, geom: geom, sets: sets}
}

// Stats returns the live counters.
func (c *Cache) Stats() *Stats { return &c.st }

// AccessEvict performs a processor load/store of one word. On Hit the
// footprint and dirty bits update and the line moves to MRU. On
// SectorMiss the LRU state stays untouched until the fill arrives. On
// LineMiss in a full set the LRU way is evicted at once and returned,
// so the caller can send the victim's footprint and dirty words to the
// L2 *before* the miss request, as a victim buffer would, and the LOC
// has the usage information when it distills. After a miss the caller
// consults the L2 and then calls FillNew (line miss) or Fill (sector
// miss).
//
//ldis:noalloc
func (c *Cache) AccessEvict(la mem.LineAddr, word int, write bool) (Outcome, Eviction, bool) {
	c.st.Accesses++
	si := c.geom.SetIndex(la)
	set := c.sets[si]
	tag := c.geom.Tag(la)
	// MRU fast path: a hit on way 0 needs no reordering, so it updates
	// the line in place instead of copying it out and back.
	free := false
	if l := &set[0]; l.valid && l.tag == tag {
		if !l.validBits.Has(word) {
			c.st.SectorMisses++
			return SectorMiss, Eviction{}, false
		}
		c.st.Hits++
		l.footprint = l.footprint.Set(word)
		if write {
			l.dirty = l.dirty.Set(word)
		}
		return Hit, Eviction{}, false
	} else if !l.valid {
		free = true
	}
	for pos := 1; pos < len(set); pos++ {
		if !set[pos].valid {
			free = true
			continue
		}
		if set[pos].tag != tag {
			continue
		}
		l := set[pos]
		if !l.validBits.Has(word) {
			c.st.SectorMisses++
			return SectorMiss, Eviction{}, false
		}
		c.st.Hits++
		l.footprint = l.footprint.Set(word)
		if write {
			l.dirty = l.dirty.Set(word)
		}
		copy(set[1:pos+1], set[0:pos])
		set[0] = l
		return Hit, Eviction{}, false
	}
	c.st.LineMisses++
	if free {
		return LineMiss, Eviction{}, false
	}
	v := set[len(set)-1]
	set[len(set)-1] = line{}
	c.st.Evictions++
	if v.dirty != 0 {
		c.st.Writebacks++
	}
	return LineMiss, Eviction{Line: c.geom.Line(v.tag, si), Footprint: v.footprint, Dirty: v.dirty}, true
}

// Fill installs the response to a miss: the line with validBits valid
// words (FullFootprint when served by the LOC or memory, possibly
// partial when served by the WOC). word is the demand word — it is
// recorded in the footprint (and dirty mask if write). If the line is
// already present (sector miss fill) the valid bits are merged, the
// footprint/dirty state is preserved, and the line moves to MRU;
// otherwise the line is installed as by FillNew. Returns the eviction
// the fill displaced, if any.
func (c *Cache) Fill(la mem.LineAddr, validBits mem.Footprint, word int, write bool) (Eviction, bool) {
	if !validBits.Has(word) {
		panicLacksDemandWord(la, validBits, word)
	}
	set := c.sets[c.geom.SetIndex(la)]
	tag := c.geom.Tag(la)
	for pos := range set {
		if set[pos].valid && set[pos].tag == tag {
			l := set[pos]
			l.validBits = l.validBits.Or(validBits)
			l.footprint = l.footprint.Set(word)
			if write {
				l.dirty = l.dirty.Set(word)
			}
			copy(set[1:pos+1], set[0:pos])
			set[0] = l
			return Eviction{}, false
		}
	}
	return c.FillNew(la, validBits, word, write)
}

// FillNew installs a miss response for a line the caller knows is
// absent (AccessEvict just returned LineMiss and nothing has touched
// the set since), skipping Fill's presence scan: the line becomes MRU,
// evicting the LRU way if it is still valid.
//
//ldis:noalloc
func (c *Cache) FillNew(la mem.LineAddr, validBits mem.Footprint, word int, write bool) (Eviction, bool) {
	if !validBits.Has(word) {
		panicLacksDemandWord(la, validBits, word)
	}
	si := c.geom.SetIndex(la)
	set := c.sets[si]
	var ev Eviction
	had := false
	if v := set[len(set)-1]; v.valid {
		c.st.Evictions++
		if v.dirty != 0 {
			c.st.Writebacks++
		}
		ev = Eviction{Line: c.geom.Line(v.tag, si), Footprint: v.footprint, Dirty: v.dirty}
		had = true
	}
	nl := line{valid: true, tag: c.geom.Tag(la), validBits: validBits, footprint: mem.FootprintOfWord(word)}
	if write {
		nl.dirty = mem.FootprintOfWord(word)
	}
	copy(set[1:], set[:len(set)-1])
	set[0] = nl
	return ev, had
}

// panicLacksDemandWord reports a fill whose valid words omit the demand
// word. It is kept out of line so the fill paths inline only the test.
func panicLacksDemandWord(la mem.LineAddr, validBits mem.Footprint, word int) {
	panic(fmt.Sprintf("l1: fill of %v lacks demand word %d (valid %v)", la, word, validBits))
}

// Present reports whether the line (any sector) is cached.
func (c *Cache) Present(la mem.LineAddr) bool {
	set := c.sets[c.geom.SetIndex(la)]
	tag := c.geom.Tag(la)
	for pos := range set {
		if set[pos].valid && set[pos].tag == tag {
			return true
		}
	}
	return false
}

// ValidBits returns the valid-word mask of the line (0 if absent).
func (c *Cache) ValidBits(la mem.LineAddr) mem.Footprint {
	set := c.sets[c.geom.SetIndex(la)]
	tag := c.geom.Tag(la)
	for pos := range set {
		if set[pos].valid && set[pos].tag == tag {
			return set[pos].validBits
		}
	}
	return 0
}

// Merge folds a sibling shard's counters into s: shards partition the
// line-address space, so plain sums reproduce the sequential totals.
//
//ldis:noalloc
func (s *Stats) Merge(o *Stats) {
	s.Accesses += o.Accesses
	s.Hits += o.Hits
	s.SectorMisses += o.SectorMisses
	s.LineMisses += o.LineMisses
	s.Evictions += o.Evictions
	s.Writebacks += o.Writebacks
}
