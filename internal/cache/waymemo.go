package cache

import (
	"fmt"
)

// WayMemoConfig enables way memoization (arXiv 0710.4703): a small
// per-set memo buffer remembers the tag that last hit (or filled) each
// of its entries, so an access whose memo entry matches can read its
// one remembered way directly — verifying a single tag instead of
// probing all Ways of them. The memo is accounting-only here: lookups,
// LRU movement, and miss behaviour are byte-identical with and without
// it (a memo entry is invalidated the moment its line leaves the set,
// so a memo match always implies residency and therefore a hit). What
// it changes is the energy story, priced by costmodel.WayMemoEnergy
// from the hit/skip counters.
//
// The memo is strictly per-set state keyed by a pure tag hash, so a
// memoized traditional cache remains shard-exact: set-interleaved
// sharding reproduces the sequential counters bit for bit.
type WayMemoConfig struct {
	// EntriesPerSet is the memo buffer's entry count per cache set
	// (power of two in [1, 64]; default 4). An incoming tag maps to
	// one entry by hash; the entry remembers the most recent tag that
	// hit or filled under it.
	EntriesPerSet int
}

func (c WayMemoConfig) withDefaults() WayMemoConfig {
	if c.EntriesPerSet == 0 {
		c.EntriesPerSet = 4
	}
	return c
}

// Validate rejects impossible memo geometries.
func (c WayMemoConfig) Validate() error {
	c = c.withDefaults()
	if c.EntriesPerSet < 1 || c.EntriesPerSet > 64 || c.EntriesPerSet&(c.EntriesPerSet-1) != 0 {
		return fmt.Errorf("cache: way-memo entries per set %d must be a power of two in [1, 64]", c.EntriesPerSet)
	}
	return nil
}

// memoSlot maps a tag to its memo entry within a set: a fixed
// multiplicative hash, so the mapping is a pure function of the tag
// and sharding cannot perturb it.
func (c *Cache) memoSlot(tag uint64) int {
	return int((tag * 0x9e3779b97f4a7c15) >> c.memoShift)
}

// memoLookup consults the memo buffer for an incoming access and
// counts the outcome. A match means the remembered way will be read
// directly — Ways-1 tag probes skipped — and, by the invalidate-on-
// evict invariant, guarantees the access hits.
//
//ldis:noalloc
func (c *Cache) memoLookup(si int, tag uint64) {
	if c.memoTags == nil {
		return
	}
	c.st.MemoRefs++
	slot := c.memoSlot(tag)
	if c.memoValid[si]&(1<<uint(slot)) != 0 && c.memoTags[si*c.memoEPS+slot] == tag {
		c.st.MemoHits++
		c.st.MemoProbesSkipped += uint64(c.cfg.Ways - 1)
		c.obsMemoHits.Inc()
		c.obsMemoSkipped.Add(uint64(c.cfg.Ways - 1))
	}
}

// memoRecord remembers the tag that just hit or filled.
//
//ldis:noalloc
func (c *Cache) memoRecord(si int, tag uint64) {
	if c.memoTags == nil {
		return
	}
	slot := c.memoSlot(tag)
	c.memoTags[si*c.memoEPS+slot] = tag
	c.memoValid[si] |= 1 << uint(slot)
}

// memoInvalidate drops the memo entry for an evicted tag — unless a
// different tag has since claimed the slot, in which case that entry
// is still truthful and stays.
//
//ldis:noalloc
func (c *Cache) memoInvalidate(si int, tag uint64) {
	if c.memoTags == nil {
		return
	}
	slot := c.memoSlot(tag)
	if c.memoTags[si*c.memoEPS+slot] == tag {
		c.memoValid[si] &^= 1 << uint(slot)
	}
}

// CheckMemoInvariants verifies that every valid memo entry names a
// line resident in its set — the property that makes a memo match a
// guaranteed hit; tests call it after stress runs.
func (c *Cache) CheckMemoInvariants() error {
	if c.memoTags == nil {
		return nil
	}
	for si := range c.geom.Sets() {
		for slot := 0; slot < c.memoEPS; slot++ {
			if c.memoValid[si]&(1<<uint(slot)) == 0 {
				continue
			}
			tag := c.memoTags[si*c.memoEPS+slot]
			if c.memoSlot(tag) != slot {
				return fmt.Errorf("cache %q: set %d memo slot %d holds tag %x hashing elsewhere", c.cfg.Name, si, slot, tag)
			}
			if !c.Lookup(c.geom.Line(tag, si)) {
				return fmt.Errorf("cache %q: set %d memo slot %d names absent tag %x", c.cfg.Name, si, slot, tag)
			}
		}
	}
	return nil
}
