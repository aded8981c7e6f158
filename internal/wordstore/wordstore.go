// Package wordstore implements a word-organized cache set: a group of
// 64B data ways logically partitioned into 8B word entries, holding
// variable-size (power-of-two, aligned) groups of words per line. It is
// the storage substrate of the distill cache's WOC (paper Section 5.1)
// and of the decoupled-sectored store used by the SFP baseline
// (Section 9 / Figure 13).
package wordstore

import (
	"fmt"

	"ldis/internal/mem"
	"ldis/internal/obs"
)

// Line is one resident line: its stored words are packed into Slots
// consecutive word entries of way Way, starting at the aligned offset
// Start. The paper's head-bit corresponds to the Start slot. The
// 8-byte fields come first so the byte-sized ones pack into one word:
// 24 bytes a line.
type Line struct {
	Tag uint64
	// LastUse is an optional recency stamp maintained by callers that
	// use InstallLRU (the paper's footnote 4 compares the WOC's random
	// replacement against such an LRU variant).
	LastUse uint64
	Words   mem.Footprint // which words of the line are stored
	Dirty   mem.Footprint // which stored words are dirty
	Way     uint8
	Start   uint8
	Slots   uint8 // power-of-two entry count (>= stored payload)
}

// MaxWays bounds a set's data ways: a way mask is one uint64 and
// Line.Way one byte.
const MaxWays = 64

// Set is the word-organized portion of one cache set.
type Set struct {
	Lines []Line
	occ   []mem.Footprint // per-way occupancy bitmap over the 8 slots
	// heads mirrors, per way, the Start slot of every resident line, so
	// the replacement scan answers "is this slot a head?" with one bit
	// test instead of walking Lines. Maintained by RemoveAt/Clear/place;
	// callers never move a line (they only touch Words/Dirty/LastUse),
	// so the bitmap cannot go stale.
	heads []mem.Footprint
	// evictBuf backs the slices returned by Install/InstallLRU/Clear.
	// Callers consume the returned lines before the next mutation, so
	// reusing one buffer keeps the install path allocation-free.
	evictBuf []Line

	// ObsInstallSlots, when non-nil, histograms the slot count of every
	// installed line (the distilled-line size distribution). The owning
	// cache shares one histogram across all its sets; a nil handle
	// no-ops.
	ObsInstallSlots *obs.Histogram
}

// NewSet returns an empty set with the given number of data ways.
// Lines is pre-sized to the hard capacity (one single-slot line per
// word entry) so steady-state installs never grow it.
func NewSet(ways int) Set {
	return Set{
		Lines: make([]Line, 0, ways*mem.WordsPerLine),
		occ:   make([]mem.Footprint, ways),
		heads: make([]mem.Footprint, ways),
	}
}

// NewSets returns n empty sets with the given number of data ways,
// carving every per-set slice out of three shared backing arrays. A
// cache with thousands of sets constructs in 3 allocations instead of
// 3n, and the contiguous layout keeps neighbouring sets on shared
// pages. Full-slice expressions pin each set's Lines capacity to its
// own region, so growth past the hard cap (which NewSet's sizing
// already rules out) could never bleed into a neighbour.
func NewSets(ways, n int) []Set {
	sets := make([]Set, n)
	lineCap := ways * mem.WordsPerLine
	lines := make([]Line, n*lineCap)
	occ := make([]mem.Footprint, n*ways)
	heads := make([]mem.Footprint, n*ways)
	for i := range sets {
		sets[i] = Set{
			Lines: lines[i*lineCap : i*lineCap : (i+1)*lineCap],
			occ:   occ[i*ways : (i+1)*ways : (i+1)*ways],
			heads: heads[i*ways : (i+1)*ways : (i+1)*ways],
		}
	}
	return sets
}

// Ways returns the number of data ways.
func (s *Set) Ways() int { return len(s.occ) }

// Find returns the index of the line with the given tag, or -1.
func (s *Set) Find(tag uint64) int {
	for i := range s.Lines {
		if s.Lines[i].Tag == tag {
			return i
		}
	}
	return -1
}

// RemoveAt deletes the line at index i and frees its slots.
func (s *Set) RemoveAt(i int) Line {
	l := s.Lines[i]
	s.occ[l.Way] &^= RegionMask(int(l.Start), int(l.Slots))
	s.heads[l.Way] &^= RegionMask(int(l.Start), 1)
	s.Lines[i] = s.Lines[len(s.Lines)-1]
	s.Lines = s.Lines[:len(s.Lines)-1]
	return l
}

// Clear removes every line, returning the removed lines so the caller
// can account for dirty writebacks. The returned slice is only valid
// until the next Install/InstallLRU/Clear on this set.
func (s *Set) Clear() []Line {
	s.evictBuf = append(s.evictBuf[:0], s.Lines...)
	s.Lines = s.Lines[:0]
	for i := range s.occ {
		s.occ[i] = 0
		s.heads[i] = 0
	}
	return s.evictBuf
}

// RegionMask returns the occupancy bits for slots [start, start+slots).
func RegionMask(start, slots int) mem.Footprint {
	return mem.Footprint(((1 << uint(slots)) - 1) << uint(start))
}

// candidate is one aligned region eligible for replacement.
type candidate struct {
	way, start int
}

// regionState classifies the aligned region (way, start): free means
// no slot is in use; eligible means it may be reclaimed — its first
// slot is invalid or carries a head-bit (paper Section 5.3).
func (s *Set) regionState(way, start, slots int) (free, eligible bool) {
	if s.occ[way]&RegionMask(start, slots) == 0 {
		return true, false
	}
	firstFree := s.occ[way]&RegionMask(start, 1) == 0
	return false, firstFree || s.isHead(way, start)
}

// countCandidates counts the free and eligible-occupied aligned regions
// for a line of the given slot count in the data ways whose bit is set
// in wayMask, in way-major/start-minor order — the enumeration Install's
// random pick indexes into.
func (s *Set) countCandidates(slots int, wayMask uint64) (nfree, nocc int) {
	for way := range s.occ {
		if wayMask&(1<<uint(way)) == 0 {
			continue
		}
		for start := 0; start+slots <= mem.WordsPerLine; start += slots {
			free, eligible := s.regionState(way, start, slots)
			switch {
			case free:
				nfree++
			case eligible:
				nocc++
			}
		}
	}
	return nfree, nocc
}

// nthCandidate returns the k-th free (or, with wantFree false, k-th
// eligible-occupied) region in the same enumeration order as
// countCandidates. The two-pass count-then-pick keeps replacement
// decisions identical to materializing the candidate lists while doing
// no allocation.
func (s *Set) nthCandidate(slots int, wayMask uint64, wantFree bool, k int) candidate {
	for way := range s.occ {
		if wayMask&(1<<uint(way)) == 0 {
			continue
		}
		for start := 0; start+slots <= mem.WordsPerLine; start += slots {
			free, eligible := s.regionState(way, start, slots)
			if free != wantFree || (!free && !eligible) {
				continue
			}
			if k == 0 {
				return candidate{way, start}
			}
			k--
		}
	}
	panic("wordstore: candidate index out of range")
}

// Install places nl (whose Slots field must be a power of two <= 8)
// into the data ways whose bit is set in wayMask, evicting any lines
// overlapping the chosen region. The region is picked uniformly at
// random — via the caller-supplied rnd value — among the eligible
// aligned candidates (paper Section 5.3); fully free regions are
// preferred because they never cost an eviction. Mask bits above the
// way count are ignored, and a mask selecting no way selects every
// way, so 0 means "unrestricted". The distill cache passes a tenant's
// WOC ways to confine its distilled lines there; the mask restricts
// where nl is placed, never which lines a placement may evict —
// alignment means a region's victims always live in the region's own
// way. It returns the evicted lines, valid until the next mutation.
//
//ldis:noalloc
func (s *Set) Install(nl Line, rnd, wayMask uint64) []Line {
	s.checkInstall(nl)
	full := uint64(1)<<uint(len(s.occ)) - 1
	wayMask &= full
	if wayMask == 0 {
		wayMask = full
	}
	slots := int(nl.Slots)
	nfree, nocc := s.countCandidates(slots, wayMask)
	if nfree > 0 {
		return s.place(nl, s.nthCandidate(slots, wayMask, true, int(rnd%uint64(nfree))))
	}
	if nocc == 0 {
		// Cannot happen: region (way, 0) of any selected way is always
		// eligible — slot 0 is either free or the head of the line
		// covering it; defend anyway.
		panic("wordstore: no replacement candidate")
	}
	return s.place(nl, s.nthCandidate(slots, wayMask, false, int(rnd%uint64(nocc))))
}

// InstallLRU places nl like Install but, when no region is free, evicts
// the candidate region whose youngest resident line is oldest (a
// variable-size LRU approximation — the policy the paper's footnote 4
// says random replacement approximates).
//
//ldis:noalloc
func (s *Set) InstallLRU(nl Line) []Line {
	s.checkInstall(nl)
	slots := int(nl.Slots)
	var best candidate
	haveBest := false
	bestAge := ^uint64(0)
	for way := range s.occ {
		for start := 0; start+slots <= mem.WordsPerLine; start += slots {
			free, eligible := s.regionState(way, start, slots)
			if free {
				// First free region in enumeration order, as before.
				return s.place(nl, candidate{way, start})
			}
			if !eligible {
				continue
			}
			// Age of a region = the max LastUse of the lines it would evict.
			var youngest uint64
			for i := range s.Lines {
				l := &s.Lines[i]
				if int(l.Way) == way && int(l.Start) >= start && int(l.Start) < start+slots {
					if l.LastUse > youngest {
						youngest = l.LastUse
					}
				}
			}
			if youngest < bestAge {
				best, bestAge, haveBest = candidate{way, start}, youngest, true
			}
		}
	}
	if !haveBest {
		panic("wordstore: no replacement candidate")
	}
	return s.place(nl, best)
}

// validSlots reports whether n is a legal slot count: a power of two
// up to mem.WordsPerLine.
func validSlots(n uint8) bool { return n != 0 && n <= mem.WordsPerLine && n&(n-1) == 0 }

func (s *Set) checkInstall(nl Line) {
	if !validSlots(nl.Slots) {
		panic(fmt.Sprintf("wordstore: installing line with %d slots", nl.Slots))
	}
	if s.Find(nl.Tag) >= 0 {
		panic("wordstore: set already holds this line")
	}
	s.ObsInstallSlots.Observe(uint64(nl.Slots))
}

// place evicts every line starting inside the chosen region (alignment
// guarantees such lines are fully contained or fully cover it; the
// paper's head-bit rule evicts them whole either way) and installs nl.
// The returned slice aliases the set's reusable eviction buffer.
func (s *Set) place(nl Line, c candidate) []Line {
	evicted := s.evictBuf[:0]
	// The head bitmap counts the lines starting inside the region, so a
	// free-region placement skips the eviction walk entirely and an
	// occupied one stops as soon as every victim is found.
	slots := int(nl.Slots)
	if want := (s.heads[c.way] & RegionMask(c.start, slots)).Count(); want > 0 {
		for i := 0; i < len(s.Lines) && want > 0; {
			l := s.Lines[i]
			if int(l.Way) == c.way && int(l.Start) >= c.start && int(l.Start) < c.start+slots {
				evicted = append(evicted, s.RemoveAt(i))
				want--
				continue
			}
			i++
		}
	}
	s.evictBuf = evicted
	if s.occ[c.way]&RegionMask(c.start, slots) != 0 {
		panic("wordstore: region still occupied after eviction")
	}
	nl.Way, nl.Start = uint8(c.way), uint8(c.start)
	s.occ[c.way] |= RegionMask(c.start, slots)
	s.heads[c.way] |= RegionMask(c.start, 1)
	s.Lines = append(s.Lines, nl)
	return evicted
}

// isHead reports whether (way, start) is the first slot of a resident
// line: one bit test against the maintained head bitmap.
func (s *Set) isHead(way, start int) bool {
	return s.heads[way]&RegionMask(start, 1) != 0
}

// HasFreeRegion reports whether some aligned region of the given
// power-of-two size is entirely free.
func (s *Set) HasFreeRegion(slots int) bool {
	for way := range s.occ {
		for start := 0; start+slots <= mem.WordsPerLine; start += slots {
			if s.occ[way]&RegionMask(start, slots) == 0 {
				return true
			}
		}
	}
	return false
}

// OccupiedSlots returns the total number of word entries in use.
func (s *Set) OccupiedSlots() int {
	n := 0
	for _, l := range s.Lines {
		n += int(l.Slots)
	}
	return n
}

// CheckInvariants verifies occupancy bookkeeping; tests call it after
// stress runs.
func (s *Set) CheckInvariants() error {
	occ := make([]mem.Footprint, len(s.occ))
	heads := make([]mem.Footprint, len(s.occ))
	for _, l := range s.Lines {
		if int(l.Way) >= len(occ) {
			return fmt.Errorf("line %x in way %d of %d", l.Tag, l.Way, len(occ))
		}
		if !validSlots(l.Slots) {
			return fmt.Errorf("line %x has %d slots, want a power of two up to %d", l.Tag, l.Slots, mem.WordsPerLine)
		}
		if int(l.Start)+int(l.Slots) > mem.WordsPerLine || l.Start%l.Slots != 0 {
			return fmt.Errorf("line %x misaligned: start %d slots %d", l.Tag, l.Start, l.Slots)
		}
		if l.Words == 0 {
			return fmt.Errorf("line %x stores no words", l.Tag)
		}
		if l.Dirty&^l.Words != 0 {
			return fmt.Errorf("line %x has dirty bits outside stored words", l.Tag)
		}
		mask := RegionMask(int(l.Start), int(l.Slots))
		if occ[l.Way]&mask != 0 {
			return fmt.Errorf("line %x overlaps another line", l.Tag)
		}
		occ[l.Way] |= mask
		heads[l.Way] |= RegionMask(int(l.Start), 1)
	}
	for w := range occ {
		if occ[w] != s.occ[w] {
			return fmt.Errorf("way %d occupancy %v, recorded %v", w, occ[w], s.occ[w])
		}
		if heads[w] != s.heads[w] {
			return fmt.Errorf("way %d heads %v, recorded %v", w, heads[w], s.heads[w])
		}
	}
	return nil
}
