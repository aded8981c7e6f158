// Package wordstore implements the word-organized storage of a cache: a
// group of 64B data ways per set logically partitioned into 8B word
// entries, holding variable-size (power-of-two, aligned) groups of
// words per line. It is the storage substrate of the distill cache's
// WOC (paper Section 5.1) and of the decoupled-sectored store used by
// the SFP baseline (Section 9 / Figure 13).
package wordstore

import (
	"fmt"
	"math/bits"

	"ldis/internal/mem"
	"ldis/internal/obs"
)

// Line is one resident line: its stored words are packed into Slots
// consecutive word entries of way Way, starting at the aligned offset
// Start. The paper's head-bit corresponds to the Start slot. A record
// is 8 bytes: the tag's low 32 bits, the word masks, a byte holding the
// way (bits 0-5) and the tag's bits 32-33 (mem.PackTag), and a byte
// holding Start (bits 0-2) and log2 Slots (bits 3-4). NewLine builds
// one; the store sets its way and start when it places it.
type Line struct {
	tagLo uint32
	Words mem.Footprint // which words of the line are stored
	Dirty mem.Footprint // which stored words are dirty
	way   uint8
	place uint8
}

// MaxWays bounds a set's data ways: a way mask is one uint64 and
// a line's way six bits.
const MaxWays = 64

// The way field must stay clear of the tag bits.
var _ [1<<mem.TagHighShift - MaxWays]struct{}

// The bits of Line.way and Line.place.
const (
	lineWayMask uint8 = MaxWays - 1
	startMask   uint8 = mem.WordsPerLine - 1
	slotsShift        = 3
)

// NewLine returns an unplaced line of the given tag, stored and dirty
// words, and slot count. slots must be a power of two up to
// mem.WordsPerLine and tag must fit the line space (mem.PackTag);
// either violation panics.
func NewLine(tag uint64, words, dirty mem.Footprint, slots int) Line {
	if !validSlots(slots) {
		badSlots(slots)
	}
	k := mem.PackTag(tag)
	return Line{tagLo: k.Lo, Words: words, Dirty: dirty, way: k.Hi, place: uint8(bits.TrailingZeros8(uint8(slots))) << slotsShift}
}

//go:noinline
func badSlots(slots int) { panic(fmt.Sprintf("wordstore: line with %d slots", slots)) }

// Tag returns the line's full tag.
func (l Line) Tag() uint64 { return mem.UnpackTag(l.tagLo, l.way) }

// Way returns the data way the line is placed in.
func (l Line) Way() int { return int(l.way & lineWayMask) }

// Start returns the line's first word entry within its way.
func (l Line) Start() int { return int(l.place & startMask) }

// Slots returns the line's word-entry count, a power of two.
func (l Line) Slots() int { return 1 << (l.place >> slotsShift) }

// wayBits is one data way's bookkeeping over its 8 word entries: which
// are in use, and which start a resident line (the paper's head bits).
// The head bits let the replacement scan answer "is this slot a head?"
// without walking the lines; only RemoveAt, Clear and place move
// lines, so they cannot go stale.
type wayBits struct {
	occ, heads mem.Footprint
}

// Store is the word-organized portion of every set of one cache. Sets
// are addressed by index; each owns a fixed region of one line-record
// array (ways*8 records, the hard capacity of one single-slot line per
// word entry) of which its first count[set] records are resident, and
// ways consecutive wayBits. A cache of any set count constructs in a
// handful of allocations.
type Store struct {
	ways    int
	lineCap int
	lines   []Line
	count   []uint16
	bits    []wayBits
	// lastUse holds one recency stamp per line record, moved with the
	// record; only stores built for InstallLRU keep it (the paper's
	// footnote 4 compares the WOC's random replacement against such an
	// LRU variant), with ages, InstallLRU's per-region scratch.
	lastUse, ages []uint64
	// evictBuf backs the slices returned by Install, InstallLRU, Clear
	// and ToucheTags.PrepareInstall. Callers consume the returned lines
	// before the next mutation, so one buffer keeps those paths
	// allocation-free.
	evictBuf []Line

	// ObsInstallSlots, when non-nil, histograms the slot count of every
	// installed line (the distilled-line size distribution); a nil
	// handle no-ops.
	ObsInstallSlots *obs.Histogram
}

// NewStore returns an empty store of sets sets with ways data ways
// each. recency keeps the per-line stamps InstallLRU and Touch use.
func NewStore(ways, sets int, recency bool) Store {
	lineCap := ways * mem.WordsPerLine
	st := Store{
		ways:     ways,
		lineCap:  lineCap,
		lines:    make([]Line, sets*lineCap),
		count:    make([]uint16, sets),
		bits:     make([]wayBits, sets*ways),
		evictBuf: make([]Line, 0, lineCap),
	}
	if recency {
		st.lastUse = make([]uint64, sets*lineCap)
		st.ages = make([]uint64, lineCap)
	}
	return st
}

// Lines returns set si's resident lines. Callers may update a line's
// Words and Dirty in place; the slice is valid until the set's next
// mutation.
func (st *Store) Lines(si int) []Line {
	base := si * st.lineCap
	return st.lines[base : base+int(st.count[si]) : base+st.lineCap]
}

func (st *Store) setBits(si int) []wayBits {
	return st.bits[si*st.ways : (si+1)*st.ways]
}

// Find returns the index of set si's line with the given tag, or -1.
func (st *Store) Find(si int, tag uint64) int {
	k := mem.KeyOf(tag)
	base := si * st.lineCap
	for i, l := range st.lines[base : base+int(st.count[si])] {
		if k.Matches(l.tagLo, l.way) {
			return i
		}
	}
	return -1
}

// Touch stamps line i of set si as used at now (a no-op without
// recency stamps).
func (st *Store) Touch(si, i int, now uint64) {
	if st.lastUse != nil {
		st.lastUse[si*st.lineCap+i] = now
	}
}

// RemoveAt deletes line i of set si and frees its slots. The set's last
// line takes its index.
func (st *Store) RemoveAt(si, i int) Line {
	base, last := si*st.lineCap, int(st.count[si])-1
	l := st.lines[base+i]
	b := &st.bits[si*st.ways+l.Way()]
	b.occ &^= RegionMask(l.Start(), l.Slots())
	b.heads &^= RegionMask(l.Start(), 1)
	st.lines[base+i] = st.lines[base+last]
	if st.lastUse != nil {
		st.lastUse[base+i] = st.lastUse[base+last]
	}
	st.count[si]--
	return l
}

// Clear removes every line of set si, returning the removed lines so
// the caller can account for dirty writebacks. The returned slice is
// only valid until the store's next Install, InstallLRU or Clear.
func (st *Store) Clear(si int) []Line {
	st.evictBuf = append(st.evictBuf[:0], st.Lines(si)...)
	st.count[si] = 0
	clear(st.setBits(si))
	return st.evictBuf
}

// RegionMask returns the occupancy bits for slots [start, start+slots).
func RegionMask(start, slots int) mem.Footprint {
	return mem.Footprint(((1 << uint(slots)) - 1) << uint(start))
}

// A region size class k covers aligned regions of 1<<k slots (k = 0..3
// for the legal slot counts 1, 2, 4 and 8).
func sizeClass(slots int) int { return bits.TrailingZeros8(uint8(slots)) & 3 }

// regionStarts[k] marks the first slot of every aligned 1<<k-slot
// region, and freeStarts[k][occ] those of the wholly free ones in a way
// whose occupancy byte is occ: the occupancy byte folded so each
// region's first bit ORs the whole region, inverted and masked to the
// region starts.
var (
	regionStarts = [4]uint8{0xff, 0x55, 0x11, 0x01}
	freeStarts   = func() (t [4][256]uint8) {
		for k := range t {
			for occ := range 256 {
				used := uint8(occ)
				for w := 1; w < 1<<k; w <<= 1 {
					used |= used >> uint(w)
				}
				t[k][occ] = ^used & regionStarts[k]
			}
		}
		return t
	}()
)

// regions classifies one way's aligned regions of size class k, one bit
// at each region's first slot: free regions have no slot in use;
// eligible ones are partly used but may be reclaimed, because their
// first slot is free or carries a head bit (paper Section 5.3).
func regions(b wayBits, k int) (free, eligible uint8) {
	occ := uint8(b.occ)
	free = freeStarts[k][occ]
	return free, regionStarts[k] &^ free & (^occ | uint8(b.heads))
}

// pickRegion returns the aligned region a line of the given size takes
// among the ways of wayMask (clipped by clipWays), indexing with rnd
// into the candidates in way-major, start-minor order: the free
// regions when any exists, since they never cost an eviction, else the
// eligible ones. Per way it folds the occupancy byte, masks the region
// starts and counts with popcounts; the k-th candidate is the k-th set
// bit.
func pickRegion(ways []wayBits, wayMask uint64, slots int, rnd uint64) (way, start int) {
	k := sizeClass(slots)
	var nfree, nelig int
	for m := wayMask; m != 0; m &= m - 1 {
		f, e := regions(ways[bits.TrailingZeros64(m)], k)
		nfree += bits.OnesCount8(f)
		nelig += bits.OnesCount8(e)
	}
	wantFree, n := nfree > 0, nfree
	if !wantFree {
		n = nelig
	}
	if n == 0 {
		// Cannot happen: region (way, 0) of any selected way is always
		// eligible — slot 0 is either free or the head of the line
		// covering it; defend anyway.
		panic("wordstore: no replacement candidate")
	}
	nth := int(rnd % uint64(n))
	for m := wayMask; m != 0; m &= m - 1 {
		way = bits.TrailingZeros64(m)
		cand, e := regions(ways[way], k)
		if !wantFree {
			cand = e
		}
		if c := bits.OnesCount8(cand); nth >= c {
			nth -= c
			continue
		}
		for ; nth > 0; nth-- {
			cand &= cand - 1
		}
		return way, bits.TrailingZeros8(cand)
	}
	panic("wordstore: candidate index out of range")
}

// Install places nl (built by NewLine) into the data ways of set si
// whose bit is set in wayMask, evicting any lines overlapping the
// chosen region. The region is picked uniformly at random — via the
// caller-supplied rnd value — among the eligible aligned candidates
// (paper Section 5.3); fully free regions are preferred because they never cost an eviction. Mask bits above
// the way count are ignored, and a mask selecting no way selects every
// way, so 0 means "unrestricted". The distill cache passes a tenant's
// WOC ways to confine its distilled lines there; the mask restricts
// where nl is placed, never which lines a placement may evict —
// alignment means a region's victims always live in the region's own
// way. It returns nl as placed (its Way and Start set) and the evicted
// lines, valid until the next mutation.
//
//ldis:noalloc
func (st *Store) Install(si int, nl Line, rnd, wayMask uint64) (placed Line, evicted []Line) {
	st.checkInstall(si, nl)
	way, start := pickRegion(st.setBits(si), clipWays(wayMask, st.ways), nl.Slots(), rnd)
	return st.place(si, nl, way, start)
}

// clipWays drops the mask bits above the way count and turns a mask
// selecting no way into one selecting every way.
func clipWays(wayMask uint64, ways int) uint64 {
	full := uint64(1)<<uint(ways) - 1
	if wayMask &= full; wayMask == 0 {
		return full
	}
	return wayMask
}

// InstallLRU places nl like Install but takes the first free region in
// way-major, start-minor order, and when none is free evicts the
// eligible region whose youngest resident line is oldest, the first
// such region on ties (a variable-size LRU approximation — the policy
// the paper's footnote 4 says random replacement approximates). nl is
// stamped as used at now. The store must keep recency stamps. It
// returns what Install returns.
//
//ldis:noalloc
func (st *Store) InstallLRU(si int, nl Line, now uint64) (placed Line, evicted []Line) {
	st.checkInstall(si, nl)
	k := sizeClass(nl.Slots())
	ways := st.setBits(si)
	for way := range ways {
		if f, _ := regions(ways[way], k); f != 0 {
			return st.placeStamped(si, nl, way, bits.TrailingZeros8(f), now)
		}
	}
	// The age of a region is the largest stamp of the lines starting
	// inside it, the lines an install there would evict.
	ages := st.ages[:len(ways)*mem.WordsPerLine]
	clear(ages)
	ls := st.Lines(si)
	stamps := st.lastUse[si*st.lineCap : si*st.lineCap+len(ls)]
	for i := range ls {
		r := ls[i].Way()*mem.WordsPerLine + ls[i].Start()&^(1<<k-1)
		ages[r] = max(ages[r], stamps[i])
	}
	bestWay, bestStart, bestAge := -1, 0, ^uint64(0)
	for way := range ways {
		for _, e := regions(ways[way], k); e != 0; e &= e - 1 {
			start := bits.TrailingZeros8(e)
			if age := ages[way*mem.WordsPerLine+start]; age < bestAge {
				bestWay, bestStart, bestAge = way, start, age
			}
		}
	}
	if bestWay < 0 {
		panic("wordstore: no replacement candidate")
	}
	return st.placeStamped(si, nl, bestWay, bestStart, now)
}

func (st *Store) placeStamped(si int, nl Line, way, start int, now uint64) (Line, []Line) {
	placed, evicted := st.place(si, nl, way, start)
	st.Touch(si, int(st.count[si])-1, now)
	return placed, evicted
}

// validSlots reports whether n is a legal slot count: a power of two
// up to mem.WordsPerLine.
func validSlots(n int) bool { return n > 0 && n <= mem.WordsPerLine && n&(n-1) == 0 }

func (st *Store) checkInstall(si int, nl Line) {
	if st.Find(si, nl.Tag()) >= 0 {
		panic("wordstore: set already holds this line")
	}
	st.ObsInstallSlots.Observe(uint64(nl.Slots()))
}

// place evicts every line starting inside the chosen region (alignment
// guarantees such lines are fully contained or fully cover it; the
// paper's head-bit rule evicts them whole either way) and installs nl
// as the set's last line, returning it as placed. The returned slice
// aliases the store's reusable eviction buffer.
func (st *Store) place(si int, nl Line, way, start int) (Line, []Line) {
	evicted := st.evictBuf[:0]
	slots := nl.Slots()
	region := RegionMask(start, slots)
	b := &st.bits[si*st.ways+way]
	// The head bits count the lines starting inside the region, so a
	// free-region placement skips the eviction walk entirely and an
	// occupied one stops as soon as every victim is found.
	if want := (b.heads & region).Count(); want > 0 {
		base := si * st.lineCap
		for i := 0; want > 0; {
			l := &st.lines[base+i]
			if l.Way() == way && l.Start() >= start && l.Start() < start+slots {
				evicted = append(evicted, st.RemoveAt(si, i))
				want--
				continue
			}
			i++
		}
	}
	st.evictBuf = evicted
	if b.occ&region != 0 {
		panic("wordstore: region still occupied after eviction")
	}
	nl.way = nl.way&mem.TagHighMask | uint8(way)
	nl.place = nl.place&^startMask | uint8(start)
	b.occ |= region
	b.heads |= RegionMask(start, 1)
	st.lines[si*st.lineCap+int(st.count[si])] = nl
	st.count[si]++
	return nl, evicted
}

// HasFreeRegion reports whether some aligned region of set si of the
// given power-of-two size is entirely free.
func (st *Store) HasFreeRegion(si, slots int) bool {
	k := sizeClass(slots)
	for _, b := range st.setBits(si) {
		if f, _ := regions(b, k); f != 0 {
			return true
		}
	}
	return false
}

// CheckInvariants verifies set si's occupancy bookkeeping; tests call
// it after stress runs.
func (st *Store) CheckInvariants(si int) error {
	rec := st.setBits(si)
	got := make([]wayBits, len(rec))
	for _, l := range st.Lines(si) {
		if l.Way() >= len(got) {
			return fmt.Errorf("line %x in way %d of %d", l.Tag(), l.Way(), len(got))
		}
		if l.Start()%l.Slots() != 0 {
			return fmt.Errorf("line %x misaligned: start %d slots %d", l.Tag(), l.Start(), l.Slots())
		}
		if l.Words == 0 {
			return fmt.Errorf("line %x stores no words", l.Tag())
		}
		if l.Dirty&^l.Words != 0 {
			return fmt.Errorf("line %x has dirty bits outside stored words", l.Tag())
		}
		mask := RegionMask(l.Start(), l.Slots())
		if got[l.Way()].occ&mask != 0 {
			return fmt.Errorf("line %x overlaps another line", l.Tag())
		}
		got[l.Way()].occ |= mask
		got[l.Way()].heads |= RegionMask(l.Start(), 1)
	}
	for w := range got {
		if got[w].occ != rec[w].occ {
			return fmt.Errorf("way %d occupancy %v, recorded %v", w, got[w].occ, rec[w].occ)
		}
		if got[w].heads != rec[w].heads {
			return fmt.Errorf("way %d heads %v, recorded %v", w, got[w].heads, rec[w].heads)
		}
	}
	return nil
}
