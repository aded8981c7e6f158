package cache

import "ldis/internal/mem"

// Line is one LRU tag record, packed into 8 bytes: the tag's low 32
// bits, the footprint (words used) and dirty words, MaxFPPos, and a
// flag byte holding the valid bit, the instruction bit, the installing
// tenant (always 0 outside partitioned mode) and the tag's bits 32-33
// (mem.PackTag). MaxFPPos tracks the maximum recency position the line
// occupied at any access that changed its footprint — the statistic
// behind the paper's Figure 2. The instruction bit is the distill
// cache's: its LOC never distills instruction lines (Section 4).
//
// The footprint and dirty words share one field so that Line keeps
// four fields: the compiler keeps a struct of at most four fields in
// registers, and copies a struct of five through memory.
type Line struct {
	tagLo    uint32
	words    uint16 // footprint in the low byte, dirty words above
	maxFPPos uint8
	flags    uint8
}

// dirtyShift places the dirty words above the footprint in Line.words.
const dirtyShift = 8

// wordBits returns Line.words' bits for footprint fp and dirty words
// dirty.
func wordBits(fp, dirty mem.Footprint) uint16 { return uint16(fp) | uint16(dirty)<<dirtyShift }

// The flag byte's fields below mem.TagHighMask.
const (
	lineValid   uint8 = 1 << 0
	lineInstr   uint8 = 1 << 1
	tenantShift       = 2
	tenantMask  uint8 = MaxPartitionTenants - 1
)

// The tenant field must fit between the instruction bit and the tag
// bits.
var _ [1<<(mem.TagHighShift-tenantShift) - MaxPartitionTenants]struct{}

// NewLine returns a valid record for line la, whose tag in its cache is
// tag, with footprint fp and dirty words dirty, installed by tenant. A
// line outside the line space panics (mem.CheckLine): no record holds
// its tag.
func NewLine(la mem.LineAddr, tag uint64, fp, dirty mem.Footprint, tenant int, instr bool) Line {
	mem.CheckLine(la)
	k := mem.PackTag(tag)
	l := Line{tagLo: k.Lo, words: wordBits(fp, dirty), flags: k.Hi | lineValid | (uint8(tenant)&tenantMask)<<tenantShift}
	if instr {
		l.flags |= lineInstr
	}
	return l
}

// Tag returns the line's tag.
func (l *Line) Tag() uint64 { return mem.UnpackTag(l.tagLo, l.flags) }

// Valid reports whether the way holds a line.
func (l *Line) Valid() bool { return l.flags&lineValid != 0 }

// Instr reports whether the line holds instructions.
func (l *Line) Instr() bool { return l.flags&lineInstr != 0 }

// Tenant returns the tenant that installed the line.
func (l *Line) Tenant() uint8 { return l.flags >> tenantShift & tenantMask }

// Footprint returns the words used since the line was installed.
func (l *Line) Footprint() mem.Footprint { return mem.Footprint(l.words) }

// Dirty returns the line's written words; a line is dirty when any is.
func (l *Line) Dirty() mem.Footprint { return mem.Footprint(l.words >> dirtyShift) }

// MaxFPPos returns the deepest recency position at which the line's
// footprint changed.
func (l *Line) MaxFPPos() int { return int(l.maxFPPos) }

// holds reports whether l is valid and holds the tag k keys.
func (l *Line) holds(k mem.TagKey) bool { return k.Matches(l.tagLo, l.flags) && l.Valid() }

// use returns the words bits of a demand access to word: the word
// joins the footprint and, on a write, the dirty words.
func use(word int, write bool) uint16 {
	b := uint16(1) << uint(word)
	if write {
		b |= b << dirtyShift
	}
	return b
}

// Set is one set of an LRU tag array, MRU first. It is the tag array of
// the traditional cache, of the distill cache's LOC and of the
// reverter's ATD. Installs shift ways down from the MRU end, so invalid
// ways only ever trail the valid ones.
type Set []Line

// Find returns the recency position of the line holding k's tag, or -1.
//
//ldis:noalloc
func (s Set) Find(k mem.TagKey) int {
	for pos := range s {
		if s[pos].holds(k) {
			return pos
		}
	}
	return -1
}

// Access looks k's tag up and, on a hit, records a demand access to
// word: the word joins the footprint (raising MaxFPPos to the line's
// position when it is new), a write dirties it, and the line moves to
// MRU. It reports whether the line hit.
//
//ldis:noalloc
func (s Set) Access(k mem.TagKey, word int, write bool) bool {
	// MRU fast path: a hit on way 0 needs no promotion (and cannot
	// raise MaxFPPos), so it updates the line in place.
	if l := &s[0]; l.holds(k) {
		l.words |= use(word, write)
		return true
	}
	for pos := 1; pos < len(s); pos++ {
		if !s[pos].holds(k) {
			continue
		}
		l := s[pos]
		if !l.Footprint().Has(word) {
			l.maxFPPos = max(l.maxFPPos, uint8(pos))
		}
		l.words |= use(word, write)
		copy(s[1:pos+1], s[:pos])
		s[0] = l
		return true
	}
	return false
}

// Merge applies an L1 eviction notice to the line holding k's tag, if
// any, without moving it: fp joins its footprint (raising MaxFPPos to
// the line's position when new words appear) and dirty its dirty
// words. It reports whether the line was present.
//
//ldis:noalloc
func (s Set) Merge(k mem.TagKey, fp, dirty mem.Footprint) bool {
	pos := s.Find(k)
	if pos < 0 {
		return false
	}
	l := &s[pos]
	if l.Footprint().Or(fp) != l.Footprint() {
		l.maxFPPos = max(l.maxFPPos, uint8(pos))
	}
	l.words |= wordBits(fp, dirty)
	return true
}

// Victim returns the way a miss by tenant replaces: the LRU way, or
// the way q.Victim picks while q is active.
//
//ldis:noalloc
func (s Set) Victim(q *Quotas, tenant int) int {
	if !q.Active() {
		return len(s) - 1
	}
	var o Owners
	for pos := range s {
		o.Add(pos, s[pos].Valid(), s[pos].Tenant())
	}
	return q.Victim(&o, tenant)
}

// Install puts l at MRU in place of way pos, shifting the more recent
// ways down one, and returns the line way pos held (invalid when the
// way was free).
//
//ldis:noalloc
func (s Set) Install(pos int, l Line) Line {
	v := s[pos]
	copy(s[1:pos+1], s[:pos])
	s[0] = l
	return v
}
