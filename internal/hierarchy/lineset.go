package hierarchy

import "ldis/internal/mem"

// lineSet is an open-addressed hash set of line addresses backing the
// compulsory-miss bookkeeping. It replaces a map[mem.LineAddr]struct{}
// on the hot path: one mix + linear probe instead of a runtime map
// lookup, and zero allocation in steady state (the table grows only
// when it passes ~70% load).
//
// Lines are grouped into 64-line chunks: a slot holds one chunk's key,
// la>>6, and a presence mask with bit la&63 per line. Slot keys are
// biased by +1 so the zero key can mean "empty"; la>>6 is at most
// 2^58-1, so the bias cannot overflow. A program touches neighbouring
// lines, so a dense working set needs about one 16-byte slot per 64
// lines. In the worst case, where no two lines share a chunk (sparse
// keys, or a 128-shard run whose shard owns one line in 128), each
// line takes a slot of its own: 16 bytes at the same load, twice what
// a table of bare 8-byte line keys would spend.
type lineSet struct {
	slots []lineChunk
	used  int
}

// lineChunk is one slot: the biased chunk key and its presence mask.
type lineChunk struct {
	key  uint64
	mask uint64
}

const lineSetInitial = 1 << 8

func newLineSet() lineSet {
	return lineSet{slots: make([]lineChunk, lineSetInitial)}
}

// testAndSet reports whether la was already present, inserting it if
// not (so the first call for a line returns false, all later ones
// true).
//
//ldis:noalloc
func (s *lineSet) testAndSet(la mem.LineAddr) bool {
	chunk := uint64(la) >> 6
	bit := uint64(1) << (uint64(la) & 63)
	mask := uint64(len(s.slots) - 1)
	i := mem.Mix64(chunk) & mask
	for {
		c := &s.slots[i]
		switch c.key {
		case chunk + 1:
			had := c.mask&bit != 0
			c.mask |= bit
			return had
		case 0:
			c.key, c.mask = chunk+1, bit
			s.used++
			if uint64(s.used)*10 > uint64(len(s.slots))*7 {
				s.grow()
			}
			return false
		}
		i = (i + 1) & mask
	}
}

// grow quadruples the table and rehashes every resident chunk. The ×4
// factor keeps the total rehash work under 1.4 moves per resident
// chunk (a geometric series), versus 2 for doubling — measurable on
// the simulation hot path, where the compulsory set grows with the
// trace's working set.
func (s *lineSet) grow() {
	old := s.slots
	//ldis:alloc-ok amortized growth: geometric growth keeps steady-state inserts allocation-free
	s.slots = make([]lineChunk, len(old)*4)
	mask := uint64(len(s.slots) - 1)
	for _, c := range old {
		if c.key == 0 {
			continue
		}
		i := mem.Mix64(c.key-1) & mask
		for s.slots[i].key != 0 {
			i = (i + 1) & mask
		}
		s.slots[i] = c
	}
}
