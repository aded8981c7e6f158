package mrc

import "ldis/internal/mem"

// emptyKey marks an unused slot in lineTable. Line addresses occupy at
// most PhysAddrBits-LineShift bits, so all-ones can never collide with
// a real line.
const emptyKey = ^uint64(0)

// lineTable maps a line address to its most recent stack position and
// cumulative word footprint. It is a linear-probe open-addressing
// table over parallel slices rather than a Go map so the per-access
// hot path stays allocation-free (map writes may allocate; these slice
// stores cannot, and growth is amortized behind //ldis:alloc-ok).
// Lines evicted from the SHARDS fixed-size sample are deleted outright
// (backward-shift deletion, no tombstones), so occupancy tracks the
// live sample rather than every line ever sampled, and a table sized
// by tableSlotsFor for the sample bound never grows.
type lineTable struct {
	keys []uint64
	pos  []int32
	fp   []mem.Footprint
	n    int // occupied slots, all live
}

// newLineTable returns an empty table of size slots, a power of two.
func newLineTable(size int) lineTable {
	t := lineTable{
		keys: make([]uint64, size),
		pos:  make([]int32, size),
		fp:   make([]mem.Footprint, size),
	}
	for i := range t.keys {
		t.keys[i] = emptyKey
	}
	return t
}

// tableSlotsFor returns the smallest power-of-two table size that
// holds keys entries at no more than 3/4 load, so inserting up to keys
// entries never triggers grow.
func tableSlotsFor(keys int) int {
	size := 1
	for size*3 < keys*4 {
		size *= 2
	}
	return size
}

// find returns the slot index holding key, or -1.
//
//ldis:noalloc
func (t *lineTable) find(key uint64) int {
	mask := uint64(len(t.keys) - 1)
	for i := mem.SplitMix64(key) & mask; ; i = (i + 1) & mask {
		switch t.keys[i] {
		case key:
			return int(i)
		case emptyKey:
			return -1
		}
	}
}

// insert claims a slot for key (which must be absent) and returns its
// index. Growth doubles the table at 3/4 load, amortized O(1).
//
//ldis:noalloc
func (t *lineTable) insert(key uint64) int {
	if t.n*4 >= len(t.keys)*3 {
		t.grow()
	}
	mask := uint64(len(t.keys) - 1)
	i := mem.SplitMix64(key) & mask
	for t.keys[i] != emptyKey {
		i = (i + 1) & mask
	}
	t.keys[i] = key
	t.n++
	return int(i)
}

// remove deletes the entry at slot i. Later members of its probe
// cluster shift back into the hole whenever their home slot does not
// lie cyclically in (hole, current], which keeps every remaining key
// reachable from its home slot without leaving a tombstone.
//
//ldis:noalloc
func (t *lineTable) remove(i int) {
	mask := uint64(len(t.keys) - 1)
	hole := uint64(i)
	for j := (hole + 1) & mask; t.keys[j] != emptyKey; j = (j + 1) & mask {
		home := mem.SplitMix64(t.keys[j]) & mask
		if (j-home)&mask < (j-hole)&mask {
			continue // home in (hole, j]: moving it back would hide it
		}
		t.keys[hole], t.pos[hole], t.fp[hole] = t.keys[j], t.pos[j], t.fp[j]
		hole = j
	}
	t.keys[hole] = emptyKey
	t.n--
}

func (t *lineTable) grow() {
	old := *t
	size := len(old.keys) * 2
	//ldis:alloc-ok amortized open-addressing growth; doubling at 3/4 load keeps per-access cost O(1)
	t.keys = make([]uint64, size)
	//ldis:alloc-ok amortized open-addressing growth; doubling at 3/4 load keeps per-access cost O(1)
	t.pos = make([]int32, size)
	//ldis:alloc-ok amortized open-addressing growth; doubling at 3/4 load keeps per-access cost O(1)
	t.fp = make([]mem.Footprint, size)
	for i := range t.keys {
		t.keys[i] = emptyKey
	}
	t.n = 0
	for i, k := range old.keys {
		if k == emptyKey {
			continue
		}
		j := t.insert(k)
		t.pos[j] = old.pos[i]
		t.fp[j] = old.fp[i]
	}
}

// sampleRef identifies one tracked line in the fixed-size SHARDS
// max-heap, ordered by hash (ties broken by key so eviction order is
// deterministic even across hash collisions).
type sampleRef struct {
	hash uint64
	key  uint64
}

// sampleHeap is a max-heap of tracked lines by spatial hash. When the
// sample exceeds MaxSamples, the maximum-hash line is evicted and the
// threshold lowered to its hash, which (a) shrinks the effective
// sampling rate and (b) guarantees the evicted line can never re-enter.
type sampleHeap struct {
	refs []sampleRef
}

//ldis:noalloc
func (h *sampleHeap) less(a, b sampleRef) bool {
	if a.hash != b.hash {
		return a.hash > b.hash // max-heap by hash
	}
	return a.key > b.key
}

// push adds a tracked line. The append targets the receiver's own
// slice, whose capacity New sizes for the whole sample bound, so it
// never grows.
//
//ldis:noalloc
func (h *sampleHeap) push(r sampleRef) {
	h.refs = append(h.refs, r)
	i := len(h.refs) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(h.refs[i], h.refs[parent]) {
			break
		}
		h.refs[i], h.refs[parent] = h.refs[parent], h.refs[i]
		i = parent
	}
}

// pop removes and returns the maximum-hash line.
//
//ldis:noalloc
func (h *sampleHeap) pop() sampleRef {
	top := h.refs[0]
	last := len(h.refs) - 1
	h.refs[0] = h.refs[last]
	h.refs = h.refs[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < len(h.refs) && h.less(h.refs[l], h.refs[best]) {
			best = l
		}
		if r < len(h.refs) && h.less(h.refs[r], h.refs[best]) {
			best = r
		}
		if best == i {
			return top
		}
		h.refs[i], h.refs[best] = h.refs[best], h.refs[i]
		i = best
	}
}
