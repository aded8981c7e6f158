package hierarchy

import (
	"testing"

	"ldis/internal/mem"
)

// lineSetKeys returns n keys of splitmix64 sequence seed, each reduced
// modulo span.
func lineSetKeys(seed uint64, n int, span uint64) []mem.LineAddr {
	keys := make([]mem.LineAddr, n)
	for i := range keys {
		seed += 0x9e3779b97f4a7c15
		keys[i] = mem.LineAddr(mem.Mix64(seed) % span)
	}
	return keys
}

// TestLineSetMatchesMap drives testAndSet and a map side by side over
// dense, shard-strided, sparse and repeated keys. Every kind crosses at
// least three ×4 growths, and each growth is checked at its boundary:
// it fires on the first chunk that takes the load past 70%, and every
// key inserted before it is still present after it.
func TestLineSetMatchesMap(t *testing.T) {
	maxLine := mem.LineOf(mem.AddrMask)
	strided := func(shards, shard uint64, n int) []mem.LineAddr {
		keys := make([]mem.LineAddr, n)
		for i := range keys {
			keys[i] = mem.LineAddr(uint64(i)*shards + shard)
		}
		return keys
	}
	dense := make([]mem.LineAddr, 3000*64)
	for i := range dense {
		dense[i] = mem.LineAddr(i)
	}
	sparse := append(lineSetKeys(1, 4000, uint64(maxLine)+1), 0, maxLine, ^mem.LineAddr(0))
	// Repeated: 4000 distinct sparse keys, each drawn about four times
	// in random order, so growths fire between repeats.
	distinct := lineSetKeys(2, 4000, uint64(maxLine)+1)
	repeated := make([]mem.LineAddr, 16000)
	for i, r := range lineSetKeys(3, len(repeated), uint64(len(distinct))) {
		repeated[i] = distinct[r]
	}
	cases := []struct {
		name string
		keys []mem.LineAddr
	}{
		{"dense", dense},
		{"shard-2-of-2", strided(2, 1, 3000*32)},
		{"shard-127-of-128", strided(128, 127, 3000)},
		{"sparse", sparse},
		{"repeated", repeated},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := newLineSet()
			ref := make(map[mem.LineAddr]bool)
			var inserted []mem.LineAddr // ref's keys, in insertion order
			chunks := make(map[uint64]bool)
			growths := 0
			for i, la := range tc.keys {
				before, used := len(s.slots), s.used
				if got, want := s.testAndSet(la), ref[la]; got != want {
					t.Fatalf("key %d (%#x): testAndSet = %v, map says %v", i, uint64(la), got, want)
				}
				if !ref[la] {
					ref[la] = true
					inserted = append(inserted, la)
				}
				chunks[uint64(la)>>6] = true
				if s.used != len(chunks) {
					t.Fatalf("key %d: %d slots used, %d distinct chunks", i, s.used, len(chunks))
				}
				if len(s.slots) == before {
					continue
				}
				growths++
				if len(s.slots) != 4*before || used != before*7/10 {
					t.Fatalf("key %d: grew %d -> %d slots at %d used, want ×4 at %d",
						i, before, len(s.slots), used, before*7/10)
				}
				for _, k := range inserted {
					if !s.testAndSet(k) {
						t.Fatalf("key %#x lost in growth to %d slots", uint64(k), len(s.slots))
					}
				}
			}
			if growths < 3 {
				t.Fatalf("%d growths, want at least 3", growths)
			}
			for _, k := range inserted {
				if !s.testAndSet(k) {
					t.Fatalf("key %#x absent at the end", uint64(k))
				}
			}
		})
	}
}

// TestLineSetSteadyStateAllocatesNothing pins zero allocations for
// every insert or lookup that does not grow the table: a new chunk, a
// new line in a present chunk, and a present line.
func TestLineSetSteadyStateAllocatesNothing(t *testing.T) {
	s := newLineSet()
	var next mem.LineAddr
	// lineSetInitial*7/10 new chunks fit before the first growth.
	if n := testing.AllocsPerRun(lineSetInitial*7/10-1, func() {
		s.testAndSet(next)
		next += 64
	}); n != 0 {
		t.Errorf("new-chunk insert allocates %.1f times", n)
	}
	next = 1
	if n := testing.AllocsPerRun(63, func() {
		s.testAndSet(next)
		next++
	}); n != 0 {
		t.Errorf("new line in a present chunk allocates %.1f times", n)
	}
	if n := testing.AllocsPerRun(100, func() { s.testAndSet(5) }); n != 0 {
		t.Errorf("present-line lookup allocates %.1f times", n)
	}
}
