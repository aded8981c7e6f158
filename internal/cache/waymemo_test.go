package cache

import (
	"testing"

	"ldis/internal/mem"
)

func memoCfg() Config {
	return Config{
		Name: "wm", SizeBytes: 64 * 8 * mem.LineSize, Ways: 8,
		WayMemo: &WayMemoConfig{EntriesPerSet: 4},
	}
}

// The memo is accounting-only: every functional counter must match a
// memo-less twin access for access, and a memo match must always be a
// hit (MemoHits never exceeds Hits).
func TestWayMemoFunctionallyTransparent(t *testing.T) {
	base := New(Config{Name: "b", SizeBytes: 64 * 8 * mem.LineSize, Ways: 8})
	memo := New(memoCfg())
	rng := uint64(7)
	next := func(n uint64) uint64 {
		rng = rng*6364136223846793005 + 1442695040888963407
		return (rng >> 33) % n
	}
	for i := 0; i < 200_000; i++ {
		la := mem.LineAddr(next(64 * 24))
		word := int(next(8))
		write := next(4) == 0
		if access(base, la, word, write) != access(memo, la, word, write) {
			t.Fatalf("access %d: outcomes diverge", i)
		}
		if i%10_000 == 0 {
			if err := memo.CheckMemoInvariants(); err != nil {
				t.Fatal(err)
			}
		}
	}
	b, m := base.Stats(), memo.Stats()
	if b.Hits != m.Hits || b.Misses != m.Misses || b.Evictions != m.Evictions || b.Writebacks != m.Writebacks {
		t.Fatalf("functional counters diverge: base %+v memo %+v", b, m)
	}
	if m.MemoRefs != m.Accesses {
		t.Fatalf("memo consulted on %d of %d accesses", m.MemoRefs, m.Accesses)
	}
	if m.MemoHits == 0 || m.MemoHits > m.Hits {
		t.Fatalf("memo hits %d outside (0, hits=%d]", m.MemoHits, m.Hits)
	}
	if want := m.MemoHits * uint64(memo.Config().Ways-1); m.MemoProbesSkipped != want {
		t.Fatalf("probes skipped %d, want %d", m.MemoProbesSkipped, want)
	}
}

// Re-touching the MRU line must be a memo hit; an evicted line's memo
// entry must not survive (no stale match after eviction).
func TestWayMemoInvalidateOnEvict(t *testing.T) {
	c := New(memoCfg())
	la := mem.LineAddr(3)
	access(c, la, 0, false) // miss + fill records the memo
	access(c, la, 1, false) // must match
	if c.Stats().MemoHits != 1 {
		t.Fatalf("memo hits %d after refill+retouch, want 1", c.Stats().MemoHits)
	}
	// March 8 distinct tags through the set to evict la.
	for i := 1; i <= 8; i++ {
		access(c, la+mem.LineAddr(i*64), 0, false)
	}
	if c.Lookup(la) {
		t.Fatal("victim still resident; widen the march")
	}
	if err := c.CheckMemoInvariants(); err != nil {
		t.Fatal(err)
	}
	hitsBefore := c.Stats().MemoHits
	access(c, la, 0, false) // miss: memo must not claim it
	if c.Stats().MemoHits != hitsBefore {
		t.Fatal("memo matched an absent line")
	}
}

// The memo sits on the fused access+install hot path; it must not add
// an allocation.
func TestWayMemoAccessInstallZeroAllocs(t *testing.T) {
	c := New(memoCfg())
	i := uint64(0)
	if n := testing.AllocsPerRun(1000, func() {
		l := mem.LineAddr(i*64 + 3)
		i++
		access(c, l, 0, false)
		access(c, l, 1, true) // memo hit path
	}); n != 0 {
		t.Errorf("memoized access path allocates %.1f/op", n)
	}
}
