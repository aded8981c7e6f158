package wordstore

import (
	"testing"

	"ldis/internal/mem"
)

// findAlias searches for two tags with the same member index and the
// same compressed signature but different superblocks. wantCkCollide
// additionally requires (or forbids) a checksum collision.
func findAlias(t *testing.T, tt *ToucheTags, wantCkCollide bool) (a, b uint64) {
	t.Helper()
	base := uint64(0x40) // member 0 of superblock 0x10
	sbA := base >> tt.sbShift
	for cand := base + uint64(tt.cfg.SuperblockLines); cand < base+1<<20; cand += uint64(tt.cfg.SuperblockLines) {
		sbB := cand >> tt.sbShift
		if sbB == sbA || tt.sig(sbB) != tt.sig(sbA) {
			continue
		}
		if (tt.checksum(sbB) == tt.checksum(sbA)) == wantCkCollide {
			return base, cand
		}
	}
	t.Fatalf("no alias pair found (wantCkCollide=%v)", wantCkCollide)
	return 0, 0
}

func installWhole(s *Store, tag uint64) {
	s.Install(0, NewLine(tag, mem.FullFootprint, 0, mem.WordsPerLine), 0, 0)
}

// A signature alias with a DIFFERING checksum must miss safely and be
// counted as a detected alias.
func TestToucheAliasChecksumDisambiguates(t *testing.T) {
	tt := NewToucheTags(ToucheConfig{TagBits: 6, ChecksumBits: 16, Seed: 7}, 2)
	s := newSet(2)
	a, b := findAlias(t, tt, false)
	installWhole(s, a)
	if got := tt.Find(s, 0, a); got < 0 || s.Lines(0)[got].Tag() != a {
		t.Fatalf("exact lookup of %x: got %d", a, got)
	}
	if got := tt.Find(s, 0, b); got != -1 {
		t.Fatalf("alias lookup of %x returned resident index %d (tag %x): false hit", b, got, s.Lines(0)[got].Tag())
	}
	if tt.Stats.AliasSafeMisses != 1 || tt.Stats.ChecksumCollisions != 0 {
		t.Fatalf("stats = %+v, want 1 alias safe miss, 0 checksum collisions", tt.Stats)
	}
}

// A checksum collision on top of a signature alias — the deepest
// collision the scheme can suffer — must STILL be a safe miss, never a
// false hit: the final data-integrity verification catches it.
func TestToucheChecksumCollisionSafeMiss(t *testing.T) {
	tt := NewToucheTags(ToucheConfig{TagBits: 4, ChecksumBits: 1, Seed: 3}, 2)
	s := newSet(2)
	a, b := findAlias(t, tt, true)
	installWhole(s, a)
	if got := tt.Find(s, 0, b); got != -1 {
		t.Fatalf("checksum-colliding alias lookup returned %d: false hit", got)
	}
	if tt.Stats.ChecksumCollisions != 1 || tt.Stats.AliasSafeMisses != 1 {
		t.Fatalf("stats = %+v, want the collision counted", tt.Stats)
	}
}

// PrepareInstall must evict a resident (member, signature) alias so
// the compressed store stays single-match.
func TestTouchePrepareInstallEvictsAlias(t *testing.T) {
	tt := NewToucheTags(ToucheConfig{TagBits: 6, ChecksumBits: 8, Seed: 7}, 2)
	s := newSet(2)
	a, b := findAlias(t, tt, false)
	installWhole(s, a)
	ev := tt.PrepareInstall(s, 0, b)
	if len(ev) != 1 || ev[0].Tag() != a {
		t.Fatalf("PrepareInstall evicted %v, want the alias %x", ev, a)
	}
	if tt.Stats.AliasEvictions != 1 {
		t.Fatalf("stats = %+v, want 1 alias eviction", tt.Stats)
	}
	installWhole(s, b)
	if err := tt.CheckInvariants(s, 0); err != nil {
		t.Fatal(err)
	}
}

// Superblock-entry pressure evicts the fewest-words superblock whole.
func TestToucheSuperblockPressure(t *testing.T) {
	tt := NewToucheTags(ToucheConfig{SuperblockLines: 4, SuperblockEntries: 2, Seed: 1}, 4)
	s := newSet(4)
	// Superblock 1: two lines, 4 words each. Superblock 2: one line,
	// 2 words — the cheapest victim.
	s.Install(0, NewLine(4, 0x0f, 0, 4), 0, 0)
	s.Install(0, NewLine(5, 0x0f, 0, 4), 0, 0)
	s.Install(0, NewLine(8, 0x03, 0, 2), 0, 0)
	// Installing a line of superblock 3 exceeds the two-entry budget.
	ev := tt.PrepareInstall(s, 0, 12)
	if len(ev) != 1 || ev[0].Tag() != 8 {
		t.Fatalf("evicted %v, want the 2-word line of superblock 2", ev)
	}
	if tt.Stats.SuperblockEvictions != 1 {
		t.Fatalf("stats = %+v, want 1 superblock eviction", tt.Stats)
	}
	installWhole(s, 12)
	if err := tt.CheckInvariants(s, 0); err != nil {
		t.Fatal(err)
	}
	// Re-installing into a RESIDENT superblock must evict nothing.
	s.RemoveAt(0, s.Find(0, 12))
	if ev := tt.PrepareInstall(s, 0, 13); len(ev) != 0 {
		t.Fatalf("resident-superblock install evicted %v", ev)
	}
}

// Randomized stress with deliberately tiny hashes: whatever collides,
// a compressed lookup must never resolve to a line with a different
// tag, and the representability invariants must hold after every
// install.
func TestToucheStressNeverFalseHit(t *testing.T) {
	tt := NewToucheTags(ToucheConfig{TagBits: 3, ChecksumBits: 1, SuperblockEntries: 4, Seed: 11}, 2)
	s := newSet(2)
	rng := uint64(99)
	next := func(n uint64) uint64 {
		rng = rng*6364136223846793005 + 1442695040888963407
		return (rng >> 33) % n
	}
	for i := 0; i < 20000; i++ {
		tag := next(512)
		if got := tt.Find(s, 0, tag); got >= 0 && s.Lines(0)[got].Tag() != tag {
			t.Fatalf("false hit: lookup %x resolved to %x", tag, s.Lines(0)[got].Tag())
		}
		if s.Find(0, tag) < 0 {
			tt.PrepareInstall(s, 0, tag)
			words := mem.Footprint(1<<next(8)) | 1
			slots := mem.Pow2WordsFor(words.Count())
			s.Install(0, NewLine(tag, words, 0, slots), next(1<<32), 0)
			if err := tt.CheckInvariants(s, 0); err != nil {
				t.Fatalf("after installing %x: %v", tag, err)
			}
			if err := s.CheckInvariants(0); err != nil {
				t.Fatal(err)
			}
		}
	}
	if tt.Stats.AliasSafeMisses == 0 || tt.Stats.AliasEvictions == 0 {
		t.Fatalf("stress produced no collisions (stats %+v); hashes not small enough", tt.Stats)
	}
}
