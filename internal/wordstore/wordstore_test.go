package wordstore

import (
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"ldis/internal/mem"
)

// newSet returns a one-set store with recency stamps.
func newSet(ways int) *Store {
	st := NewStore(ways, 1, true)
	return &st
}

// inject appends lines to set 0 without touching its bookkeeping, so
// CheckInvariants sees a corrupted set.
func inject(st *Store, lines ...Line) {
	for _, l := range lines {
		st.lines[st.count[0]] = l
		st.count[0]++
	}
}

func TestRegionMask(t *testing.T) {
	if RegionMask(0, 8) != mem.FullFootprint {
		t.Error("full region mask wrong")
	}
	if RegionMask(2, 2) != mem.Footprint(0b1100) {
		t.Errorf("RegionMask(2,2) = %08b", RegionMask(2, 2))
	}
	if RegionMask(4, 4) != mem.Footprint(0b11110000) {
		t.Errorf("RegionMask(4,4) = %08b", RegionMask(4, 4))
	}
}

func TestWOCInstallIntoFree(t *testing.T) {
	s := newSet(2)
	_, ev := s.Install(0, NewLine(1, mem.FootprintOfWord(0), 0, 1), 0, 0)
	if len(ev) != 0 {
		t.Fatalf("install into empty set evicted %d lines", len(ev))
	}
	if s.Find(0, 1) < 0 {
		t.Fatal("line not findable")
	}
	if err := s.CheckInvariants(0); err != nil {
		t.Fatal(err)
	}
}

func TestWOCAlignment(t *testing.T) {
	s := newSet(1)
	// Install descending sizes 4,2,1,1: the random pick always prefers
	// fully free regions, so nothing is evicted and the way packs full.
	sizes := []int{4, 2, 1, 1}
	for i, sz := range sizes {
		words := mem.Footprint(0)
		for w := 0; w < sz; w++ {
			words = words.Set(w)
		}
		_, ev := s.Install(0, NewLine(uint64(i+1), words, 0, sz), uint64(i*3+1), 0)
		if len(ev) != 0 {
			t.Fatalf("install %d evicted %d lines prematurely", i, len(ev))
		}
		if err := s.CheckInvariants(0); err != nil {
			t.Fatal(err)
		}
	}
	// All 8 slots used.
	if s.bits[0].occ != mem.FullFootprint {
		t.Fatalf("occupancy %v", s.bits[0].occ)
	}
	for _, l := range s.Lines(0) {
		if l.Start()%l.Slots() != 0 {
			t.Errorf("line %d misaligned: start %d slots %d", l.Tag(), l.Start(), l.Slots())
		}
	}
}

func TestWOCReplacementEvictsWholeLines(t *testing.T) {
	s := newSet(1)
	// Two 4-slot lines fill the way.
	s.Install(0, NewLine(1, mem.Footprint(0b1111), 0, 4), 0, 0)
	s.Install(0, NewLine(2, mem.Footprint(0b1111), 0, 4), 0, 0)
	// Installing an 8-slot line must evict both.
	_, ev := s.Install(0, NewLine(3, mem.FullFootprint, 0, 8), 5, 0)
	if len(ev) != 2 {
		t.Fatalf("evicted %d lines, want 2", len(ev))
	}
	if s.Find(0, 1) >= 0 || s.Find(0, 2) >= 0 || s.Find(0, 3) < 0 {
		t.Error("contents wrong after 8-slot install")
	}
	if err := s.CheckInvariants(0); err != nil {
		t.Fatal(err)
	}
}

func TestWOCSmallInstallEvictsContainingLine(t *testing.T) {
	s := newSet(1)
	s.Install(0, NewLine(1, mem.FullFootprint, 0, 8), 0, 0)
	// A 1-slot install: the only eligible candidate is the head (slot 0)
	// of the 8-slot line, which must be evicted whole (head-bit rule).
	_, ev := s.Install(0, NewLine(2, mem.FootprintOfWord(3), 0, 1), 9, 0)
	if len(ev) != 1 || ev[0].Tag() != 1 {
		t.Fatalf("evictions = %+v", ev)
	}
	if err := s.CheckInvariants(0); err != nil {
		t.Fatal(err)
	}
	// The freed 7 slots are available for subsequent installs.
	for i := 0; i < 7; i++ {
		if _, ev := s.Install(0, NewLine(uint64(10+i), mem.FootprintOfWord(0), 0, 1), uint64(i), 0); len(ev) != 0 {
			t.Fatalf("install %d into freed space evicted %d lines", i, len(ev))
		}
	}
}

func TestWOCInstallPanicsOnBadSlots(t *testing.T) {
	s := newSet(1)
	for _, bad := range []int{0, 3, 5, 9, 16} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("slots=%d should panic", bad)
				}
			}()
			s.Install(0, NewLine(99, 1, 0, bad), 0, 0)
		}()
	}
}

func TestWOCDuplicateInstallPanics(t *testing.T) {
	s := newSet(1)
	s.Install(0, NewLine(7, 1, 0, 1), 0, 0)
	defer func() {
		if recover() == nil {
			t.Error("duplicate tag install should panic")
		}
	}()
	s.Install(0, NewLine(7, 1, 0, 1), 0, 0)
}

func TestWOCClear(t *testing.T) {
	s := newSet(2)
	s.Install(0, NewLine(1, 1, 0, 1), 0, 0)
	s.Install(0, NewLine(2, 3, 1, 2), 0, 0)
	removed := s.Clear(0)
	if len(removed) != 2 {
		t.Fatalf("clear removed %d", len(removed))
	}
	if len(s.Lines(0)) != 0 || s.bits[0].occ != 0 || s.bits[1].occ != 0 {
		t.Error("set not empty after clear")
	}
}

// Property: any sequence of installs keeps the set structurally sound
// and never exceeds capacity.
func TestWOCStressInvariants(t *testing.T) {
	f := func(ops []struct {
		Tag   uint16
		Used  uint8
		Rnd   uint64
		Dirty bool
	}) bool {
		s := newSet(2)
		for _, op := range ops {
			words := mem.Footprint(op.Used)
			if words == 0 {
				words = 1
			}
			tag := uint64(op.Tag)
			if s.Find(0, tag) >= 0 {
				continue
			}
			wl := NewLine(tag, words, 0, mem.Pow2WordsFor(words.Count()))
			if op.Dirty {
				wl.Dirty = words
			}
			s.Install(0, wl, op.Rnd, 0)
			if err := s.CheckInvariants(0); err != nil {
				t.Logf("invariant: %v", err)
				return false
			}
			total := 0
			for _, l := range s.Lines(0) {
				total += int(l.Slots())
			}
			if total > 16 {
				t.Logf("capacity exceeded: %d slots", total)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestHasFreeRegion(t *testing.T) {
	s := newSet(1)
	if !s.HasFreeRegion(0, 8) {
		t.Fatal("empty set must have a free 8-region")
	}
	s.Install(0, NewLine(1, mem.FullFootprint, 0, 8), 0, 0)
	if s.HasFreeRegion(0, 1) {
		t.Error("full way should have no free region")
	}
	s2 := newSet(1)
	s2.Install(0, NewLine(2, mem.Footprint(0b11), 0, 2), 0, 0)
	if !s2.HasFreeRegion(0, 4) {
		t.Error("half-empty way should have a free 4-region")
	}
	if s2.HasFreeRegion(0, 8) {
		t.Error("partially used way has no free 8-region")
	}
}

func TestInstallLRUPrefersOldest(t *testing.T) {
	s := newSet(1)
	// Two 4-slot lines with distinct ages.
	s.InstallLRU(0, NewLine(1, 0b1111, 0, 4), 10)
	s.InstallLRU(0, NewLine(2, 0b1111, 0, 4), 20)
	// No free 4-region remains: LRU install must evict tag 1 (older).
	_, ev := s.InstallLRU(0, NewLine(3, 0b1111, 0, 4), 30)
	if len(ev) != 1 || ev[0].Tag() != 1 {
		t.Errorf("evicted %+v, want tag 1", ev)
	}
	if s.Find(0, 2) < 0 || s.Find(0, 3) < 0 {
		t.Error("tags 2 and 3 should be resident")
	}
	if err := s.CheckInvariants(0); err != nil {
		t.Fatal(err)
	}
}

func TestInstallLRUUsesFreeRegionFirst(t *testing.T) {
	s := newSet(1)
	s.InstallLRU(0, NewLine(1, 0b1111, 0, 4), 1)
	// Half the way is free: no eviction expected.
	if _, ev := s.InstallLRU(0, NewLine(2, 0b1111, 0, 4), 2); len(ev) != 0 {
		t.Errorf("free region available but evicted %+v", ev)
	}
}

func TestInstallLRUChecksArguments(t *testing.T) {
	s := newSet(1)
	defer func() {
		if recover() == nil {
			t.Error("expected panic on bad slots")
		}
	}()
	s.InstallLRU(0, NewLine(9, 1, 0, 3), 0)
}

// placed returns a line as the store would place it in way at start,
// without any of the store's checks.
func placed(tag uint64, words, dirty mem.Footprint, way, start, slots int) Line {
	l := NewLine(tag, words, dirty, slots)
	l.way |= uint8(way)
	l.place |= uint8(start)
	return l
}

func TestCheckInvariantsDetectsCorruption(t *testing.T) {
	cases := []Line{
		placed(2, 0b11, 0, 0, 1, 2),   // misaligned
		placed(3, 0, 0, 0, 0, 1),      // no words
		placed(4, 0b1, 0b10, 0, 0, 1), // dirty outside words
	}
	for i, bad := range cases {
		s := newSet(1)
		inject(s, bad)
		if err := s.CheckInvariants(0); err == nil {
			t.Errorf("case %d: corruption not detected: %+v", i, bad)
		}
	}
	// Overlap detection.
	s := newSet(1)
	inject(s, placed(1, 0b11, 0, 0, 0, 2), placed(2, 0b11, 0, 0, 0, 2))
	if err := s.CheckInvariants(0); err == nil {
		t.Error("overlap not detected")
	}
}

// TestCheckInvariantsRejectsBadPlacement covers placements the
// bookkeeping masks cannot show: each row's occupancy and head bitmaps
// are the ones its line truncates to, so only the bounds and way
// checks can reject it, and none may panic. A slot count that is not
// a power of two up to 8 has no encoding (NewLine refuses it).
func TestCheckInvariantsRejectsBadPlacement(t *testing.T) {
	cases := []struct {
		name        string
		line        Line
		occ, heads  mem.Footprint
		wantInError string
	}{
		{"region past the way", placed(5, 1, 0, 0, 4, 8), 0xf0, 0x10, "misaligned"},
		{"way out of range", placed(6, 1, 0, 1, 0, 1), 0, 0, "way 1 of 1"},
		{"way 63", placed(7, 1, 0, 63, 0, 1), 0, 0, "way 63 of 1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := newSet(1)
			inject(s, tc.line)
			s.bits[0].occ, s.bits[0].heads = tc.occ, tc.heads
			err := s.CheckInvariants(0)
			if err == nil || !strings.Contains(err.Error(), tc.wantInError) {
				t.Fatalf("CheckInvariants() = %v, want an error containing %q", err, tc.wantInError)
			}
		})
	}
}

// installSeq drives the same pseudo-random install sequence into a
// fresh 4-way set under wayMask and returns the set.
func installSeq(t *testing.T, wayMask uint64) *Store {
	t.Helper()
	s := newSet(4)
	x := uint64(99)
	for i := 0; i < 400; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		tag := x >> 54
		if s.Find(0, tag) >= 0 {
			continue
		}
		words := mem.Footprint(x>>8) | 1
		s.Install(0, NewLine(tag, words, 0, mem.Pow2WordsFor(words.Count())), x>>17, wayMask)
		if err := s.CheckInvariants(0); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// sameLines reports whether two sets hold identical lines in identical
// places.
func sameLines(a, b *Store) bool { return slices.Equal(a.Lines(0), b.Lines(0)) }

// A way mask confines placements to the selected ways; bits above the
// way count are ignored, and a mask selecting no way (after that)
// selects every way, exactly like the zero mask and the full mask.
func TestWOCInstallWayMask(t *testing.T) {
	masked := installSeq(t, 0b0110)
	for _, l := range masked.Lines(0) {
		if l.Way() != 1 && l.Way() != 2 {
			t.Fatalf("line %x placed in way %d outside mask 0b0110", l.Tag(), l.Way())
		}
	}
	if masked.bits[0].occ != 0 || masked.bits[3].occ != 0 {
		t.Fatal("masked-out ways occupied")
	}
	if !sameLines(masked, installSeq(t, 0b0110|0xf0)) {
		t.Error("mask bits above the way count changed placement")
	}
	all := installSeq(t, 0)
	if all.bits[0].occ == 0 || all.bits[3].occ == 0 {
		t.Error("zero mask did not use every way")
	}
	for _, m := range []uint64{0b1111, 0xf0} {
		if !sameLines(all, installSeq(t, m)) {
			t.Errorf("mask %#x placed lines differently from the zero mask", m)
		}
	}
}

// TestLineRecordSize pins the resident-line record at 8 bytes, so a
// field that re-pads it fails here.
func TestLineRecordSize(t *testing.T) {
	if got := unsafe.Sizeof(Line{}); got != 8 {
		t.Errorf("Line is %d bytes, want 8", got)
	}
}

// TestNewStoreAllocsIndependentOfSets pins NewStore at one allocation
// per backing array (lines, counts, way bits, the eviction buffer and,
// with recency, the stamps and InstallLRU's age scratch) whatever the
// set count.
func TestNewStoreAllocsIndependentOfSets(t *testing.T) {
	for _, recency := range []bool{false, true} {
		for _, sets := range []int{1, 2048} {
			want := 4.0
			if recency {
				want = 6
			}
			if got := testing.AllocsPerRun(10, func() { NewStore(2, sets, recency) }); got != want {
				t.Errorf("NewStore(2, %d, %v) allocates %.0f times, want %.0f", sets, recency, got, want)
			}
		}
	}
}

// Lines whose tags differ only in bits 32-33, which the record keeps
// outside its 32-bit tag field, are distinct: each is found under its
// own tag, and every field reads back as installed. A tag beyond the
// 34-bit line space has no encoding and panics.
func TestHighTagBits(t *testing.T) {
	s := newSet(4)
	const low = 0x89abcdef
	for hi := uint64(0); hi < 4; hi++ {
		tag := hi<<32 | low
		s.Install(0, NewLine(tag, 0b11, 0b10, 2), hi, 0)
	}
	for hi := uint64(0); hi < 4; hi++ {
		tag := hi<<32 | low
		i := s.Find(0, tag)
		if i < 0 {
			t.Fatalf("tag %#x not found", tag)
		}
		l := s.Lines(0)[i]
		if l.Tag() != tag || l.Words != 0b11 || l.Dirty != 0b10 || l.Slots() != 2 || l.Start()%2 != 0 || l.Way() >= 4 {
			t.Errorf("tag %#x reads back as %+v: tag %#x way %d start %d slots %d", tag, l, l.Tag(), l.Way(), l.Start(), l.Slots())
		}
	}
	if err := s.CheckInvariants(0); err != nil {
		t.Fatal(err)
	}
	if s.Find(0, 4<<32|low) >= 0 {
		t.Error("a tag beyond the line space matched a resident line")
	}
	defer func() {
		if recover() == nil {
			t.Error("NewLine with tag 1<<34 did not panic")
		}
	}()
	NewLine(1<<mem.LineBits, 1, 0, 1)
}
