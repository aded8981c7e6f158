package wordstore

import (
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"ldis/internal/mem"
)

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
	s := NewSet(2)
	ev := s.Install(Line{Tag: 1, Words: mem.FootprintOfWord(0), Slots: 1}, 0, 0)
	if len(ev) != 0 {
		t.Fatalf("install into empty set evicted %d lines", len(ev))
	}
	if s.Find(1) < 0 {
		t.Fatal("line not findable")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestWOCAlignment(t *testing.T) {
	s := NewSet(1)
	// Install descending sizes 4,2,1,1: the random pick always prefers
	// fully free regions, so nothing is evicted and the way packs full.
	sizes := []uint8{4, 2, 1, 1}
	for i, sz := range sizes {
		words := mem.Footprint(0)
		for w := 0; w < int(sz); w++ {
			words = words.Set(w)
		}
		ev := s.Install(Line{Tag: uint64(i + 1), Words: words, Slots: sz}, uint64(i*3+1), 0)
		if len(ev) != 0 {
			t.Fatalf("install %d evicted %d lines prematurely", i, len(ev))
		}
		if err := s.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
	// All 8 slots used.
	if s.occ[0] != mem.FullFootprint {
		t.Fatalf("occupancy %v", s.occ[0])
	}
	for _, l := range s.Lines {
		if l.Start%l.Slots != 0 {
			t.Errorf("line %d misaligned: start %d slots %d", l.Tag, l.Start, l.Slots)
		}
	}
}

func TestWOCReplacementEvictsWholeLines(t *testing.T) {
	s := NewSet(1)
	// Two 4-slot lines fill the way.
	s.Install(Line{Tag: 1, Words: mem.Footprint(0b1111), Slots: 4}, 0, 0)
	s.Install(Line{Tag: 2, Words: mem.Footprint(0b1111), Slots: 4}, 0, 0)
	// Installing an 8-slot line must evict both.
	ev := s.Install(Line{Tag: 3, Words: mem.FullFootprint, Slots: 8}, 5, 0)
	if len(ev) != 2 {
		t.Fatalf("evicted %d lines, want 2", len(ev))
	}
	if s.Find(1) >= 0 || s.Find(2) >= 0 || s.Find(3) < 0 {
		t.Error("contents wrong after 8-slot install")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestWOCSmallInstallEvictsContainingLine(t *testing.T) {
	s := NewSet(1)
	s.Install(Line{Tag: 1, Words: mem.FullFootprint, Slots: 8}, 0, 0)
	// A 1-slot install: the only eligible candidate is the head (slot 0)
	// of the 8-slot line, which must be evicted whole (head-bit rule).
	ev := s.Install(Line{Tag: 2, Words: mem.FootprintOfWord(3), Slots: 1}, 9, 0)
	if len(ev) != 1 || ev[0].Tag != 1 {
		t.Fatalf("evictions = %+v", ev)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// The freed 7 slots are available for subsequent installs.
	for i := 0; i < 7; i++ {
		if ev := s.Install(Line{Tag: uint64(10 + i), Words: mem.FootprintOfWord(0), Slots: 1}, uint64(i), 0); len(ev) != 0 {
			t.Fatalf("install %d into freed space evicted %d lines", i, len(ev))
		}
	}
}

func TestWOCInstallPanicsOnBadSlots(t *testing.T) {
	s := NewSet(1)
	for _, bad := range []uint8{0, 3, 5, 9} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("slots=%d should panic", bad)
				}
			}()
			s.Install(Line{Tag: 99, Words: 1, Slots: bad}, 0, 0)
		}()
	}
}

func TestWOCDuplicateInstallPanics(t *testing.T) {
	s := NewSet(1)
	s.Install(Line{Tag: 7, Words: 1, Slots: 1}, 0, 0)
	defer func() {
		if recover() == nil {
			t.Error("duplicate tag install should panic")
		}
	}()
	s.Install(Line{Tag: 7, Words: 1, Slots: 1}, 0, 0)
}

func TestWOCClear(t *testing.T) {
	s := NewSet(2)
	s.Install(Line{Tag: 1, Words: 1, Slots: 1}, 0, 0)
	s.Install(Line{Tag: 2, Words: 3, Dirty: 1, Slots: 2}, 0, 0)
	removed := s.Clear()
	if len(removed) != 2 {
		t.Fatalf("clear removed %d", len(removed))
	}
	if len(s.Lines) != 0 || s.occ[0] != 0 || s.occ[1] != 0 {
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
		s := NewSet(2)
		for _, op := range ops {
			words := mem.Footprint(op.Used)
			if words == 0 {
				words = 1
			}
			tag := uint64(op.Tag)
			if s.Find(tag) >= 0 {
				continue
			}
			wl := Line{Tag: tag, Words: words, Slots: uint8(mem.Pow2WordsFor(words.Count()))}
			if op.Dirty {
				wl.Dirty = words
			}
			s.Install(wl, op.Rnd, 0)
			if err := s.CheckInvariants(); err != nil {
				t.Logf("invariant: %v", err)
				return false
			}
			total := 0
			for _, l := range s.Lines {
				total += int(l.Slots)
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

func TestWays(t *testing.T) {
	s := NewSet(3)
	if s.Ways() != 3 {
		t.Errorf("Ways = %d", s.Ways())
	}
}

func TestHasFreeRegion(t *testing.T) {
	s := NewSet(1)
	if !s.HasFreeRegion(8) {
		t.Fatal("empty set must have a free 8-region")
	}
	s.Install(Line{Tag: 1, Words: mem.FullFootprint, Slots: 8}, 0, 0)
	if s.HasFreeRegion(1) {
		t.Error("full way should have no free region")
	}
	s2 := NewSet(1)
	s2.Install(Line{Tag: 2, Words: mem.Footprint(0b11), Slots: 2}, 0, 0)
	if !s2.HasFreeRegion(4) {
		t.Error("half-empty way should have a free 4-region")
	}
	if s2.HasFreeRegion(8) {
		t.Error("partially used way has no free 8-region")
	}
}

func TestOccupiedSlots(t *testing.T) {
	s := NewSet(2)
	if s.OccupiedSlots() != 0 {
		t.Fatal("empty set should have 0 slots used")
	}
	s.Install(Line{Tag: 1, Words: 1, Slots: 1}, 0, 0)
	s.Install(Line{Tag: 2, Words: 0b1111, Slots: 4}, 0, 0)
	if got := s.OccupiedSlots(); got != 5 {
		t.Errorf("OccupiedSlots = %d, want 5", got)
	}
}

func TestInstallLRUPrefersOldest(t *testing.T) {
	s := NewSet(1)
	// Two 4-slot lines with distinct ages.
	s.Install(Line{Tag: 1, Words: 0b1111, Slots: 4, LastUse: 10}, 0, 0)
	s.Install(Line{Tag: 2, Words: 0b1111, Slots: 4, LastUse: 20}, 0, 0)
	// No free 4-region remains: LRU install must evict tag 1 (older).
	ev := s.InstallLRU(Line{Tag: 3, Words: 0b1111, Slots: 4, LastUse: 30})
	if len(ev) != 1 || ev[0].Tag != 1 {
		t.Errorf("evicted %+v, want tag 1", ev)
	}
	if s.Find(2) < 0 || s.Find(3) < 0 {
		t.Error("tags 2 and 3 should be resident")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestInstallLRUUsesFreeRegionFirst(t *testing.T) {
	s := NewSet(1)
	s.Install(Line{Tag: 1, Words: 0b1111, Slots: 4, LastUse: 1}, 0, 0)
	// Half the way is free: no eviction expected.
	if ev := s.InstallLRU(Line{Tag: 2, Words: 0b1111, Slots: 4, LastUse: 2}); len(ev) != 0 {
		t.Errorf("free region available but evicted %+v", ev)
	}
}

func TestInstallLRUChecksArguments(t *testing.T) {
	s := NewSet(1)
	defer func() {
		if recover() == nil {
			t.Error("expected panic on bad slots")
		}
	}()
	s.InstallLRU(Line{Tag: 9, Words: 1, Slots: 3})
}

func TestCheckInvariantsDetectsCorruption(t *testing.T) {
	cases := []Line{
		{Tag: 1, Words: 0b111, Slots: 3, Start: 0},            // non-pow2 slots
		{Tag: 2, Words: 0b11, Slots: 2, Start: 1},             // misaligned
		{Tag: 3, Words: 0, Slots: 1, Start: 0},                // no words
		{Tag: 4, Words: 0b1, Dirty: 0b10, Slots: 1, Start: 0}, // dirty outside words
	}
	for i, bad := range cases {
		s := NewSet(1)
		s.Lines = append(s.Lines, bad)
		if err := s.CheckInvariants(); err == nil {
			t.Errorf("case %d: corruption not detected: %+v", i, bad)
		}
	}
	// Overlap detection.
	s := NewSet(1)
	s.Lines = append(s.Lines,
		Line{Tag: 1, Words: 0b11, Slots: 2, Start: 0},
		Line{Tag: 2, Words: 0b11, Slots: 2, Start: 0})
	if err := s.CheckInvariants(); err == nil {
		t.Error("overlap not detected")
	}
}

// TestCheckInvariantsRejectsBadPlacement covers placements the
// bookkeeping masks cannot show: each row's occupancy and head bitmaps
// are the ones its line truncates to, so only the slot-count, bounds
// and way checks can reject it, and none may panic.
func TestCheckInvariantsRejectsBadPlacement(t *testing.T) {
	cases := []struct {
		name        string
		line        Line
		occ, heads  mem.Footprint
		wantInError string
	}{
		{"zero slots", Line{Tag: 1, Words: 1, Slots: 0}, 0, 0, "0 slots"},
		{"16 slots", Line{Tag: 2, Words: 1, Slots: 16}, 0xff, 0x01, "16 slots"},
		{"32 slots", Line{Tag: 3, Words: 1, Slots: 32}, 0xff, 0x01, "32 slots"},
		{"start past the way", Line{Tag: 4, Words: 1, Start: 8, Slots: 1}, 0, 0, "misaligned"},
		{"region past the way", Line{Tag: 5, Words: 1, Start: 8, Slots: 8}, 0, 0, "misaligned"},
		{"way out of range", Line{Tag: 6, Words: 1, Way: 1, Slots: 1}, 0, 0, "way 1 of 1"},
		{"way 255", Line{Tag: 7, Words: 1, Way: 255, Slots: 1}, 0, 0, "way 255 of 1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := NewSet(1)
			s.Lines = append(s.Lines, tc.line)
			s.occ[0], s.heads[0] = tc.occ, tc.heads
			err := s.CheckInvariants()
			if err == nil || !strings.Contains(err.Error(), tc.wantInError) {
				t.Fatalf("CheckInvariants() = %v, want an error containing %q", err, tc.wantInError)
			}
		})
	}
}

// installSeq drives the same pseudo-random install sequence into a
// fresh 4-way set under wayMask and returns the set.
func installSeq(t *testing.T, wayMask uint64) *Set {
	t.Helper()
	s := NewSet(4)
	x := uint64(99)
	for i := 0; i < 400; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		tag := x >> 54
		if s.Find(tag) >= 0 {
			continue
		}
		words := mem.Footprint(x>>8) | 1
		s.Install(Line{Tag: tag, Words: words, Slots: uint8(mem.Pow2WordsFor(words.Count()))}, x>>17, wayMask)
		if err := s.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
	return &s
}

// sameLines reports whether two sets hold identical lines in identical
// places.
func sameLines(a, b *Set) bool {
	if len(a.Lines) != len(b.Lines) {
		return false
	}
	for i := range a.Lines {
		if a.Lines[i] != b.Lines[i] {
			return false
		}
	}
	return true
}

// A way mask confines placements to the selected ways; bits above the
// way count are ignored, and a mask selecting no way (after that)
// selects every way, exactly like the zero mask and the full mask.
func TestWOCInstallWayMask(t *testing.T) {
	masked := installSeq(t, 0b0110)
	for _, l := range masked.Lines {
		if l.Way != 1 && l.Way != 2 {
			t.Fatalf("line %x placed in way %d outside mask 0b0110", l.Tag, l.Way)
		}
	}
	if masked.occ[0] != 0 || masked.occ[3] != 0 {
		t.Fatal("masked-out ways occupied")
	}
	if !sameLines(masked, installSeq(t, 0b0110|0xf0)) {
		t.Error("mask bits above the way count changed placement")
	}
	all := installSeq(t, 0)
	if all.occ[0] == 0 || all.occ[3] == 0 {
		t.Error("zero mask did not use every way")
	}
	for _, m := range []uint64{0b1111, 0xf0} {
		if !sameLines(all, installSeq(t, m)) {
			t.Errorf("mask %#x placed lines differently from the zero mask", m)
		}
	}
}

// TestLineRecordSize pins the resident-line record at 24 bytes, so a
// field that re-pads it fails here.
func TestLineRecordSize(t *testing.T) {
	if got := unsafe.Sizeof(Line{}); got != 24 {
		t.Errorf("Line is %d bytes, want 24", got)
	}
}
