package mem

import "testing"

// TestGeometry covers every (size, ways) geometry the simulator builds:
// the set count, and the line → (set, tag) → line round trip over
// random lines of the 40-bit space and its two ends. It also pins the
// three refusals, whose text every cache's Validate prefixes with its
// own name.
func TestGeometry(t *testing.T) {
	for _, tc := range []struct {
		name      string
		sizeBytes int
		ways      int
		sets      int
	}{
		{"l1d 16KB/2", 16 << 10, 2, 128},
		{"trad-0.75MB", 6 * 2048 * LineSize, 6, 2048},
		{"base-1MB", 1 << 20, 8, 2048},
		{"trad-1.25MB", 10 * 2048 * LineSize, 10, 2048},
		{"trad-1.5MB", 12 * 2048 * LineSize, 12, 2048},
		{"trad-2MB", 2 << 20, 16, 2048},
		{"trad-4MB", 4 << 20, 32, 2048},
		{"distill 1MB/8", 1 << 20, 8, 2048},
		{"partition 1MB/16", 1 << 20, 16, 1024},
		{"cmpr 1MB/8", 1 << 20, 8, 2048},
		{"sfp 1MB/8", 1 << 20, 8, 2048},
		{"one set", 4 * LineSize, 4, 1},
	} {
		g, err := NewGeometry(tc.sizeBytes, tc.ways)
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if g.Sets() != tc.sets {
			t.Errorf("%s: Sets = %d, want %d", tc.name, g.Sets(), tc.sets)
		}
		lines := []LineAddr{0, LineOf(AddrMask)}
		x := uint64(0x9e3779b97f4a7c15)
		for i := 0; i < 1000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			lines = append(lines, LineOf(Addr(x)))
		}
		for _, l := range lines {
			set, tag := g.SetIndex(l), g.Tag(l)
			if set < 0 || set >= tc.sets {
				t.Fatalf("%s: %v maps to set %d of %d", tc.name, l, set, tc.sets)
			}
			if uint64(l) != tag*uint64(tc.sets)+uint64(set) {
				t.Fatalf("%s: %v splits into tag %#x set %d", tc.name, l, tag, set)
			}
			if back := g.Line(tag, set); back != l {
				t.Fatalf("%s: (tag %#x, set %d) rebuilds %v, want %v", tc.name, tag, set, back, l)
			}
		}
	}

	for _, tc := range []struct {
		sizeBytes, ways int
		want            string
	}{
		{1 << 20, 0, "ways must be positive, got 0"},
		{1 << 20, -2, "ways must be positive, got -2"},
		{1<<20 + LineSize, 8, "size 1048640B not divisible into 8 ways of 64B lines"},
		{4 * LineSize, 8, "size 256B not divisible into 8 ways of 64B lines"},
		{3 * 8 * LineSize, 8, "set count 3 not a power of two"},
	} {
		_, err := NewGeometry(tc.sizeBytes, tc.ways)
		if err == nil || err.Error() != tc.want {
			t.Errorf("NewGeometry(%d, %d) = %v, want %q", tc.sizeBytes, tc.ways, err, tc.want)
		}
	}
}

// TestSetIndexAndTag pins the split of one line address in the
// baseline 2048-set geometry and its reconstruction.
func TestSetIndexAndTag(t *testing.T) {
	g, err := NewGeometry(1<<20, 8)
	if err != nil {
		t.Fatal(err)
	}
	l := LineAddr(0x12345)
	idx := g.SetIndex(l)
	tag := g.Tag(l)
	if idx != 0x345 {
		t.Errorf("SetIndex = %#x, want 0x345", idx)
	}
	if tag != 0x12345>>11 {
		t.Errorf("Tag = %#x, want %#x", tag, 0x12345>>11)
	}
	// (tag, index) must reconstruct the line address.
	if back := g.Line(tag, idx); back != l {
		t.Errorf("reconstructed %v, want %v", back, l)
	}
}

func TestSetIndexTagUniqueness(t *testing.T) {
	// Two lines with the same index but different tags must differ in tag.
	g, err := NewGeometry(64*LineSize, 1)
	if err != nil {
		t.Fatal(err)
	}
	a, b := LineAddr(5), LineAddr(5+g.Sets())
	if g.SetIndex(a) != g.SetIndex(b) {
		t.Fatal("lines should map to the same set")
	}
	if g.Tag(a) == g.Tag(b) {
		t.Fatal("distinct lines in one set must have distinct tags")
	}
}
