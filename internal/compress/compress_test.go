package compress

import (
	"testing"
	"testing/quick"

	"ldis/internal/mem"
	"ldis/internal/values"
)

func TestEncode32(t *testing.T) {
	tests := []struct {
		v    uint32
		code Code
		bits int
	}{
		{0, CodeZero, 2},
		{1, CodeOne, 2},
		{2, CodeHalf, 18},
		{0xffff, CodeHalf, 18},
		{0x10000, CodeFull, 34},
		{0xdeadbeef, CodeFull, 34},
	}
	for _, tt := range tests {
		code, bits := Encode32(tt.v)
		if code != tt.code || bits != tt.bits {
			t.Errorf("Encode32(%#x) = %v,%d; want %v,%d", tt.v, code, bits, tt.code, tt.bits)
		}
	}
}

func TestCategorize(t *testing.T) {
	tests := []struct {
		bits int
		cat  Category
	}{
		{0, OneEighth},
		{64, OneEighth},
		{65, OneFourth},
		{128, OneFourth},
		{129, OneHalf},
		{256, OneHalf},
		{257, Full},
		{16 * 34, Full},
	}
	for _, tt := range tests {
		if got := Categorize(tt.bits); got != tt.cat {
			t.Errorf("Categorize(%d) = %v, want %v", tt.bits, got, tt.cat)
		}
	}
}

func TestCategoryStrings(t *testing.T) {
	if OneEighth.String() != "one-eighth" || Full.String() != "full" || Category(9).String() != "invalid" {
		t.Error("Category.String wrong")
	}
}

func TestSegmentsFor(t *testing.T) {
	tests := map[int]int{0: 1, 1: 1, 64: 1, 65: 2, 128: 2, 129: 4, 256: 4, 257: 8, 544: 8}
	for bits, segs := range tests {
		if got := SegmentsFor(bits); got != segs {
			t.Errorf("SegmentsFor(%d) = %d, want %d", bits, got, segs)
		}
	}
}

func TestLineBitsAllZeros(t *testing.T) {
	m := values.NewModel(1, values.Mix{Zero: 1})
	// 16 zero data at 2 bits each.
	if got := LineBits(m, 0, mem.FullFootprint); got != 32 {
		t.Errorf("all-zero line bits = %d, want 32", got)
	}
	// Used words only: 2 words -> 4 data -> 8 bits.
	fp := mem.FootprintOfWord(0).Or(mem.FootprintOfWord(5))
	if got := LineBits(m, 0, fp); got != 8 {
		t.Errorf("two-word bits = %d, want 8", got)
	}
}

func TestLineBitsIncompressible(t *testing.T) {
	m := values.NewModel(1, values.Incompressible)
	if got := LineBits(m, 7, mem.FullFootprint); got != 16*34 {
		t.Errorf("incompressible line bits = %d, want %d", got, 16*34)
	}
	if Categorize(LineBits(m, 7, mem.FullFootprint)) != Full {
		t.Error("incompressible line should be Full category")
	}
}

func TestWordBitsConsistency(t *testing.T) {
	m := values.NewModel(3, values.PointerLike)
	total := 0
	for w := 0; w < mem.WordsPerLine; w++ {
		total += WordBits(m, 42, w)
	}
	if got := LineBits(m, 42, mem.FullFootprint); got != total {
		t.Errorf("LineBits %d != sum of WordBits %d", got, total)
	}
}

func tinyCMPR(mix values.Mix) *CMPR {
	cfg := CMPRConfig{Name: "t", SizeBytes: 4 * 2 * mem.LineSize, Ways: 2, TagFactor: 4}
	return NewCMPR(cfg, values.NewModel(9, mix))
}

func TestCMPRConfigValidate(t *testing.T) {
	if err := DefaultCMPRConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	c := DefaultCMPRConfig()
	if c.Sets() != 2048 || c.SegmentsPerSet() != 64 || c.TagsPerSet() != 32 {
		t.Errorf("geometry wrong: %+v", c)
	}
	bad := []CMPRConfig{
		{Name: "a", SizeBytes: 1024, Ways: 0, TagFactor: 4},
		{Name: "b", SizeBytes: 1024, Ways: 2, TagFactor: 0},
		{Name: "c", SizeBytes: 100, Ways: 2, TagFactor: 4},
		{Name: "d", SizeBytes: 3 * 2 * 64, Ways: 2, TagFactor: 4},
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("%+v should be invalid", cfg)
		}
	}
}

func TestCMPRMissFillHit(t *testing.T) {
	c := tinyCMPR(values.Mix{Zero: 1})
	if c.Access(0, 0, false) {
		t.Fatal("cold access should miss")
	}
	if !c.Access(0, 3, false) {
		t.Fatal("second access should hit (whole line stored)")
	}
	st := c.Stats()
	if st.Accesses != 2 || st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestCMPRCapacityBenefit(t *testing.T) {
	// All-zero lines compress to 1 segment: a 2-way set (16 segments,
	// 8 tags) holds 8 lines instead of 2.
	c := tinyCMPR(values.Mix{Zero: 1})
	for i := 0; i < 8; i++ {
		c.Access(mem.LineAddr(i*4), 0, false) // all map to set 0
	}
	if got := c.LinesResident(0); got != 8 {
		t.Errorf("resident lines = %d, want 8 (tag limited)", got)
	}
	// All still hit.
	for i := 0; i < 8; i++ {
		if !c.Access(mem.LineAddr(i*4), 1, false) {
			t.Errorf("line %d evicted despite compression", i)
		}
	}
}

func TestCMPRIncompressibleBehavesLikeBaseline(t *testing.T) {
	c := tinyCMPR(values.Incompressible)
	// Full-size lines: set capacity is 2 lines, LRU.
	c.Access(0, 0, false)
	c.Access(4, 0, false)
	c.Access(8, 0, false) // evicts line 0
	if c.Present(0) {
		t.Error("LRU line should have been evicted")
	}
	if !c.Present(4) || !c.Present(8) {
		t.Error("recent lines missing")
	}
}

func TestCMPRTagLimit(t *testing.T) {
	cfg := CMPRConfig{Name: "t", SizeBytes: 4 * 2 * mem.LineSize, Ways: 2, TagFactor: 2}
	c := NewCMPR(cfg, values.NewModel(9, values.Mix{Zero: 1}))
	for i := 0; i < 10; i++ {
		c.Access(mem.LineAddr(i*4), 0, false)
	}
	if got := c.LinesResident(0); got != cfg.TagsPerSet() {
		t.Errorf("resident = %d, want tag limit %d", got, cfg.TagsPerSet())
	}
}

func TestCMPRDirtyWriteback(t *testing.T) {
	c := tinyCMPR(values.Incompressible)
	c.Access(0, 0, true)
	c.Access(4, 0, false)
	c.Access(8, 0, false) // evicts dirty line 0
	if c.Stats().Writebacks != 1 {
		t.Errorf("writebacks = %d", c.Stats().Writebacks)
	}
}

func TestFACSlots(t *testing.T) {
	m := values.NewModel(1, values.Mix{Zero: 1})
	slots := FACSlots(m)
	// 8 zero words compress into 1 slot.
	if got := slots(0, mem.FullFootprint); got != 1 {
		t.Errorf("FAC slots for zero line = %d, want 1", got)
	}
	mInc := values.NewModel(1, values.Incompressible)
	slotsInc := FACSlots(mInc)
	// 2 incompressible words: 4 data * 34 bits = 136 bits -> 3 segs -> 4 slots.
	fp := mem.FootprintOfWord(0).Or(mem.FootprintOfWord(1))
	if got := slotsInc(0, fp); got != 4 {
		t.Errorf("FAC slots for 2 incompressible words = %d, want 4", got)
	}
	// FAC never exceeds 8 slots even for a full incompressible line.
	if got := slotsInc(0, mem.FullFootprint); got != 8 {
		t.Errorf("FAC slots full line = %d, want 8", got)
	}
}

// Property: Encode32 sizes are monotone with the value class and always
// one of the four legal sizes; Categorize(SegmentsFor) relationships hold.
func TestEncodingProperties(t *testing.T) {
	f := func(v uint32) bool {
		code, bits := Encode32(v)
		switch code {
		case CodeZero:
			return v == 0 && bits == 2
		case CodeOne:
			return v == 1 && bits == 2
		case CodeHalf:
			return v > 1 && v>>16 == 0 && bits == 18
		case CodeFull:
			return v>>16 != 0 && bits == 34
		}
		return false
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	g := func(rawBits uint16) bool {
		bits := int(rawBits) % 600
		segs := SegmentsFor(bits)
		if segs < 1 || segs > 8 || segs&(segs-1) != 0 {
			return false
		}
		return segs*64 >= bits || segs == 8
	}
	if err := quick.Check(g, nil); err != nil {
		t.Error(err)
	}
}

// TestIncompressibleCMPREquivalentToLRU is a differential test: with
// incompressible values every line needs 8 segments, so the compressed
// cache degenerates to a Ways-way LRU cache and must match a reference
// model miss for miss.
func TestIncompressibleCMPREquivalentToLRU(t *testing.T) {
	const sets, ways = 8, 2
	cfg := CMPRConfig{Name: "ref", SizeBytes: sets * ways * mem.LineSize, Ways: ways, TagFactor: 4}
	c := NewCMPR(cfg, values.NewModel(3, values.Incompressible))

	ref := make([][]mem.LineAddr, sets)
	refMisses := 0
	refAccess := func(la mem.LineAddr) {
		si := la.SetIndex(sets)
		for i, l := range ref[si] {
			if l == la {
				ref[si] = append([]mem.LineAddr{la}, append(ref[si][:i], ref[si][i+1:]...)...)
				return
			}
		}
		refMisses++
		ref[si] = append([]mem.LineAddr{la}, ref[si]...)
		if len(ref[si]) > ways {
			ref[si] = ref[si][:ways]
		}
	}

	rng := uint64(5)
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	for i := 0; i < 50000; i++ {
		la := mem.LineAddr(next() % 64)
		c.Access(la, int(next()%8), next()%4 == 0)
		refAccess(la)
	}
	if got := int(c.Stats().Misses); got != refMisses {
		t.Errorf("incompressible CMPR misses %d != LRU reference %d", got, refMisses)
	}
}

// The steady-state access path, compressed install included, must not
// allocate.
func TestAccessZeroAllocs(t *testing.T) {
	c := NewCMPR(CMPRConfig{Name: "c", SizeBytes: 64 * 8 * mem.LineSize, Ways: 8, TagFactor: 2},
		values.NewModel(7, values.Mix{Zero: 0.4, Half: 0.3, Full: 0.3}))
	access := func() {
		for i := 0; i < 256; i++ {
			c.Access(mem.LineAddr(i%1024), i%8, i%5 == 0)
		}
	}
	access() // steady state: sets at tag capacity
	if n := testing.AllocsPerRun(500, access); n != 0 {
		t.Errorf("Access allocates %.1f per 256 accesses", n)
	}
}
