package mem

import (
	"testing"
	"testing/quick"
)

func TestLineAndWordOf(t *testing.T) {
	tests := []struct {
		addr Addr
		line LineAddr
		word int
	}{
		{0, 0, 0},
		{7, 0, 0},
		{8, 0, 1},
		{63, 0, 7},
		{64, 1, 0},
		{64 + 17, 1, 2},
		{0xfffffffff8, 0x3ffffffff, 7},
	}
	for _, tt := range tests {
		if got := LineOf(tt.addr); got != tt.line {
			t.Errorf("LineOf(%#x) = %v, want %v", uint64(tt.addr), got, tt.line)
		}
		if got := WordOf(tt.addr); got != tt.word {
			t.Errorf("WordOf(%#x) = %d, want %d", uint64(tt.addr), got, tt.word)
		}
	}
}

func TestLineOfMasksTo40Bits(t *testing.T) {
	a := Addr(1)<<50 | 0x1234<<LineShift
	if got, want := LineOf(a), LineAddr(0x1234); got != want {
		t.Errorf("LineOf(%#x) = %v, want %v (40-bit masking)", uint64(a), got, want)
	}
}

func TestWordAddrRoundTrip(t *testing.T) {
	l := LineAddr(0xabcde)
	for w := 0; w < WordsPerLine; w++ {
		a := l.WordAddr(w)
		if LineOf(a) != l {
			t.Fatalf("word %d: LineOf(WordAddr) = %v, want %v", w, LineOf(a), l)
		}
		if WordOf(a) != w {
			t.Fatalf("WordOf(WordAddr(%d)) = %d", w, WordOf(a))
		}
	}
}

func TestFootprintBasics(t *testing.T) {
	var f Footprint
	if f.Count() != 0 {
		t.Fatalf("zero footprint Count = %d", f.Count())
	}
	f = f.Set(0).Set(7)
	if !f.Has(0) || !f.Has(7) || f.Has(3) {
		t.Errorf("Has wrong after Set: %v", f)
	}
	if f.Count() != 2 {
		t.Errorf("Count = %d, want 2", f.Count())
	}
	if got := f.String(); got != "10000001" {
		t.Errorf("String = %q, want 10000001", got)
	}
	if ws := f.Words(); len(ws) != 2 || ws[0] != 0 || ws[1] != 7 {
		t.Errorf("Words = %v", ws)
	}
	if FullFootprint.Count() != WordsPerLine {
		t.Errorf("FullFootprint.Count = %d", FullFootprint.Count())
	}
}

func TestFootprintOr(t *testing.T) {
	a := FootprintOfWord(1)
	b := FootprintOfWord(6)
	if got := a.Or(b); got.Count() != 2 || !got.Has(1) || !got.Has(6) {
		t.Errorf("Or = %v", got)
	}
}

func TestPow2WordsFor(t *testing.T) {
	want := map[int]int{0: 1, 1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 6: 8, 7: 8, 8: 8}
	for n, p := range want {
		if got := Pow2WordsFor(n); got != p {
			t.Errorf("Pow2WordsFor(%d) = %d, want %d", n, got, p)
		}
	}
}

func TestAccessHelpers(t *testing.T) {
	a := Access{Addr: 64 + 8*3 + 2, PC: 0x400, Kind: Store, Instret: 4}
	if a.Line() != 1 || a.Word() != 3 {
		t.Errorf("Line/Word = %v/%d", a.Line(), a.Word())
	}
	if !a.IsWrite() {
		t.Error("store should be a write")
	}
	if Load.IsData() != true || Store.IsData() != true || IFetch.IsData() != false {
		t.Error("IsData classification wrong")
	}
}

func TestKindString(t *testing.T) {
	if Load.String() != "load" || Store.String() != "store" || IFetch.String() != "ifetch" {
		t.Error("AccessKind.String wrong")
	}
	if AccessKind(9).String() == "" {
		t.Error("unknown kind should still render")
	}
}

// Property: footprint Count always equals the length of Words, and every
// index returned by Words satisfies Has.
func TestFootprintWordsProperty(t *testing.T) {
	f := func(raw uint8) bool {
		fp := Footprint(raw)
		ws := fp.Words()
		if len(ws) != fp.Count() {
			return false
		}
		for _, w := range ws {
			if !fp.Has(w) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: for any address, line base + word offset recovers an address
// within the same line and word.
func TestAddrDecomposition(t *testing.T) {
	f := func(raw uint64) bool {
		a := Addr(raw) & AddrMask
		l, w := LineOf(a), WordOf(a)
		wa := l.WordAddr(w)
		return LineOf(wa) == l && WordOf(wa) == w && wa <= a && a-wa < WordSize
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Pow2WordsFor(n) is a power of two, ≥ n for n in 1..8.
func TestPow2Property(t *testing.T) {
	for n := 1; n <= 8; n++ {
		p := Pow2WordsFor(n)
		if p < n || p&(p-1) != 0 {
			t.Errorf("Pow2WordsFor(%d) = %d not a covering power of two", n, p)
		}
	}
}
