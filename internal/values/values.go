// Package values models the contents of memory for the compression
// experiments (Section 8 of the paper). The paper compresses real cache
// line contents with a 32-bit significance encoding (Table 4); we have
// no SPEC memory images, so this package generates deterministic 32-bit
// values whose class mixture (zero / one / half-word / incompressible)
// is a per-benchmark calibration knob. Compression results depend only
// on that mixture, so the substitution preserves the experiment.
package values

import "ldis/internal/mem"

// Class is the compressibility class of a 32-bit datum, mirroring the
// paper's Table 4 encoding.
type Class uint8

const (
	// Zero: the datum is 0 (2-bit code, no payload).
	Zero Class = iota
	// One: the datum is 1 (2-bit code, no payload).
	One
	// Half: bits[31:16] are zero; only bits[15:0] are stored.
	Half
	// Full: incompressible; all 32 bits are stored.
	Full
	numClasses
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case Zero:
		return "zero"
	case One:
		return "one"
	case Half:
		return "half"
	case Full:
		return "full"
	default:
		return "invalid"
	}
}

// Mix describes the fraction of 32-bit data in each class. Fractions
// need not sum exactly to one; they are normalized on use.
type Mix struct {
	Zero, One, Half, Full float64
}

// Incompressible is a mix where every datum needs all 32 bits.
var Incompressible = Mix{Full: 1}

// HighlyCompressible is a mix dominated by zeros, typical of sparse
// numeric data.
var HighlyCompressible = Mix{Zero: 0.7, One: 0.05, Half: 0.15, Full: 0.1}

// PointerLike models pointer-heavy integer data: many half-range values
// (heap offsets) and some nil pointers.
var PointerLike = Mix{Zero: 0.3, One: 0.05, Half: 0.35, Full: 0.3}

// FloatLike models double-precision numeric data, which rarely
// compresses under significance encoding.
var FloatLike = Mix{Zero: 0.12, Half: 0.05, Full: 0.83}

// Model deterministically assigns a Class and a concrete 32-bit value to
// every 32-bit-aligned address. The same (seed, mix, address) always
// produces the same datum, so cached copies and memory stay coherent
// without storing anything.
type Model struct {
	seed       uint64
	thresholds [numClasses]float64 // cumulative, normalized
}

// NewModel builds a model from a seed and a class mixture.
func NewModel(seed uint64, mix Mix) *Model {
	total := mix.Zero + mix.One + mix.Half + mix.Full
	if total <= 0 {
		mix = Incompressible
		total = 1
	}
	m := &Model{seed: seed}
	cum := 0.0
	for i, f := range []float64{mix.Zero, mix.One, mix.Half, mix.Full} {
		cum += f / total
		m.thresholds[i] = cum
	}
	m.thresholds[numClasses-1] = 1.0
	return m
}

// ClassAt returns the class of the 32-bit datum at byte address a
// (which is truncated to 4-byte alignment).
func (m *Model) ClassAt(a mem.Addr) Class {
	h := mem.SplitMix64(uint64(a)>>2 ^ m.seed)
	u := float64(h>>11) / (1 << 53) // uniform in [0,1)
	for c := Zero; c < numClasses; c++ {
		if u < m.thresholds[c] {
			return c
		}
	}
	return Full
}

// Word32 returns the concrete 32-bit value at byte address a, consistent
// with ClassAt: Zero->0, One->1, Half-> a value with zero upper half,
// Full-> a value with a nonzero upper half.
func (m *Model) Word32(a mem.Addr) uint32 {
	c := m.ClassAt(a)
	h := mem.SplitMix64(uint64(a)>>2 ^ m.seed ^ 0xabcdef)
	switch c {
	case Zero:
		return 0
	case One:
		return 1
	case Half:
		v := uint32(h) & 0xffff
		if v <= 1 {
			v = 2 // keep the class unambiguous
		}
		return v
	default:
		v := uint32(h)
		if v&0xffff0000 == 0 {
			v |= 0x00010000 // force a nonzero upper half
		}
		return v
	}
}

// Line returns the sixteen 32-bit values of the 64B line containing a.
func (m *Model) Line(l mem.LineAddr) [16]uint32 {
	var out [16]uint32
	base := l.Base()
	for i := 0; i < 16; i++ {
		out[i] = m.Word32(base + mem.Addr(i*4))
	}
	return out
}

// Word64 returns the 8-byte word w (0..7) of line l as two 32-bit halves.
func (m *Model) Word64(l mem.LineAddr, w int) (lo, hi uint32) {
	a := l.WordAddr(w)
	return m.Word32(a), m.Word32(a + 4)
}
