package mem

import "fmt"

// Geometry is the set mapping of a set-associative array of LineSize
// lines with a power-of-two set count: the low line-address bits index
// the set and the remaining bits form the tag. Every cache organization
// holds one, built once from its (size, ways), so the access path
// reads a precomputed mask and shift and never rederives them.
type Geometry struct {
	setMask  uint64
	tagShift uint
}

// NewGeometry validates a cache of sizeBytes capacity and the given
// associativity: ways must be positive, the size must split into whole
// ways of LineSize lines, and the resulting set count must be a power
// of two. Errors carry no prefix; each caller names its cache.
func NewGeometry(sizeBytes, ways int) (Geometry, error) {
	if ways <= 0 {
		return Geometry{}, fmt.Errorf("ways must be positive, got %d", ways)
	}
	sets := sizeBytes / (LineSize * ways)
	if sets <= 0 || sets*ways*LineSize != sizeBytes {
		return Geometry{}, fmt.Errorf("size %dB not divisible into %d ways of 64B lines", sizeBytes, ways)
	}
	if sets&(sets-1) != 0 {
		return Geometry{}, fmt.Errorf("set count %d not a power of two", sets)
	}
	g := Geometry{setMask: uint64(sets - 1)}
	for n := sets; n > 1; n >>= 1 {
		g.tagShift++
	}
	return g, nil
}

// Sets returns the number of sets.
func (g Geometry) Sets() int { return int(g.setMask) + 1 }

// SetIndex returns the set the line maps to.
func (g Geometry) SetIndex(l LineAddr) int { return int(uint64(l) & g.setMask) }

// Tag returns the line's tag: its address above the set-index bits.
func (g Geometry) Tag(l LineAddr) uint64 { return uint64(l) >> g.tagShift }

// Line reconstructs the line address a tag names in the given set.
func (g Geometry) Line(tag uint64, set int) LineAddr {
	return LineAddr(tag<<g.tagShift | uint64(set))
}
