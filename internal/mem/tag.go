package mem

import "fmt"

// LineBits is the width of the line-address space: LineOf yields lines
// in [0, 1<<LineBits), so a tag, the line address above a cache's
// set-index bits, never needs more than LineBits bits.
const LineBits = PhysAddrBits - LineShift

// A packed tag is how the L2 line records store a tag in 34 bits: the
// low 32 bits in a uint32 and bits 32-33 in the top two bits of a
// flag byte the record shares with its other fields, from bit
// TagHighShift up; TagHighMask selects them.
const (
	TagHighShift       = 6
	TagHighMask  uint8 = 3 << TagHighShift
)

// The packing holds exactly LineBits bits: a change to the address
// space must revisit the records.
var _ [LineBits - 34]struct{}
var _ [34 - LineBits]struct{}

// TagKey is a tag split the way the packed records store it, for
// comparing against them (Matches) without rebuilding each record's
// full tag.
type TagKey struct {
	Lo uint32 // the tag's low 32 bits
	Hi uint8  // bits 32-33, under TagHighMask
}

// KeyOf returns tag's key for lookups. A tag of LineBits or more bits,
// which no record holds, gets bit 0 set in Hi: it lies outside
// TagHighMask, so the key matches no record.
func KeyOf(tag uint64) TagKey {
	return TagKey{Lo: uint32(tag), Hi: uint8(tag>>32)<<TagHighShift | uint8(min(tag>>LineBits, 1))}
}

// PackTag returns tag's key for storing in a record. A tag of LineBits
// or more bits panics; no line LineOf yields has one.
func PackTag(tag uint64) TagKey {
	if tag>>LineBits != 0 {
		tagOutOfRange(tag)
	}
	return TagKey{Lo: uint32(tag), Hi: uint8(tag>>32) << TagHighShift}
}

// Matches reports whether a record storing lo and the flag byte flags
// holds k's tag.
func (k TagKey) Matches(lo uint32, flags uint8) bool {
	return lo == k.Lo && flags&TagHighMask == k.Hi
}

// UnpackTag rebuilds the full tag from its low 32 bits and the flag
// byte holding bits 32-33 under TagHighMask.
func UnpackTag(lo uint32, flags uint8) uint64 {
	return uint64(lo) | uint64(flags>>TagHighShift)<<32
}

// CheckLine panics when l lies outside the LineBits-bit line space,
// which the packed records cover; LineOf never yields such a line, so
// the caches call it where they install one.
func CheckLine(l LineAddr) {
	if uint64(l)>>LineBits != 0 {
		lineOutOfRange(l)
	}
}

// The panics live in their own functions so the checks stay small
// enough to inline on the install paths.

//go:noinline
func tagOutOfRange(tag uint64) {
	panic(fmt.Sprintf("mem: tag %#x exceeds the %d-bit line space", tag, LineBits))
}

//go:noinline
func lineOutOfRange(l LineAddr) {
	panic(fmt.Sprintf("mem: line %#x outside the %d-bit line space", uint64(l), LineBits))
}
