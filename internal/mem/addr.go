// Package mem defines the basic memory vocabulary shared by every
// component of the simulator: physical addresses, cache-line and word
// indexing, access records, and per-line footprint bit-vectors.
//
// The conventions follow the paper's baseline (Section 2 and Table 1):
// a 40-bit physical address space, 64-byte cache lines, and 8-byte words,
// so every line holds eight words and a footprint fits in one byte.
package mem

import "fmt"

// Addr is a physical byte address. The paper assumes a 40-bit physical
// address space; we keep addresses in a uint64 and mask where it matters.
type Addr uint64

// Architectural constants for the baseline configuration.
const (
	// PhysAddrBits is the size of the physical address space.
	PhysAddrBits = 40

	// LineSize is the cache line size in bytes.
	LineSize = 64

	// WordSize is the word granularity used for footprint tracking. The
	// paper uses 8B because the largest Alpha memory access is 8 bytes.
	WordSize = 8

	// WordsPerLine is the number of footprint-tracked words in a line.
	WordsPerLine = LineSize / WordSize

	// LineShift is log2(LineSize).
	LineShift = 6

	// WordShift is log2(WordSize).
	WordShift = 3
)

// AddrMask keeps addresses inside the 40-bit physical space.
const AddrMask = Addr(1)<<PhysAddrBits - 1

// LineAddr identifies a cache line: the address with the line offset
// stripped (i.e. byte address >> LineShift).
type LineAddr uint64

// LineOf returns the line containing the byte address.
func LineOf(a Addr) LineAddr { return LineAddr(a&AddrMask) >> LineShift }

// WordOf returns the index (0..7) of the word within its line that the
// byte address falls in.
func WordOf(a Addr) int { return int(a>>WordShift) & (WordsPerLine - 1) }

// Base returns the byte address of the first byte of the line.
func (l LineAddr) Base() Addr { return Addr(l) << LineShift }

// WordAddr returns the byte address of word w (0..7) of the line.
func (l LineAddr) WordAddr(w int) Addr { return l.Base() + Addr(w)<<WordShift }

// String renders the line address as its base byte address in hex.
func (l LineAddr) String() string { return fmt.Sprintf("line:%#x", uint64(l.Base())) }
