// Package workload generates the synthetic memory reference streams that
// stand in for the paper's SPEC CPU2000 Alpha traces (see DESIGN.md for
// the substitution argument). Each paper benchmark becomes a named
// Profile whose knobs — working-set structure, per-line word masks,
// reuse pattern, value mixture, and CPU-side rates — are calibrated to
// the statistics the paper publishes (Table 2 MPKI, Table 6 words used,
// Figure 1 footprint histograms).
package workload

import (
	"fmt"
	"math/bits"

	"ldis/internal/mem"
)

// WordCountDist is a distribution over the number of words used per
// line: Weights[i] is the relative weight of (i+1) words. It drives the
// per-line footprint masks and therefore the paper's Figure 1 histogram.
type WordCountDist struct {
	Weights [mem.WordsPerLine]float64
}

// UniformWords gives every count 1..8 equal weight.
func UniformWords() WordCountDist {
	var d WordCountDist
	for i := range d.Weights {
		d.Weights[i] = 1
	}
	return d
}

// SingleCount puts all weight on exactly n words used.
func SingleCount(n int) WordCountDist {
	if n < 1 || n > mem.WordsPerLine {
		panic(fmt.Sprintf("workload: SingleCount(%d) out of range", n))
	}
	var d WordCountDist
	d.Weights[n-1] = 1
	return d
}

// Counts builds a distribution from weights for 1..8 words; missing
// entries are zero.
func Counts(w ...float64) WordCountDist {
	var d WordCountDist
	copy(d.Weights[:], w)
	return d
}

// Mean returns the expected number of words used.
func (d WordCountDist) Mean() float64 {
	var sum, tot float64
	for i, w := range d.Weights {
		sum += float64(i+1) * w
		tot += w
	}
	if tot == 0 {
		return 0
	}
	return sum / tot
}

// countCDF is a WordCountDist's cumulative weights, built once when a
// visitor is constructed so a visit samples its line's word count
// without re-summing the weights.
type countCDF struct {
	// cum[i] is the probability of at most i+1 words. It is accumulated
	// as acc += w/tot in weight order, so every boundary is the float
	// the per-visit summation it replaces produced. The last weight's
	// boundary is never consulted: a u past cum[6] means 8 words.
	// All-zero weights leave every boundary at 0, so every u picks a
	// full line.
	cum [mem.WordsPerLine - 1]float64
}

// cdf builds d's cumulative weights. The weights must be finite and
// non-negative (validateSpec enforces it for registered profiles), so
// the boundaries are non-decreasing.
func (d WordCountDist) cdf() countCDF {
	var c countCDF
	var tot float64
	for _, w := range d.Weights {
		tot += w
	}
	if tot <= 0 {
		return c
	}
	acc := 0.0
	for i := range c.cum {
		acc += d.Weights[i] / tot
		c.cum[i] = acc
	}
	return c
}

// sample picks a count (1..8) given a uniform u in [0,1): one more
// than the number of boundaries at or below u. On non-decreasing
// boundaries that is the first boundary u falls below, found without a
// data-dependent early exit.
func (c *countCDF) sample(u float64) int {
	n := 1
	for _, x := range c.cum {
		if u >= x {
			n++
		}
	}
	return n
}

// MaskStyle controls which words form a line's mask once its count is
// chosen. Different styles matter: contiguous masks compact well in the
// WOC and mimic record fields; strided masks mimic large-struct column
// access; scattered masks mimic hash/pointer data.
type MaskStyle uint8

const (
	// MaskContig places the used words in a contiguous run at a
	// line-dependent offset (wrapping).
	MaskContig MaskStyle = iota
	// MaskStride spreads the used words at the largest stride that fits.
	MaskStride
	// MaskScatter picks a line-dependent random subset.
	MaskScatter
)

// maskFor deterministically derives the footprint mask of a line from
// the profile seed, so every visit to the same line agrees on its mask.
func maskFor(seed uint64, line mem.LineAddr, c *countCDF, style MaskStyle) mem.Footprint {
	h := splitmix64(uint64(line) ^ seed)
	u := float64(h>>11) / (1 << 53)
	n := c.sample(u)
	if n >= mem.WordsPerLine {
		return mem.FullFootprint
	}
	h2 := splitmix64(h)
	var f mem.Footprint
	switch style {
	case MaskContig:
		// n consecutive words from start, wrapping: the low n bits
		// rotated left by start.
		start := int(h2 % mem.WordsPerLine)
		f = mem.Footprint(bits.RotateLeft8(uint8(1)<<n-1, start))
	case MaskStride:
		stride := mem.WordsPerLine / n
		if stride < 1 {
			stride = 1
		}
		off := int(h2) & (stride - 1)
		for i := 0; i < n; i++ {
			f = f.Set((off + i*stride) % mem.WordsPerLine)
		}
	case MaskScatter:
		// Select n distinct words via a per-line permutation.
		perm := h2
		chosen := 0
		for chosen < n {
			w := int(perm % mem.WordsPerLine)
			perm = splitmix64(perm)
			if !f.Has(w) {
				f = f.Set(w)
				chosen++
			}
		}
	}
	return f
}

// maskWords maps each footprint mask to its ascending word list stored
// twice in a row, so a burst window that wraps past the mask's last
// word is one contiguous subslice. The lists share one backing array
// and are read-only: visits hand them out without copying.
var maskWords = func() (t [1 << mem.WordsPerLine][]int) {
	backing := make([]int, 0, 2*mem.WordsPerLine<<(mem.WordsPerLine-1))
	for m := range t {
		f := mem.Footprint(m)
		lo := len(backing)
		backing = f.AppendWords(backing)
		backing = f.AppendWords(backing)
		t[m] = backing[lo:len(backing):len(backing)]
	}
	return t
}()

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// LinesPerMB is the number of 64B lines in one megabyte.
const LinesPerMB = 1 << 20 / mem.LineSize

// MB converts a size in megabytes to a line count.
func MB(x float64) int { return int(x * LinesPerMB) }
