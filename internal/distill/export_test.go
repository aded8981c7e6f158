package distill

import (
	"slices"

	"ldis/internal/mem"
)

// WOCLine is one distilled line as the reference comparison sees it:
// the line, the word entry it starts at (way*8 + start), its size and
// its stored and dirty words.
type WOCLine struct {
	Line         mem.LineAddr
	Pos, Slots   int
	Words, Dirty mem.Footprint
}

// WOCSet lists the WOC lines of la's set in position order, appending
// to out[:0].
func WOCSet(c *Cache, la mem.LineAddr, out []WOCLine) []WOCLine {
	si := c.geom.SetIndex(la)
	out = out[:0]
	for _, l := range c.woc.Lines(si) {
		out = append(out, WOCLine{c.geom.Line(l.Tag(), si), l.Way()*mem.WordsPerLine + l.Start(), l.Slots(), l.Words, l.Dirty})
	}
	slices.SortFunc(out, func(a, b WOCLine) int { return a.Pos - b.Pos })
	return out
}

// LOCLine is one line-organized way as the reference comparison sees
// it: the line, whether it holds instructions, its footprint and dirty
// words, and the largest recency position its footprint changed at.
type LOCLine struct {
	Line      mem.LineAddr
	Instr     bool
	FP, Dirty mem.Footprint
	FPPos     int
}

// LOCSet lists the LOC lines of la's set in MRU order, appending to
// out[:0].
func LOCSet(c *Cache, la mem.LineAddr, out []LOCLine) []LOCLine {
	si := c.geom.SetIndex(la)
	out = out[:0]
	for _, e := range c.locSet(si) {
		if e.Valid() {
			out = append(out, LOCLine{c.geom.Line(e.Tag(), si), e.Instr(), e.Footprint(), e.Dirty(), e.MaxFPPos()})
		}
	}
	return out
}
