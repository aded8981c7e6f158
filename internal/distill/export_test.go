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
		out = append(out, WOCLine{c.geom.Line(l.Tag, si), int(l.Way)*mem.WordsPerLine + int(l.Start), int(l.Slots), l.Words, l.Dirty})
	}
	slices.SortFunc(out, func(a, b WOCLine) int { return a.Pos - b.Pos })
	return out
}
