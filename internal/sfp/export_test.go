package sfp

import (
	"slices"

	"ldis/internal/mem"
)

// PlacedLine is one resident line as the reference comparison sees it:
// the line, the word entry it starts at (way*8 + start), its size and
// its stored and dirty words.
type PlacedLine struct {
	Line         mem.LineAddr
	Pos, Slots   int
	Words, Dirty mem.Footprint
}

// SetLines lists the resident lines of la's set in position order,
// appending to out[:0].
func SetLines(c *Cache, la mem.LineAddr, out []PlacedLine) []PlacedLine {
	si := c.geom.SetIndex(la)
	out = out[:0]
	for _, l := range c.store.Lines(si) {
		out = append(out, PlacedLine{c.geom.Line(l.Tag(), si), l.Way()*mem.WordsPerLine + l.Start(), l.Slots(), l.Words, l.Dirty})
	}
	slices.SortFunc(out, func(a, b PlacedLine) int { return a.Pos - b.Pos })
	return out
}

// ConfigOf returns the configuration c was built with.
func ConfigOf(c *Cache) Config { return c.cfg }
