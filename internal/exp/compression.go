package exp

import (
	"ldis/internal/compress"
	"ldis/internal/hierarchy"
	"ldis/internal/mem"
	"ldis/internal/obs"
	"ldis/internal/stats"
	"ldis/internal/workload"
)

// Fig10Row is one benchmark's compressibility distribution (paper
// Figure 10): fractions of cache lines storable in 1/8, 1/4, 1/2, and
// full size, with (a) all words compressed and (b) only used words.
type Fig10Row struct {
	Benchmark string
	AllWords  [4]float64 // indexed by compress.Category
	UsedWords [4]float64
}

// Fig10 samples the baseline cache contents periodically (the paper
// samples every 10M instructions) and classifies every valid line under
// both whole-line and used-words-only compression.
func Fig10(o Options) ([]Fig10Row, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	const samples = 5
	_, grid, err := runGrid(o, []string{"base-1MB@snap"}, func(prof *workload.Profile, _ string, co *obs.Cell) (Fig10Row, error) {
		vals := prof.Values()
		sys := configs["base-1MB"].build(prof, o, co)
		c := sys.L2.(*hierarchy.TradL2).C
		st := prof.Stream()
		var all, used [4]uint64
		chunk := o.Accesses / samples
		if chunk == 0 {
			chunk = o.Accesses
		}
		for s := 0; s < samples; s++ {
			n := sys.Run(st, chunk)
			if n == 0 {
				break
			}
			c.VisitLines(func(la mem.LineAddr, fp mem.Footprint) {
				all[compress.Categorize(compress.LineBits(vals, la, mem.FullFootprint))]++
				mask := fp
				if mask == 0 {
					mask = mem.FootprintOfWord(0)
				}
				used[compress.Categorize(compress.LineBits(vals, la, mask))]++
			})
		}
		row := Fig10Row{Benchmark: prof.Name}
		var totAll, totUsed uint64
		for i := 0; i < 4; i++ {
			totAll += all[i]
			totUsed += used[i]
		}
		for i := 0; i < 4; i++ {
			if totAll > 0 {
				row.AllWords[i] = float64(all[i]) / float64(totAll)
			}
			if totUsed > 0 {
				row.UsedWords[i] = float64(used[i]) / float64(totUsed)
			}
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	rows := make([]Fig10Row, len(grid))
	for i := range grid {
		rows[i] = grid[i][0]
	}
	return rows, nil
}

func fig10Table(rows []Fig10Row) []*stats.Table {
	ta := stats.NewTable("Figure 10a: compressibility, all words",
		"benchmark", "1/8", "1/4", "1/2", "full")
	tb := stats.NewTable("Figure 10b: compressibility, used words only",
		"benchmark", "1/8", "1/4", "1/2", "full")
	for _, r := range rows {
		ta.AddRow(r.Benchmark, r.AllWords[0], r.AllWords[1], r.AllWords[2], r.AllWords[3])
		tb.AddRow(r.Benchmark, r.UsedWords[0], r.UsedWords[1], r.UsedWords[2], r.UsedWords[3])
	}
	return []*stats.Table{ta, tb}
}

// Fig11Row compares LDIS tag budgets, pure compression, and
// footprint-aware compression (paper Figure 11): % MPKI reduction.
type Fig11Row struct {
	Benchmark                     string
	LDIS3x, LDIS4x, CMPR4x, FAC4x float64
}

// Fig11 runs the four configurations of the compression study plus the
// shared baseline, one cell each.
func Fig11(o Options) ([]Fig11Row, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	// LDIS-3xTags is 2 WOC ways (6+16 = 22 tags/set ~ 3x baseline),
	// LDIS-4xTags 3 WOC ways (5+24 = 29 tags/set ~ 4x baseline).
	names, grid, err := runConfigs(o, "base-1MB", "ldis-mt-rc-2", "ldis-mt-rc-3", "cmpr-4x", "fac-3")
	if err != nil {
		return nil, err
	}
	rows := make([]Fig11Row, len(grid))
	for i, name := range names {
		base := grid[i][0].mpki()
		rows[i] = Fig11Row{
			Benchmark: name,
			LDIS3x:    stats.PctReduction(base, grid[i][1].mpki()),
			LDIS4x:    stats.PctReduction(base, grid[i][2].mpki()),
			CMPR4x:    stats.PctReduction(base, grid[i][3].mpki()),
			FAC4x:     stats.PctReduction(base, grid[i][4].mpki()),
		}
	}
	return rows, nil
}

func fig11Table(rows []Fig11Row) *stats.Table {
	t := stats.NewTable("Figure 11: % MPKI reduction: LDIS vs compression vs FAC",
		"benchmark", "LDIS-3xTags", "LDIS-4xTags", "CMPR-4xTags", "FAC-4xTags")
	var a3, a4, ac, af float64
	for _, r := range rows {
		t.AddRow(r.Benchmark, r.LDIS3x, r.LDIS4x, r.CMPR4x, r.FAC4x)
		a3 += r.LDIS3x
		a4 += r.LDIS4x
		ac += r.CMPR4x
		af += r.FAC4x
	}
	if n := float64(len(rows)); n > 0 {
		t.AddRow("mean", a3/n, a4/n, ac/n, af/n)
	}
	return t
}

func init() {
	registerExp("fig10", "compressibility of cache lines (all vs used words)", rendered(Fig10, fig10Table), nil)
	registerExp("fig11", "LDIS vs compression vs footprint-aware compression", rendered(Fig11, single(fig11Table)), nil)
}
