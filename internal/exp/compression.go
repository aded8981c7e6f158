package exp

import (
	"ldis/internal/cache"
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
	_, grid, err := runGrid(o, 1, func(prof *workload.Profile, _ int, co *obs.Cell) (Fig10Row, error) {
		vals := prof.Values()
		sys, c := tradSystem(cache.Config{Name: "base-1MB", SizeBytes: 1 << 20, Ways: 8}, co)
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
// shared baseline, one scheduler cell each.
func Fig11(o Options) ([]Fig11Row, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	names, grid, err := runGrid(o, 5, func(prof *workload.Profile, col int, co *obs.Cell) (float64, error) {
		switch col {
		case 0:
			base, _ := baselineMPKI(prof, o, co)
			return base.MPKI(), nil
		case 1:
			// LDIS-3xTags: 2 WOC ways (6+16 = 22 tags/set ~ 3x baseline).
			sys, _ := distillSystem(ldisMTRC(2, prof.Seed), co)
			return runWindowed(sys, prof, o, co).MPKI(), nil
		case 2:
			// LDIS-4xTags: 3 WOC ways (5+24 = 29 tags/set ~ 4x baseline).
			sys, _ := distillSystem(ldisMTRC(3, prof.Seed), co)
			return runWindowed(sys, prof, o, co).MPKI(), nil
		case 3:
			// CMPR-4xTags: compressed traditional cache, perfect LRU.
			sys, _ := hierarchy.Compressed(compress.DefaultCMPRConfig(), prof.Values())
			return runWindowed(sys, prof, o, co).MPKI(), nil
		default:
			// FAC-4xTags: distill cache with 3 WOC ways + compression.
			fcfg := ldisMTRC(3, prof.Seed)
			fcfg.Obs = co
			sys, _ := hierarchy.FAC(fcfg, prof.Values())
			return runWindowed(sys, prof, o, co).MPKI(), nil
		}
	})
	if err != nil {
		return nil, err
	}
	rows := make([]Fig11Row, len(grid))
	for i, name := range names {
		g := grid[i]
		rows[i] = Fig11Row{
			Benchmark: name,
			LDIS3x:    stats.PctReduction(g[0], g[1]),
			LDIS4x:    stats.PctReduction(g[0], g[2]),
			CMPR4x:    stats.PctReduction(g[0], g[3]),
			FAC4x:     stats.PctReduction(g[0], g[4]),
		}
	}
	return rows, nil
}

// SummarizeFig11 reduces the rows to the average % reduction of the
// arithmetic-mean MPKI, weighting by baseline MPKI like the paper's avg.
func SummarizeFig11(rows []Fig11Row, baselines map[string]float64) (ldis3, ldis4, cmpr, fac float64) {
	var base, s3, s4, sc, sf float64
	for _, r := range rows {
		b := baselines[r.Benchmark]
		base += b
		s3 += b * (1 - r.LDIS3x/100)
		s4 += b * (1 - r.LDIS4x/100)
		sc += b * (1 - r.CMPR4x/100)
		sf += b * (1 - r.FAC4x/100)
	}
	if base == 0 {
		return 0, 0, 0, 0
	}
	return 100 * (base - s3) / base, 100 * (base - s4) / base,
		100 * (base - sc) / base, 100 * (base - sf) / base
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
	registerExp("fig10", "compressibility of cache lines (all vs used words)", func(o Options) ([]*stats.Table, error) {
		rows, err := Fig10(o)
		if err != nil {
			return nil, err
		}
		return fig10Table(rows), nil
	}, nil)
	registerExp("fig11", "LDIS vs compression vs footprint-aware compression", func(o Options) ([]*stats.Table, error) {
		rows, err := Fig11(o)
		if err != nil {
			return nil, err
		}
		return []*stats.Table{fig11Table(rows)}, nil
	}, nil)
}
