package exp

import (
	"fmt"

	"ldis/internal/cache"
	"ldis/internal/mem"
	"ldis/internal/obs"
	"ldis/internal/stats"
	"ldis/internal/workload"
)

// Fig1Row is one benchmark's words-used distribution in the baseline
// cache (paper Figure 1): fraction of evicted lines using 1..8 words,
// plus the mean.
type Fig1Row struct {
	Benchmark string
	Fractions [9]float64 // index = words used (0 unused)
	Mean      float64
}

// Fig1 measures the distribution of words used per cache line for the
// baseline 1MB 8-way L2.
func Fig1(o Options) ([]Fig1Row, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	_, grid, err := runGrid(o, 1, func(prof *workload.Profile, _ int, co *obs.Cell) (Fig1Row, error) {
		_, c := baselineMPKI(prof, o, co)
		h := c.Stats().WordsUsedAtEvict
		row := Fig1Row{Benchmark: prof.Name, Mean: h.Mean()}
		for wi := 0; wi <= 8; wi++ {
			row.Fractions[wi] = h.Fraction(wi)
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	rows := make([]Fig1Row, len(grid))
	for i := range grid {
		rows[i] = grid[i][0]
	}
	return rows, nil
}

func fig1Table(rows []Fig1Row) *stats.Table {
	t := stats.NewTable("Figure 1: distribution of words used per cache line (baseline 1MB 8-way)",
		"benchmark", "1w", "2w", "3w", "4w", "5w", "6w", "7w", "8w", "avg words")
	for _, r := range rows {
		cells := []interface{}{r.Benchmark}
		for wi := 1; wi <= 8; wi++ {
			cells = append(cells, fmt.Sprintf("%.2f", r.Fractions[wi]))
		}
		cells = append(cells, r.Mean)
		t.AddRow(cells...)
	}
	return t
}

// Fig2Row is one benchmark's distribution of the maximum recency
// position before footprint-change (paper Figure 2).
type Fig2Row struct {
	Benchmark string
	Fractions [8]float64 // recency positions 0..7
}

// Pos0to3 returns the mass at positions 0-3 (the paper reports 83% on
// average).
func (r Fig2Row) Pos0to3() float64 {
	return r.Fractions[0] + r.Fractions[1] + r.Fractions[2] + r.Fractions[3]
}

// Pos6to7 returns the mass at positions 6-7 (paper: <12%).
func (r Fig2Row) Pos6to7() float64 { return r.Fractions[6] + r.Fractions[7] }

// Fig2 measures where in the LRU stack footprints stop changing.
func Fig2(o Options) ([]Fig2Row, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	_, grid, err := runGrid(o, 1, func(prof *workload.Profile, _ int, co *obs.Cell) (Fig2Row, error) {
		_, c := baselineMPKI(prof, o, co)
		h := c.Stats().FPChangePos
		row := Fig2Row{Benchmark: prof.Name}
		for p := 0; p < 8; p++ {
			row.Fractions[p] = h.Fraction(p)
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	rows := make([]Fig2Row, len(grid))
	for i := range grid {
		rows[i] = grid[i][0]
	}
	return rows, nil
}

func fig2Table(rows []Fig2Row) *stats.Table {
	t := stats.NewTable("Figure 2: max recency position before footprint-change (0=MRU, 7=LRU)",
		"benchmark", "p0", "p1", "p2", "p3", "p4", "p5", "p6", "p7", "p0-3", "p6-7")
	var sum03, sum67 float64
	for _, r := range rows {
		cells := []interface{}{r.Benchmark}
		for p := 0; p < 8; p++ {
			cells = append(cells, fmt.Sprintf("%.2f", r.Fractions[p]))
		}
		cells = append(cells, fmt.Sprintf("%.2f", r.Pos0to3()), fmt.Sprintf("%.2f", r.Pos6to7()))
		t.AddRow(cells...)
		sum03 += r.Pos0to3()
		sum67 += r.Pos6to7()
	}
	if len(rows) > 0 {
		n := float64(len(rows))
		t.AddRow("avg", "", "", "", "", "", "", "", "",
			fmt.Sprintf("%.2f", sum03/n), fmt.Sprintf("%.2f", sum67/n))
	}
	return t
}

// Table2Row is one benchmark's baseline MPKI and compulsory-miss
// fraction (paper Table 2).
type Table2Row struct {
	Benchmark     string
	MPKI          float64
	CompulsoryPct float64
	PaperMPKI     float64
}

// Table2 measures baseline MPKI and compulsory fraction.
func Table2(o Options) ([]Table2Row, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	_, grid, err := runGrid(o, 1, func(prof *workload.Profile, _ int, co *obs.Cell) (Table2Row, error) {
		sys, _ := tradSystem(cache.Config{Name: "base-1MB", SizeBytes: 1 << 20, Ways: 8}, co)
		w := runWindowed(sys, prof, o, co)
		comp := 0.0
		if m := sys.L2.Misses(); m > 0 {
			// Compulsory fraction over the whole run, as the paper does.
			comp = 100 * float64(sys.CompulsoryMisses) / float64(m)
		}
		return Table2Row{
			Benchmark:     prof.Name,
			MPKI:          w.MPKI(),
			CompulsoryPct: comp,
			PaperMPKI:     prof.PaperMPKI,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	rows := make([]Table2Row, len(grid))
	for i := range grid {
		rows[i] = grid[i][0]
	}
	return rows, nil
}

func table2Table(rows []Table2Row) *stats.Table {
	t := stats.NewTable("Table 2: benchmark summary (baseline 1MB 8-way L2)",
		"benchmark", "MPKI", "compulsory %", "paper MPKI")
	for _, r := range rows {
		t.AddRow(r.Benchmark, r.MPKI, r.CompulsoryPct, r.PaperMPKI)
	}
	return t
}

// Table6Row is one benchmark's average words used at several cache
// sizes (paper Table 6 / Appendix B).
type Table6Row struct {
	Benchmark string
	// AvgWords maps size label -> mean words used at eviction.
	AvgWords map[string]float64
}

// Table6Sizes are the paper's capacities in MB.
var Table6Sizes = []float64{0.75, 1.0, 1.25, 1.5, 2.0}

// Table6 measures how word usage changes with cache capacity: one
// scheduler cell per (benchmark, cache size).
func Table6(o Options) ([]Table6Row, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	names, grid, err := runGrid(o, len(Table6Sizes), func(prof *workload.Profile, col int, co *obs.Cell) (float64, error) {
		sz := Table6Sizes[col]
		sys, c := tradSystem(baselineConfig(fmt.Sprintf("base-%.2fMB", sz), sz), co)
		runWindowed(sys, prof, o, co)
		// Prefer eviction-time footprints (the paper's metric); when
		// the working set fits and evictions are scarce, fall back to
		// the footprints of resident lines.
		avg := c.Stats().WordsUsedAtEvict.Mean()
		if c.Stats().WordsUsedAtEvict.Total() < 1000 {
			var sum, n float64
			c.VisitLines(func(_ mem.LineAddr, fp mem.Footprint) {
				sum += float64(fp.Count())
				n++
			})
			if n > 0 {
				avg = sum / n
			}
		}
		return avg, nil
	})
	if err != nil {
		return nil, err
	}
	rows := make([]Table6Row, len(grid))
	for i, name := range names {
		row := Table6Row{Benchmark: name, AvgWords: map[string]float64{}}
		for col, sz := range Table6Sizes {
			row.AvgWords[sizeLabel(sz)] = grid[i][col]
		}
		rows[i] = row
	}
	return rows, nil
}

func sizeLabel(sz float64) string { return fmt.Sprintf("%.2fMB", sz) }

func table6Table(rows []Table6Row) *stats.Table {
	headers := []string{"benchmark"}
	for _, sz := range Table6Sizes {
		headers = append(headers, sizeLabel(sz))
	}
	t := stats.NewTable("Table 6: average words used per line vs cache size", headers...)
	for _, r := range rows {
		cells := []interface{}{r.Benchmark}
		for _, sz := range Table6Sizes {
			cells = append(cells, r.AvgWords[sizeLabel(sz)])
		}
		t.AddRow(cells...)
	}
	return t
}

func init() {
	registerExp("fig1", "distribution of words used per cache line (baseline)", func(o Options) ([]*stats.Table, error) {
		rows, err := Fig1(o)
		if err != nil {
			return nil, err
		}
		return []*stats.Table{fig1Table(rows)}, nil
	}, nil)
	registerExp("fig2", "max recency position before footprint-change", func(o Options) ([]*stats.Table, error) {
		rows, err := Fig2(o)
		if err != nil {
			return nil, err
		}
		return []*stats.Table{fig2Table(rows)}, nil
	}, nil)
	registerExp("table2", "baseline MPKI and compulsory misses", func(o Options) ([]*stats.Table, error) {
		rows, err := Table2(o)
		if err != nil {
			return nil, err
		}
		return []*stats.Table{table2Table(rows)}, nil
	}, nil)
	registerExp("table6", "average words used vs cache size", func(o Options) ([]*stats.Table, error) {
		rows, err := Table6(o)
		if err != nil {
			return nil, err
		}
		return []*stats.Table{table6Table(rows)}, nil
	}, nil)
}
