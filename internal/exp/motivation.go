package exp

import (
	"fmt"

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
	names, grid, err := runConfigs(o, "base-1MB")
	if err != nil {
		return nil, err
	}
	rows := make([]Fig1Row, len(grid))
	for i, name := range names {
		h := grid[i][0].wordsUsed()
		rows[i] = Fig1Row{Benchmark: name, Mean: h.Mean()}
		for wi := 0; wi <= 8; wi++ {
			rows[i].Fractions[wi] = h.Fraction(wi)
		}
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
	names, grid, err := runConfigs(o, "base-1MB")
	if err != nil {
		return nil, err
	}
	rows := make([]Fig2Row, len(grid))
	for i, name := range names {
		h := grid[i][0].fpChange()
		rows[i] = Fig2Row{Benchmark: name}
		for p := 0; p < 8; p++ {
			rows[i].Fractions[p] = h.Fraction(p)
		}
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
	names, grid, err := runConfigs(o, "base-1MB")
	if err != nil {
		return nil, err
	}
	rows := make([]Table2Row, len(grid))
	for i, name := range names {
		r := grid[i][0]
		comp := 0.0
		if r.Misses > 0 {
			// Compulsory fraction over the whole run, as the paper does.
			comp = 100 * float64(r.CompulsoryMisses) / float64(r.Misses)
		}
		prof, err := workload.ByName(name)
		if err != nil {
			return nil, err
		}
		rows[i] = Table2Row{Benchmark: name, MPKI: r.mpki(), CompulsoryPct: comp, PaperMPKI: prof.PaperMPKI}
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
	keys := make([]string, len(Table6Sizes))
	for i, sz := range Table6Sizes {
		keys[i] = tradKey(sz)
	}
	names, grid, err := runConfigs(o, keys...)
	if err != nil {
		return nil, err
	}
	rows := make([]Table6Row, len(grid))
	for i, name := range names {
		row := Table6Row{Benchmark: name, AvgWords: map[string]float64{}}
		for col, sz := range Table6Sizes {
			r := grid[i][col]
			// Prefer eviction-time footprints (the paper's metric);
			// when the working set fits and evictions are scarce, fall
			// back to the footprints of resident lines.
			h := r.wordsUsed()
			avg := h.Mean()
			if h.Total() < 1000 && r.ResidentLines > 0 {
				avg = float64(r.ResidentWords) / float64(r.ResidentLines)
			}
			row.AvgWords[sizeLabel(sz)] = avg
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
	registerExp("fig1", "distribution of words used per cache line (baseline)", rendered(Fig1, single(fig1Table)), nil)
	registerExp("fig2", "max recency position before footprint-change", rendered(Fig2, single(fig2Table)), nil)
	registerExp("table2", "baseline MPKI and compulsory misses", rendered(Table2, single(table2Table)), nil)
	registerExp("table6", "average words used vs cache size", rendered(Table6, single(table6Table)), nil)
}
