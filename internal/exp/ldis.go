package exp

import (
	"ldis/internal/stats"
)

// Fig6Row is one benchmark's MPKI reduction under the three LDIS
// configurations (paper Figure 6).
type Fig6Row struct {
	Benchmark    string
	BaselineMPKI float64
	Base, MT, RC float64 // % MPKI reduction vs baseline
}

// Fig6 compares LDIS-Base, LDIS-MT, and LDIS-MT-RC against the 1MB
// baseline. Each of the four configurations is its own cell.
func Fig6(o Options) ([]Fig6Row, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	names, grid, err := runConfigs(o, "base-1MB", "ldis-base-2", "ldis-mt-2", "ldis-mt-rc-2")
	if err != nil {
		return nil, err
	}
	rows := make([]Fig6Row, len(grid))
	for i, name := range names {
		base := grid[i][0].mpki()
		rows[i] = Fig6Row{
			Benchmark:    name,
			BaselineMPKI: base,
			Base:         stats.PctReduction(base, grid[i][1].mpki()),
			MT:           stats.PctReduction(base, grid[i][2].mpki()),
			RC:           stats.PctReduction(base, grid[i][3].mpki()),
		}
	}
	return rows, nil
}

// Fig6Summary computes the paper's avg and avgNomcf bars: the reduction
// of the *arithmetic mean MPKI* across benchmarks.
type Fig6Summary struct {
	Avg, AvgNomcf struct{ Base, MT, RC float64 }
}

// SummarizeFig6 reduces the per-benchmark rows to the avg bars. The
// mean-MPKI reduction needs the absolute MPKIs, reconstructed from the
// baseline and the reduction percentages.
func SummarizeFig6(rows []Fig6Row) Fig6Summary {
	var s Fig6Summary
	type acc struct{ base, b, m, r float64 }
	var all, nomcf acc
	for _, row := range rows {
		b := row.BaselineMPKI
		add := func(a *acc) {
			a.base += b
			a.b += b * (1 - row.Base/100)
			a.m += b * (1 - row.MT/100)
			a.r += b * (1 - row.RC/100)
		}
		add(&all)
		if row.Benchmark != "mcf" {
			add(&nomcf)
		}
	}
	fill := func(a acc) struct{ Base, MT, RC float64 } {
		if a.base == 0 {
			return struct{ Base, MT, RC float64 }{}
		}
		return struct{ Base, MT, RC float64 }{
			Base: 100 * (a.base - a.b) / a.base,
			MT:   100 * (a.base - a.m) / a.base,
			RC:   100 * (a.base - a.r) / a.base,
		}
	}
	s.Avg = fill(all)
	s.AvgNomcf = fill(nomcf)
	return s
}

func fig6Table(rows []Fig6Row) *stats.Table {
	t := stats.NewTable("Figure 6: % reduction in MPKI over baseline",
		"benchmark", "base MPKI", "LDIS-Base", "LDIS-MT", "LDIS-MT-RC")
	for _, r := range rows {
		t.AddRow(r.Benchmark, r.BaselineMPKI, r.Base, r.MT, r.RC)
	}
	s := SummarizeFig6(rows)
	t.AddRow("avg", "", s.Avg.Base, s.Avg.MT, s.Avg.RC)
	t.AddRow("avgNomcf", "", s.AvgNomcf.Base, s.AvgNomcf.MT, s.AvgNomcf.RC)
	return t
}

// Fig7Row is one benchmark's hit-miss breakdown for the baseline and
// the distill cache (paper Figure 7), as fractions of L2 accesses.
type Fig7Row struct {
	Benchmark string
	// Baseline.
	BaseHit float64
	// Distill cache.
	LOCHit, WOCHit, HoleMiss, LineMiss float64
}

// Fig7 measures the four-outcome breakdown of the default distill
// cache against the baseline's hit rate, both over the whole run.
func Fig7(o Options) ([]Fig7Row, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	names, grid, err := runConfigs(o, "base-1MB", "ldis-mt-rc-2")
	if err != nil {
		return nil, err
	}
	rows := make([]Fig7Row, len(grid))
	for i, name := range names {
		b, d := grid[i][0], grid[i][1]
		baseHit := 0.0
		if b.Accesses > 0 {
			baseHit = float64(b.Hits) / float64(b.Accesses)
		}
		total := float64(d.Accesses)
		if total == 0 {
			total = 1
		}
		rows[i] = Fig7Row{
			Benchmark: name,
			BaseHit:   baseHit,
			LOCHit:    float64(d.LOCHits) / total,
			WOCHit:    float64(d.WOCHits) / total,
			HoleMiss:  float64(d.HoleMisses) / total,
			LineMiss:  float64(d.LineMisses) / total,
		}
	}
	return rows, nil
}

func fig7Table(rows []Fig7Row) *stats.Table {
	t := stats.NewTable("Figure 7: hit-miss breakdown (fractions of L2 accesses)",
		"benchmark", "base hit", "LOC-hit", "WOC-hit", "hole-miss", "line-miss", "distill hit")
	for _, r := range rows {
		t.AddRow(r.Benchmark, r.BaseHit, r.LOCHit, r.WOCHit, r.HoleMiss, r.LineMiss, r.LOCHit+r.WOCHit)
	}
	return t
}

// Fig8Row compares the distill cache against bigger traditional caches
// (paper Figure 8): % MPKI reduction over the 1MB baseline.
type Fig8Row struct {
	Benchmark           string
	Distill, MB15, MB20 float64
}

// Fig8 runs the capacity analysis: four cells per benchmark
// (baseline, distill, and the two bigger traditional caches).
func Fig8(o Options) ([]Fig8Row, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	names, grid, err := runConfigs(o, "base-1MB", "ldis-mt-rc-2", "trad-1.5MB", "trad-2MB")
	if err != nil {
		return nil, err
	}
	rows := make([]Fig8Row, len(grid))
	for i, name := range names {
		base := grid[i][0].mpki()
		rows[i] = Fig8Row{
			Benchmark: name,
			Distill:   stats.PctReduction(base, grid[i][1].mpki()),
			MB15:      stats.PctReduction(base, grid[i][2].mpki()),
			MB20:      stats.PctReduction(base, grid[i][3].mpki()),
		}
	}
	return rows, nil
}

func fig8Table(rows []Fig8Row) *stats.Table {
	t := stats.NewTable("Figure 8: % MPKI reduction: distill vs bigger traditional caches",
		"benchmark", "DISTILL 1MB", "TRAD 1.5MB", "TRAD 2MB")
	for _, r := range rows {
		t.AddRow(r.Benchmark, r.Distill, r.MB15, r.MB20)
	}
	return t
}

// Table5Row gives MPKI for the cache-insensitive benchmarks under four
// configurations (paper Table 5).
type Table5Row struct {
	Benchmark                          string
	Trad1MB, LDIS1MB, Trad2MB, Trad4MB float64
}

// Table5 runs the Appendix A sanity check: LDIS must track the
// traditional cache when capacity does not matter.
func Table5(o Options) ([]Table5Row, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	if len(o.Benchmarks) == 0 {
		// The seven Table-5 rows plus the four benchmarks Appendix A
		// mentions in text as having unchanged MPKI.
		o.Benchmarks = []string{"equake", "lucas", "mgrid", "applu", "mesa", "crafty", "gap",
			"gzip", "fma3d", "perlbmk", "eon"}
	}
	names, grid, err := runConfigs(o, "base-1MB", "ldis-mt-rc-2", "trad-2MB", "trad-4MB")
	if err != nil {
		return nil, err
	}
	rows := make([]Table5Row, len(grid))
	for i, name := range names {
		g := grid[i]
		rows[i] = Table5Row{Benchmark: name, Trad1MB: g[0].mpki(), LDIS1MB: g[1].mpki(), Trad2MB: g[2].mpki(), Trad4MB: g[3].mpki()}
	}
	return rows, nil
}

func table5Table(rows []Table5Row) *stats.Table {
	t := stats.NewTable("Table 5: MPKI for cache-insensitive benchmarks",
		"benchmark", "Trad 1MB", "LDIS 1MB", "Trad 2MB", "Trad 4MB")
	for _, r := range rows {
		t.AddRow(r.Benchmark, r.Trad1MB, r.LDIS1MB, r.Trad2MB, r.Trad4MB)
	}
	return t
}

func init() {
	registerExp("fig6", "MPKI reduction: LDIS-Base / LDIS-MT / LDIS-MT-RC", rendered(Fig6, single(fig6Table)), nil)
	registerExp("fig7", "hit-miss breakdown: baseline vs distill cache", rendered(Fig7, single(fig7Table)), nil)
	registerExp("fig8", "capacity analysis: distill vs 1.5MB and 2MB traditional", rendered(Fig8, single(fig8Table)), nil)
	registerExp("table5", "cache-insensitive benchmarks (Appendix A)", rendered(Table5, single(table5Table)), nil)
}
