package exp

import (
	"ldis/internal/stats"
)

// Fig13Row compares spatial footprint prediction against line
// distillation (paper Figure 13): % MPKI reduction over the baseline.
type Fig13Row struct {
	Benchmark               string
	SFP64kB, SFP256kB, LDIS float64
}

// Fig13 runs SFP with 16k-entry (64kB) and 64k-entry (256kB) predictors
// — both reverter-wrapped, as in the paper — against LDIS-MT-RC. Each
// configuration (plus the baseline) is its own scheduler cell.
func Fig13(o Options) ([]Fig13Row, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	names, grid, err := runConfigs(o, "base-1MB", "sfp-16k", "sfp-64k", "ldis-mt-rc-2")
	if err != nil {
		return nil, err
	}
	rows := make([]Fig13Row, len(grid))
	for i, name := range names {
		base := grid[i][0].mpki()
		rows[i] = Fig13Row{
			Benchmark: name,
			SFP64kB:   stats.PctReduction(base, grid[i][1].mpki()),
			SFP256kB:  stats.PctReduction(base, grid[i][2].mpki()),
			LDIS:      stats.PctReduction(base, grid[i][3].mpki()),
		}
	}
	return rows, nil
}

func fig13Table(rows []Fig13Row) *stats.Table {
	t := stats.NewTable("Figure 13: % MPKI reduction: SFP vs LDIS (equal tag entries)",
		"benchmark", "SFP-64kB", "SFP-256kB", "LDIS")
	var a, b, c float64
	for _, r := range rows {
		t.AddRow(r.Benchmark, r.SFP64kB, r.SFP256kB, r.LDIS)
		a += r.SFP64kB
		b += r.SFP256kB
		c += r.LDIS
	}
	if n := float64(len(rows)); n > 0 {
		t.AddRow("mean", a/n, b/n, c/n)
	}
	return t
}

func init() {
	registerExp("fig13", "SFP (spatial footprint predictor) vs LDIS", rendered(Fig13, single(fig13Table)), nil)
}
