package exp

import (
	"ldis/internal/hierarchy"
	"ldis/internal/obs"
	"ldis/internal/sampler"
	"ldis/internal/sfp"
	"ldis/internal/stats"
	"ldis/internal/workload"
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
	names, grid, err := runGrid(o, 4, func(prof *workload.Profile, col int, co *obs.Cell) (float64, error) {
		switch col {
		case 0:
			base, _ := baselineMPKI(prof, o, co)
			return base.MPKI(), nil
		case 1, 2:
			cfg := sfp.DefaultConfig()
			cfg.PredictorEntries = []int{16 << 10, 64 << 10}[col-1]
			cfg.Seed = prof.Seed
			// Same short-trace reverter band as ldisMTRC (see exp.go).
			sc := sampler.DefaultConfig(cfg.Sets())
			sc.LowWatermark = 112
			sc.HighWatermark = 144
			cfg.SamplerConfig = &sc
			sys, _ := hierarchy.SFP(cfg)
			return runWindowed(sys, prof, o, co).MPKI(), nil
		default:
			sysD, _ := distillSystem(ldisMTRC(2, prof.Seed), co)
			return runWindowed(sysD, prof, o, co).MPKI(), nil
		}
	})
	if err != nil {
		return nil, err
	}
	rows := make([]Fig13Row, len(grid))
	for i, name := range names {
		g := grid[i]
		rows[i] = Fig13Row{
			Benchmark: name,
			SFP64kB:   stats.PctReduction(g[0], g[1]),
			SFP256kB:  stats.PctReduction(g[0], g[2]),
			LDIS:      stats.PctReduction(g[0], g[3]),
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
	registerExp("fig13", "SFP (spatial footprint predictor) vs LDIS", func(o Options) ([]*stats.Table, error) {
		rows, err := Fig13(o)
		if err != nil {
			return nil, err
		}
		return []*stats.Table{fig13Table(rows)}, nil
	}, nil)
}
