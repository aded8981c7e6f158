package exp

import (
	"ldis/internal/cache"
	"ldis/internal/cpu"
	"ldis/internal/obs"
	"ldis/internal/stats"
	"ldis/internal/workload"
)

// Fig9Row is one benchmark's IPC under the baseline and the distill
// cache (paper Figure 9).
type Fig9Row struct {
	Benchmark          string
	BaseIPC, DistIPC   float64
	ImprovementPercent float64
}

// Fig9 runs the execution-driven IPC comparison: the baseline machine
// versus the same machine with a distill cache (which pays one extra
// tag cycle on every L2 access and two extra cycles on WOC hits).
// The two machines are independent scheduler cells.
func Fig9(o Options) ([]Fig9Row, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	names, grid, err := runGrid(o, 2, func(prof *workload.Profile, col int, co *obs.Cell) (float64, error) {
		if col == 0 {
			sysB, _ := tradSystem(cache.Config{Name: "base-1MB", SizeBytes: 1 << 20, Ways: 8}, co)
			r := cpu.New(cpu.DefaultConfig()).Run(sysB, prof, prof.Stream(), o.Accesses)
			return r.IPC(), nil
		}
		sysD, _ := distillSystem(ldisMTRC(2, prof.Seed), co)
		r := cpu.New(cpu.DistillConfig()).Run(sysD, prof, prof.Stream(), o.Accesses)
		return r.IPC(), nil
	})
	if err != nil {
		return nil, err
	}
	rows := make([]Fig9Row, len(grid))
	for i, name := range names {
		g := grid[i]
		rows[i] = Fig9Row{
			Benchmark:          name,
			BaseIPC:            g[0],
			DistIPC:            g[1],
			ImprovementPercent: stats.PctIncrease(g[0], g[1]),
		}
	}
	return rows, nil
}

// Fig9GMean returns the geometric mean of the per-benchmark IPC
// improvements, as the paper's gmean bar.
func Fig9GMean(rows []Fig9Row) float64 {
	pcts := make([]float64, len(rows))
	for i, r := range rows {
		pcts[i] = r.ImprovementPercent
	}
	return stats.GeoMeanPct(pcts)
}

func fig9Table(rows []Fig9Row) *stats.Table {
	t := stats.NewTable("Figure 9: system IPC improvement with distill cache",
		"benchmark", "base IPC", "distill IPC", "improvement %")
	for _, r := range rows {
		t.AddRow(r.Benchmark, r.BaseIPC, r.DistIPC, r.ImprovementPercent)
	}
	t.AddRow("gmean", "", "", Fig9GMean(rows))
	return t
}

func init() {
	registerExp("fig9", "IPC improvement with the distill cache", func(o Options) ([]*stats.Table, error) {
		rows, err := Fig9(o)
		if err != nil {
			return nil, err
		}
		return []*stats.Table{fig9Table(rows)}, nil
	}, nil)
}
