package exp

import (
	"strings"

	"ldis/internal/cpu"
	"ldis/internal/hierarchy"
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
// The two machines are independent cells.
func Fig9(o Options) ([]Fig9Row, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	// The IPC model paces accesses itself, so these cells have their
	// own "@cpu" keys.
	names, grid, err := runGrid(o, []string{"base-1MB@cpu", "ldis-mt-rc-2@cpu"}, func(prof *workload.Profile, key string, co *obs.Cell) (float64, error) {
		r, _ := ipcCell(configs[strings.TrimSuffix(key, "@cpu")], prof, o, co)
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

// ipcCell runs one Figure 9 cell: the configuration's system for the
// benchmark under the execution-driven timing model, for o.Accesses
// accesses. A distill L2 (not wrapped in a prefetcher) pays one extra
// tag cycle on every L2 access and two extra cycles on WOC hits.
func ipcCell(cfg l2Config, prof *workload.Profile, o Options, co *obs.Cell) (cpu.Result, *hierarchy.System) {
	sys := cfg.build(prof, o, co)
	model := cpu.DefaultConfig()
	if _, ok := sys.L2.(*hierarchy.DistillL2); ok {
		model = cpu.DistillConfig()
	}
	return cpu.New(model).Run(sys, prof, prof.Stream(), o.Accesses), sys
}

// IPC runs the named configuration's Figure 9 cell for the benchmark
// over the given number of accesses, built as Build builds it, and
// returns the timing result and the system it ran.
func IPC(key, benchmark string, accesses int) (cpu.Result, *hierarchy.System, error) {
	cfg, err := config(key)
	if err != nil {
		return cpu.Result{}, nil, err
	}
	prof, err := workload.ByName(benchmark)
	if err != nil {
		return cpu.Result{}, nil, err
	}
	o := DefaultOptions().withKnobDefaults()
	o.Accesses = accesses
	r, sys := ipcCell(cfg, prof, o, nil)
	return r, sys, nil
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
	registerExp("fig9", "IPC improvement with the distill cache", rendered(Fig9, single(fig9Table)), nil)
}
