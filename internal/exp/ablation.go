package exp

import (
	"ldis/internal/cache"
	"ldis/internal/distill"
	"ldis/internal/hierarchy"
	"ldis/internal/mem"
	"ldis/internal/obs"
	"ldis/internal/prefetch"
	"ldis/internal/sampler"
	"ldis/internal/stats"
	"ldis/internal/workload"
)

// This file registers the design-space ablations DESIGN.md calls out as
// first-class experiments, so `ldisexp ablation-...` regenerates them
// like any paper figure. The corresponding Benchmark* functions in
// bench_test.go run reduced versions of the same sweeps.

// AblationWOCWays sweeps the LOC/WOC way split: five scheduler cells
// per benchmark (baseline plus four splits).
func AblationWOCWays(o Options) ([]*stats.Table, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	t := stats.NewTable("Ablation: WOC way count (MPKI, 1MB 8-way total)",
		"benchmark", "baseline", "1 WOC way", "2 WOC ways", "3 WOC ways", "4 WOC ways")
	names, rows, err := runGrid(o, 5, func(prof *workload.Profile, col int, co *obs.Cell) (float64, error) {
		if col == 0 {
			base, _ := baselineMPKI(prof, o, co)
			return base.MPKI(), nil
		}
		sys, _ := distillSystem(ldisMTRC(col, prof.Seed), co)
		return runWindowed(sys, prof, o, co).MPKI(), nil
	})
	if err != nil {
		return nil, err
	}
	for i, name := range names {
		t.AddRow(name, rows[i][0], rows[i][1], rows[i][2], rows[i][3], rows[i][4])
	}
	return []*stats.Table{t}, nil
}

// AblationThreshold sweeps the static distillation threshold K against
// the adaptive median (Section 5.4).
func AblationThreshold(o Options) ([]*stats.Table, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	t := stats.NewTable("Ablation: distillation threshold K (MPKI, no reverter)",
		"benchmark", "K=1", "K=2", "K=4", "K=8", "median")
	names, rows, err := runGrid(o, 5, func(prof *workload.Profile, col int, co *obs.Cell) (float64, error) {
		var cfg distill.Config
		if col < 4 {
			cfg = ldisBase(2, prof.Seed)
			cfg.StaticThreshold = []int{1, 2, 4, 8}[col]
		} else {
			cfg = ldisMT(2, prof.Seed)
		}
		sys, _ := distillSystem(cfg, co)
		return runWindowed(sys, prof, o, co).MPKI(), nil
	})
	if err != nil {
		return nil, err
	}
	for i, name := range names {
		t.AddRow(name, rows[i][0], rows[i][1], rows[i][2], rows[i][3], rows[i][4])
	}
	return []*stats.Table{t}, nil
}

// AblationVictim isolates filtering from associativity: the same data
// budget as the WOC, used as a plain full-line victim buffer.
func AblationVictim(o Options) ([]*stats.Table, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	t := stats.NewTable("Ablation: distillation vs full-line victim buffer (MPKI)",
		"benchmark", "baseline", "distill (LDIS-MT-RC)", "victim buffer")
	names, rows, err := runGrid(o, 3, func(prof *workload.Profile, col int, co *obs.Cell) (float64, error) {
		switch col {
		case 0:
			base, _ := baselineMPKI(prof, o, co)
			return base.MPKI(), nil
		case 1:
			sysD, _ := distillSystem(ldisMTRC(2, prof.Seed), co)
			return runWindowed(sysD, prof, o, co).MPKI(), nil
		default:
			vcfg := ldisBase(2, prof.Seed)
			vcfg.Slots = func(mem.LineAddr, mem.Footprint) int { return mem.WordsPerLine }
			sysV, _ := distillSystem(vcfg, co)
			return runWindowed(sysV, prof, o, co).MPKI(), nil
		}
	})
	if err != nil {
		return nil, err
	}
	for i, name := range names {
		t.AddRow(name, rows[i][0], rows[i][1], rows[i][2])
	}
	return []*stats.Table{t}, nil
}

// AblationPrefetch measures next-line prefetching over the baseline and
// the distill cache (the paper's Section 9 composition argument).
func AblationPrefetch(o Options) ([]*stats.Table, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	t := stats.NewTable("Ablation: next-line prefetching composed with LDIS (MPKI)",
		"benchmark", "baseline", "baseline+pf2", "distill", "distill+pf2")
	names, rows, err := runGrid(o, 4, func(prof *workload.Profile, col int, co *obs.Cell) (float64, error) {
		var l2 hierarchy.L2
		switch col {
		case 0:
			l2 = hierarchy.NewTradL2(cache.New(cache.Config{Name: "b", SizeBytes: 1 << 20, Ways: 8, Obs: co}))
		case 1:
			inner := hierarchy.NewTradL2(cache.New(cache.Config{Name: "b", SizeBytes: 1 << 20, Ways: 8, Obs: co}))
			l2 = prefetch.Wrap(inner, prefetch.Config{Degree: 2})
		case 2:
			cfg := ldisMTRC(2, prof.Seed)
			cfg.Obs = co
			l2 = hierarchy.NewDistillL2(distill.New(cfg))
		default:
			cfg := ldisMTRC(2, prof.Seed)
			cfg.Obs = co
			inner := hierarchy.NewDistillL2(distill.New(cfg))
			l2 = prefetch.Wrap(inner, prefetch.Config{Degree: 2})
		}
		sys := hierarchy.NewSystem(l2)
		return runWindowed(sys, prof, o, co).MPKI(), nil
	})
	if err != nil {
		return nil, err
	}
	for i, name := range names {
		t.AddRow(name, rows[i][0], rows[i][1], rows[i][2], rows[i][3])
	}
	return []*stats.Table{t}, nil
}

// AblationLeaderSets sweeps the reverter's sampling density on the
// adversarial benchmarks.
func AblationLeaderSets(o Options) ([]*stats.Table, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	if len(o.Benchmarks) == 0 {
		o.Benchmarks = []string{"swim", "bzip2", "parser", "galgel"}
	}
	leaderCounts := []int{8, 32, 128}
	t := stats.NewTable("Ablation: reverter leader-set count (MPKI)",
		"benchmark", "baseline", "8 leaders", "32 leaders", "128 leaders")
	names, rows, err := runGrid(o, 1+len(leaderCounts), func(prof *workload.Profile, col int, co *obs.Cell) (float64, error) {
		if col == 0 {
			base, _ := baselineMPKI(prof, o, co)
			return base.MPKI(), nil
		}
		cfg := ldisMTRC(2, prof.Seed)
		sc := sampler.DefaultConfig(cfg.Sets())
		sc.LeaderSets = leaderCounts[col-1]
		sc.LowWatermark = 112
		sc.HighWatermark = 144
		cfg.SamplerConfig = &sc
		sys, _ := distillSystem(cfg, co)
		return runWindowed(sys, prof, o, co).MPKI(), nil
	})
	if err != nil {
		return nil, err
	}
	for i, name := range names {
		t.AddRow(name, rows[i][0], rows[i][1], rows[i][2], rows[i][3])
	}
	return []*stats.Table{t}, nil
}

// ProfilesTable documents every synthetic benchmark's parameters.
func ProfilesTable() *stats.Table {
	t := stats.NewTable("Synthetic benchmark profiles (see DESIGN.md for the substitution argument)",
		"benchmark", "refs/kinst", "store frac", "MLP", "L1I MPKI", "paper MPKI", "paper words")
	for _, name := range workload.Names() {
		p, err := workload.ByName(name)
		if err != nil {
			continue
		}
		t.AddRow(p.Name, p.MemRefsPerKInst, p.StoreFrac, p.MLP, p.L1IMPKI, p.PaperMPKI, p.PaperWordsUsed)
	}
	return t
}

func init() {
	registerExp("ablation-woc-ways", "sweep the LOC/WOC way split", AblationWOCWays, nil)
	registerExp("ablation-threshold", "sweep the distillation threshold K vs median", AblationThreshold, nil)
	registerExp("ablation-victim", "distillation vs a same-budget victim buffer", AblationVictim, nil)
	registerExp("ablation-prefetch", "next-line prefetching composed with LDIS", AblationPrefetch, nil)
	registerExp("ablation-leaders", "reverter leader-set density", AblationLeaderSets, nil)
	registerExp("ablation-traffic", "off-chip traffic: fills + writebacks", AblationTraffic, nil)
	registerExp("profiles", "synthetic benchmark parameter summary", func(Options) ([]*stats.Table, error) {
		return []*stats.Table{ProfilesTable()}, nil
	}, nil)
}

// AblationTraffic measures off-chip traffic (fills + writebacks, whole
// run): distillation trades extra refetches (hole misses) against the
// miss fills it saves, and its WOC evicts dirty words early.
func AblationTraffic(o Options) ([]*stats.Table, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	t := stats.NewTable("Ablation: off-chip traffic in 64B transfers per kilo-instruction",
		"benchmark", "base fills", "base wbs", "distill fills", "distill wbs", "traffic delta %")
	// A cell returns {fills, writebacks} per kilo-instruction for its
	// configuration; the delta is assembled afterwards.
	names, rows, err := runGrid(o, 2, func(prof *workload.Profile, col int, co *obs.Cell) ([2]float64, error) {
		if col == 0 {
			sysB, cb := tradSystem(cache.Config{Name: "base-1MB", SizeBytes: 1 << 20, Ways: 8}, co)
			sysB.Run(prof.Stream(), o.Accesses)
			kinst := float64(sysB.Instructions) / 1000
			return [2]float64{
				float64(cb.Stats().Misses) / kinst,
				float64(cb.Stats().Writebacks) / kinst,
			}, nil
		}
		sysD, cd := distillSystem(ldisMTRC(2, prof.Seed), co)
		sysD.Run(prof.Stream(), o.Accesses)
		kinst := float64(sysD.Instructions) / 1000
		return [2]float64{
			float64(cd.Stats().Misses()) / kinst,
			float64(cd.Stats().Writebacks) / kinst,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, name := range names {
		bf, bw := rows[i][0][0], rows[i][0][1]
		df, dw := rows[i][1][0], rows[i][1][1]
		delta := 0.0
		if bf+bw > 0 {
			delta = 100 * ((df + dw) - (bf + bw)) / (bf + bw)
		}
		t.AddRow(name, bf, bw, df, dw, delta)
	}
	return []*stats.Table{t}, nil
}
