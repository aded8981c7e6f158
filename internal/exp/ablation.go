package exp

import (
	"ldis/internal/stats"
	"ldis/internal/workload"
)

// This file registers the design-space ablations DESIGN.md calls out as
// first-class experiments, so `ldisexp ablation-...` regenerates them
// like any paper figure. The corresponding Benchmark* functions in
// bench_test.go run reduced versions of the same sweeps.

// mpkiAblation runs one windowed cell per (benchmark, key) and renders
// the window MPKI of each key as one column. defaults, when non-nil,
// replaces the paper's 16 benchmarks when Options.Benchmarks is empty;
// it is applied after Validate, so the run's cell store stays bound to
// the caller's options.
func mpkiAblation(o Options, defaults []string, title string, cols []string, keys ...string) ([]*stats.Table, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	if len(o.Benchmarks) == 0 {
		o.Benchmarks = defaults
	}
	names, grid, err := runConfigs(o, keys...)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable(title, append([]string{"benchmark"}, cols...)...)
	for i, name := range names {
		cells := []any{name}
		for _, r := range grid[i] {
			cells = append(cells, r.mpki())
		}
		t.AddRow(cells...)
	}
	return []*stats.Table{t}, nil
}

// AblationWOCWays sweeps the LOC/WOC way split: the baseline plus four
// splits.
func AblationWOCWays(o Options) ([]*stats.Table, error) {
	return mpkiAblation(o, nil, "Ablation: WOC way count (MPKI, 1MB 8-way total)",
		[]string{"baseline", "1 WOC way", "2 WOC ways", "3 WOC ways", "4 WOC ways"},
		"base-1MB", "ldis-mt-rc-1", "ldis-mt-rc-2", "ldis-mt-rc-3", "ldis-mt-rc-4")
}

// AblationThreshold sweeps the static distillation threshold K against
// the adaptive median (Section 5.4).
func AblationThreshold(o Options) ([]*stats.Table, error) {
	return mpkiAblation(o, nil, "Ablation: distillation threshold K (MPKI, no reverter)",
		[]string{"K=1", "K=2", "K=4", "K=8", "median"},
		"ldis-k1", "ldis-k2", "ldis-k4", "ldis-k8", "ldis-mt-2")
}

// AblationVictim isolates filtering from associativity: the same data
// budget as the WOC, used as a plain full-line victim buffer.
func AblationVictim(o Options) ([]*stats.Table, error) {
	return mpkiAblation(o, nil, "Ablation: distillation vs full-line victim buffer (MPKI)",
		[]string{"baseline", "distill (LDIS-MT-RC)", "victim buffer"},
		"base-1MB", "ldis-mt-rc-2", "victim-2")
}

// AblationPrefetch measures next-line prefetching over the baseline and
// the distill cache (the paper's Section 9 composition argument).
func AblationPrefetch(o Options) ([]*stats.Table, error) {
	return mpkiAblation(o, nil, "Ablation: next-line prefetching composed with LDIS (MPKI)",
		[]string{"baseline", "baseline+pf2", "distill", "distill+pf2"},
		"base-1MB", "base-1MB+pf2", "ldis-mt-rc-2", "ldis-mt-rc-2+pf2")
}

// AblationLeaderSets sweeps the reverter's sampling density on the
// adversarial benchmarks. 32 leaders is the default sampler, plain
// LDIS-MT-RC.
func AblationLeaderSets(o Options) ([]*stats.Table, error) {
	return mpkiAblation(o, []string{"swim", "bzip2", "parser", "galgel"}, "Ablation: reverter leader-set count (MPKI)",
		[]string{"baseline", "8 leaders", "32 leaders", "128 leaders"},
		"base-1MB", "ldis-mt-rc-2-l8", "ldis-mt-rc-2", "ldis-mt-rc-2-l128")
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
	// Fills and writebacks per kilo-instruction over the whole run.
	names, rows, err := runConfigs(o, "base-1MB", "ldis-mt-rc-2")
	if err != nil {
		return nil, err
	}
	perKInst := func(r cellRecord) (fills, wbs float64) {
		kinst := float64(r.Instructions) / 1000
		return float64(r.Misses) / kinst, float64(r.Writebacks) / kinst
	}
	for i, name := range names {
		bf, bw := perKInst(rows[i][0])
		df, dw := perKInst(rows[i][1])
		delta := 0.0
		if bf+bw > 0 {
			delta = 100 * ((df + dw) - (bf + bw)) / (bf + bw)
		}
		t.AddRow(name, bf, bw, df, dw, delta)
	}
	return []*stats.Table{t}, nil
}
