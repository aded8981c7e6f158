package exp

import (
	"fmt"

	"ldis/internal/cache"
	"ldis/internal/costmodel"
	"ldis/internal/distill"
	"ldis/internal/stats"
	"ldis/internal/wordstore"
)

// The orgs experiment places the three related-work organization
// variants next to the designs they modify:
//
//	col 0  base      1MB 8-way traditional cache (base-1MB);
//	col 1  waymemo   the same cache with way memoization (arXiv
//	                 0710.4703) — functionally transparent, the memo
//	                 counters price skipped tag probes;
//	col 2  ldis      plain distill cache (2 WOC ways, per-word tags;
//	                 ldis-base-2);
//	col 3  touche    the distill cache with Touché compressed
//	                 superblock tags (arXiv 1909.00553) — less tag
//	                 area, alias-safe misses instead of false hits;
//	col 4  copyback  the distill cache with reuse-distance-gated clean
//	                 copy-back of L1 victims (arXiv 2105.14442).
//
// The traditional columns are shard-exact and run sharded when
// Options.Shards asks for it (the memo counters are per-set and merge
// exactly); the distill columns run sequentially, as every distill
// experiment does — distill.Config.ShardExact() declares the
// limitation honestly (copy-back consults one global Mattson stack).

// Orgs geometry: the paper's shared 1MB, 8-way, 64B-line L2.
const (
	orgSizeBytes = 1 << 20
	orgWays      = 8
)

// orgColumns names the experiment's columns in order, and orgKeys the
// configuration each column reads.
var (
	orgColumns = []string{"base", "waymemo", "ldis", "touche", "copyback"}
	orgKeys    = []string{"base-1MB", "waymemo", "ldis-base-2", "touche", "copyback"}
)

// orgCell is one (benchmark, organization) result: the column's name
// and the record of the cell it reads.
type orgCell struct {
	Org string
	cellRecord
}

// OrgsParams are the orgs experiment's knobs. A zero field takes its
// declared default.
type OrgsParams struct {
	// ToucheSBLines is the Touché superblock size in lines.
	ToucheSBLines int
	// CopyBackMaxReuse is the copy-back admission window in bytes.
	CopyBackMaxReuse int
	// WayMemoEntries is the way-memo entries per cache set.
	WayMemoEntries int
}

// knobs declares the orgs knobs; each check is the modified
// component's own config check.
func (p *OrgsParams) knobs() []Knob {
	return []Knob{
		{Key: "touche-sb-lines", Name: "org_touche_sb_lines", Syntax: "<pow2>", ptr: &p.ToucheSBLines, def: 4,
			check: func() error { return wordstore.ToucheConfig{SuperblockLines: p.ToucheSBLines}.Validate() }},
		{Key: "copyback-max-reuse", Name: "org_copyback_max_reuse", Syntax: "<bytes>", ptr: &p.CopyBackMaxReuse, def: orgSizeBytes,
			check: func() error { return distill.CopyBackConfig{MaxReuseBytes: p.CopyBackMaxReuse}.Validate() }},
		{Key: "waymemo-entries", Name: "org_waymemo_entries", Syntax: "<pow2>", ptr: &p.WayMemoEntries, def: 4,
			check: func() error { return cache.WayMemoConfig{EntriesPerSet: p.WayMemoEntries}.Validate() }},
	}
}

// OrgsRow is one benchmark's cells across the five organizations.
type OrgsRow struct {
	Benchmark string
	Cells     []orgCell // indexed like orgColumns
}

// Orgs runs the related-work organization sweep.
func Orgs(o Options) ([]OrgsRow, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	names, grid, err := runConfigs(o, orgKeys...)
	if err != nil {
		return nil, err
	}
	rows := make([]OrgsRow, len(names))
	for i, name := range names {
		cells := make([]orgCell, len(orgColumns))
		for col, r := range grid[i] {
			cells[col] = orgCell{orgColumns[col], r}
		}
		rows[i] = OrgsRow{Benchmark: name, Cells: cells}
	}
	return rows, nil
}

// orgToucheParams maps the experiment's Touché knobs onto the cost
// model (geometry already matches costmodel.Defaults: 1MB, 8 ways, 2
// WOC ways, 64B lines).
func (o Options) orgToucheParams() costmodel.ToucheParams {
	t := costmodel.ToucheDefaults()
	t.SuperblockLines = o.withKnobDefaults().Orgs.ToucheSBLines
	return t
}

// orgsMPKITable is the headline comparison.
func orgsMPKITable(rows []OrgsRow) *stats.Table {
	t := stats.NewTable("Organizations: MPKI by cache organization",
		"benchmark", "base", "waymemo", "ldis", "touche", "copyback")
	for _, r := range rows {
		cells := make([]any, 0, len(r.Cells)+1)
		cells = append(cells, r.Benchmark)
		for _, c := range r.Cells {
			cells = append(cells, fmt.Sprintf("%.3f", c.Totals.MPKI()))
		}
		t.AddRow(cells...)
	}
	return t
}

// orgsToucheTable reports the compressed-tag column's behaviour (alias
// safety is a structural invariant; the table shows how often it was
// exercised) and the static area comparison from the cost model.
func orgsToucheTable(rows []OrgsRow, o Options) []*stats.Table {
	dyn := stats.NewTable("Touché tags: dynamic behaviour vs per-word LDIS tags",
		"benchmark", "lookups", "hits", "alias safe-miss", "ck collisions", "alias evict", "sb evict", "ldis MPKI", "touche MPKI")
	for _, r := range rows {
		ts := r.Cells[3].Touche
		dyn.AddRow(r.Benchmark,
			fmt.Sprint(ts.Lookups), fmt.Sprint(ts.Hits),
			fmt.Sprint(ts.AliasSafeMisses), fmt.Sprint(ts.ChecksumCollisions),
			fmt.Sprint(ts.AliasEvictions), fmt.Sprint(ts.SuperblockEvictions),
			fmt.Sprintf("%.3f", r.Cells[2].Totals.MPKI()),
			fmt.Sprintf("%.3f", r.Cells[3].Totals.MPKI()))
	}
	area := stats.NewTable("Touché tags: WOC tag area (static, from the cost model)",
		"layout", "word entry bits", "shared entries", "tag bytes", "savings")
	ta, err := costmodel.ToucheTagArea(costmodel.Defaults(), o.orgToucheParams())
	if err == nil {
		ldis, _ := costmodel.DistillStorage(costmodel.Defaults())
		area.AddRow("ldis per-word", fmt.Sprint(ldis.WOCTagEntryBits), "0",
			fmt.Sprint(ldis.WOCTagBytes), "-")
		area.AddRow("touche", fmt.Sprint(ta.WordEntryBits), fmt.Sprint(ta.SuperblockEntries),
			fmt.Sprint(ta.TagBytes), fmt.Sprintf("%.1f%%", ta.SavingsPercent))
	}
	return []*stats.Table{dyn, area}
}

// orgsCopyBackTable reports the predictor's admission decisions and
// the resulting miss delta against the plain distill column.
func orgsCopyBackTable(rows []OrgsRow) *stats.Table {
	t := stats.NewTable("Clean copy-back: reuse-gated WOC installs of clean L1 victims",
		"benchmark", "copybacks", "far", "cold", "ldis misses", "copyback misses", "miss delta")
	for _, r := range rows {
		ld, cb := r.Cells[2], r.Cells[4]
		delta := "-"
		if ld.Totals.Misses > 0 {
			delta = fmt.Sprintf("%+.2f%%",
				100*(float64(cb.Totals.Misses)-float64(ld.Totals.Misses))/float64(ld.Totals.Misses))
		}
		t.AddRow(r.Benchmark,
			fmt.Sprint(cb.CopyBacks), fmt.Sprint(cb.CopyBackFar), fmt.Sprint(cb.CopyBackCold),
			fmt.Sprint(ld.Totals.Misses), fmt.Sprint(cb.Totals.Misses), delta)
	}
	return t
}

// orgsWayMemoTable prices the memo column's tag-probe savings. The
// MPKI columns double as the transparency check: they must match.
func orgsWayMemoTable(rows []OrgsRow) *stats.Table {
	t := stats.NewTable("Way memoization: tag-probe energy vs the same cache without a memo",
		"benchmark", "base MPKI", "memo MPKI", "memo hits", "hit rate", "tag energy saved")
	for _, r := range rows {
		wm := r.Cells[1]
		hitRate := "-"
		if wm.MemoRefs > 0 {
			hitRate = fmt.Sprintf("%.1f%%", 100*float64(wm.MemoHits)/float64(wm.MemoRefs))
		}
		saved := "-"
		if e, err := costmodel.WayMemoEnergyFor(orgWays, wm.MemoRefs, wm.MemoHits); err == nil {
			saved = fmt.Sprintf("%.1f%%", e.SavedPercent)
		}
		t.AddRow(r.Benchmark,
			fmt.Sprintf("%.3f", r.Cells[0].Totals.MPKI()),
			fmt.Sprintf("%.3f", wm.Totals.MPKI()),
			fmt.Sprint(wm.MemoHits), hitRate, saved)
	}
	return t
}

// OrgsTables renders the headline MPKI table plus one table per
// variant.
func OrgsTables(rows []OrgsRow, o Options) []*stats.Table {
	tables := []*stats.Table{orgsMPKITable(rows)}
	tables = append(tables, orgsToucheTable(rows, o)...)
	tables = append(tables, orgsCopyBackTable(rows), orgsWayMemoTable(rows))
	return tables
}

func init() {
	registerExp("orgs", "related-work organizations: Touché tags, clean copy-back, way memoization vs base and LDIS", func(o Options) ([]*stats.Table, error) {
		rows, err := Orgs(o)
		if err != nil {
			return nil, err
		}
		return OrgsTables(rows, o), nil
	}, func(o *Options) []Knob { return o.Orgs.knobs() })
}
