package exp

import (
	"math"
	"strings"
	"testing"
)

// fast returns options small enough for unit tests while still
// exercising the full pipeline.
func fast(benchmarks ...string) Options {
	return Options{Accesses: 60_000, WarmupFrac: 0.25, Benchmarks: benchmarks}
}

func TestOptionsValidate(t *testing.T) {
	bad := []Options{
		{Accesses: 0},
		{Accesses: 100, WarmupFrac: 1.0},
		{Accesses: 100, WarmupFrac: -0.1},
		{Accesses: 100, Benchmarks: []string{"nope"}},
		{Accesses: 100, Parallel: -1},
	}
	for i, o := range bad {
		if err := o.Validate(); err == nil {
			t.Errorf("case %d should fail: %+v", i, o)
		}
	}
	good := DefaultOptions()
	if err := good.Validate(); err != nil {
		t.Errorf("default options invalid: %v", err)
	}
	if len(good.benchmarks()) != 16 {
		t.Errorf("default benchmarks = %d", len(good.benchmarks()))
	}
}

func TestBaselineConfigSizes(t *testing.T) {
	for _, tt := range []struct {
		mb   float64
		ways int
	}{{0.75, 6}, {1, 8}, {1.25, 10}, {1.5, 12}, {2, 16}, {4, 32}} {
		cfg := baselineConfig("t", tt.mb)
		if cfg.Ways != tt.ways {
			t.Errorf("%.2fMB -> %d ways, want %d", tt.mb, cfg.Ways, tt.ways)
		}
		if err := cfg.Validate(); err != nil {
			t.Errorf("%.2fMB config invalid: %v", tt.mb, err)
		}
		if cfg.Sets() != 2048 {
			t.Errorf("%.2fMB sets = %d", tt.mb, cfg.Sets())
		}
	}
}

func TestLDISConfigVariants(t *testing.T) {
	b := ldisBase(2, 1)
	if b.MedianThreshold || b.Reverter {
		t.Error("ldisBase should have no MT/RC")
	}
	m := ldisMT(2, 1)
	if !m.MedianThreshold || m.Reverter {
		t.Error("ldisMT wrong")
	}
	r := ldisMTRC(2, 1)
	if !r.MedianThreshold || !r.Reverter || r.SamplerConfig == nil {
		t.Error("ldisMTRC wrong")
	}
	if r.SamplerConfig.LowWatermark >= r.SamplerConfig.HighWatermark {
		t.Error("sampler band inverted")
	}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"fig1", "fig2", "fig6", "fig7", "fig8", "fig9", "fig10",
		"fig11", "fig13", "table1", "table2", "table3", "table4", "table5",
		"table6", "overheads",
		"ablation-woc-ways", "ablation-threshold", "ablation-victim",
		"ablation-prefetch", "ablation-leaders", "ablation-traffic", "profiles",
		"mrc", "partition", "orgs"}
	for _, id := range want {
		if _, ok := About(id); !ok {
			t.Errorf("experiment %q not registered", id)
		}
	}
	if len(IDs()) != len(want) {
		t.Errorf("registry has %d experiments, want %d: %v", len(IDs()), len(want), IDs())
	}
}

func TestRunUnknown(t *testing.T) {
	_, err := Run("nope", DefaultOptions())
	if err == nil {
		t.Fatal("unknown id should error")
	}
	// The error lists every valid id so a typo is self-correcting.
	for _, id := range IDs() {
		if !strings.Contains(err.Error(), id) {
			t.Errorf("unknown-id error %q does not mention valid id %q", err, id)
		}
	}
	if _, err := Run("fig1", Options{}); err == nil {
		t.Error("invalid options should error")
	}
}

func TestFig1(t *testing.T) {
	rows, err := Fig1(fast("mcf"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Benchmark != "mcf" {
		t.Fatalf("rows = %+v", rows)
	}
	// mcf: low spatial locality, mean words well under 3.
	if rows[0].Mean <= 0 || rows[0].Mean > 3 {
		t.Errorf("mcf mean words = %.2f", rows[0].Mean)
	}
	var sum float64
	for _, f := range rows[0].Fractions {
		sum += f
	}
	if sum < 0.99 || sum > 1.01 {
		t.Errorf("fractions sum to %.3f", sum)
	}
	if fig1Table(rows).NumRows() != 1 {
		t.Error("table rows wrong")
	}
}

func TestFig2MassAtTop(t *testing.T) {
	rows, err := Fig2(fast("twolf"))
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	// The paper's motivation: most footprint changes happen near MRU.
	if r.Pos0to3() < 0.5 {
		t.Errorf("positions 0-3 hold only %.2f of footprint changes", r.Pos0to3())
	}
	if r.Pos0to3()+r.Fractions[4]+r.Fractions[5]+r.Pos6to7() < 0.99 {
		t.Error("fractions do not sum to ~1")
	}
	if fig2Table(rows).NumRows() != 2 { // row + avg
		t.Error("table rows wrong")
	}
}

func TestTable2(t *testing.T) {
	rows, err := Table2(fast("health"))
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].MPKI <= 0 || rows[0].CompulsoryPct < 0 || rows[0].CompulsoryPct > 100 {
		t.Errorf("row = %+v", rows[0])
	}
	if rows[0].PaperMPKI != 62 {
		t.Errorf("paper MPKI = %v", rows[0].PaperMPKI)
	}
	if table2Table(rows).NumRows() != 1 {
		t.Error("table rows wrong")
	}
}

func TestFig6AndSummary(t *testing.T) {
	rows, err := Fig6(fast("ammp"))
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r.BaselineMPKI <= 0 {
		t.Fatalf("baseline MPKI = %v", r.BaselineMPKI)
	}
	// ammp is one of the paper's big winners; at least MT-RC should not
	// be catastrophically negative in a short run.
	if r.RC < -10 {
		t.Errorf("ammp RC reduction = %.1f", r.RC)
	}
	s := SummarizeFig6(rows)
	if s.Avg.RC != r.RC {
		t.Errorf("single-benchmark summary avg %.2f != row %.2f", s.Avg.RC, r.RC)
	}
	// avgNomcf over a set without mcf equals avg.
	if s.AvgNomcf != s.Avg {
		t.Error("avgNomcf should equal avg when mcf absent")
	}
	if fig6Table(rows).NumRows() != 3 {
		t.Error("fig6 table rows wrong")
	}
}

func TestFig7FractionsSum(t *testing.T) {
	rows, err := Fig7(fast("mcf"))
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	sum := r.LOCHit + r.WOCHit + r.HoleMiss + r.LineMiss
	if sum < 0.99 || sum > 1.01 {
		t.Errorf("distill fractions sum to %.3f", sum)
	}
	if r.BaseHit < 0 || r.BaseHit > 1 {
		t.Errorf("base hit = %.3f", r.BaseHit)
	}
	if fig7Table(rows).NumRows() != 1 {
		t.Error("table rows wrong")
	}
}

func TestFig8BiggerCachesHelp(t *testing.T) {
	rows, err := Fig8(fast("health"))
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	// Monotone: 2MB reduces at least as much as 1.5MB for health.
	if r.MB20 < r.MB15-5 {
		t.Errorf("2MB (%.1f) worse than 1.5MB (%.1f)", r.MB20, r.MB15)
	}
	if fig8Table(rows).NumRows() != 1 {
		t.Error("table rows wrong")
	}
}

func TestFig9(t *testing.T) {
	rows, err := Fig9(fast("health"))
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r.BaseIPC <= 0 || r.DistIPC <= 0 {
		t.Fatalf("IPCs: %+v", r)
	}
	if g := Fig9GMean(rows); math.Abs(g-r.ImprovementPercent) > 1e-9 {
		t.Errorf("single-row gmean %v != %v", g, r.ImprovementPercent)
	}
	if fig9Table(rows).NumRows() != 2 { // row + gmean
		t.Error("table rows wrong")
	}
}

func TestFig10(t *testing.T) {
	rows, err := Fig10(fast("mcf"))
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	var sa, su float64
	for i := 0; i < 4; i++ {
		sa += r.AllWords[i]
		su += r.UsedWords[i]
	}
	if sa < 0.99 || sa > 1.01 || su < 0.99 || su > 1.01 {
		t.Errorf("category fractions sum: all=%.3f used=%.3f", sa, su)
	}
	// Filtering unused words can only help compressibility: the
	// used-words 'full' fraction must not exceed the all-words one.
	if r.UsedWords[3] > r.AllWords[3]+0.01 {
		t.Errorf("used-words full %.2f > all-words full %.2f", r.UsedWords[3], r.AllWords[3])
	}
	if got := len(fig10Table(rows)); got != 2 {
		t.Errorf("fig10 produces %d tables", got)
	}
}

func TestFig11(t *testing.T) {
	rows, err := Fig11(fast("health"))
	if err != nil {
		t.Fatal(err)
	}
	if fig11Table(rows).NumRows() != 2 { // row + mean
		t.Error("table rows wrong")
	}
}

func TestFig13(t *testing.T) {
	rows, err := Fig13(fast("art"))
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].Benchmark != "art" {
		t.Fatalf("rows = %+v", rows)
	}
	if fig13Table(rows).NumRows() != 2 {
		t.Error("table rows wrong")
	}
}

func TestTable5DefaultsToInsensitive(t *testing.T) {
	o := fast()
	o.Benchmarks = nil
	o.Accesses = 40_000
	rows, err := Table5(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 11 {
		t.Errorf("table5 rows = %d, want 11 (7 table rows + 4 text mentions)", len(rows))
	}
	if table5Table(rows).NumRows() != 11 {
		t.Error("table rows wrong")
	}
}

func TestTable6MeanWords(t *testing.T) {
	rows, err := Table6(fast("mcf"))
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if len(r.AvgWords) != len(Table6Sizes) {
		t.Fatalf("sizes measured: %v", r.AvgWords)
	}
	//ldis:nondet-ok per-entry assertions; no output depends on iteration order
	for label, v := range r.AvgWords {
		if v <= 0 || v > 8 {
			t.Errorf("%s words = %.2f", label, v)
		}
	}
	if table6Table(rows).NumRows() != 1 {
		t.Error("table rows wrong")
	}
}

func TestStaticTables(t *testing.T) {
	if Table1().NumRows() == 0 {
		t.Error("table1 empty")
	}
	t3, err := Table3()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(t3.String(), "29 bits") || !strings.Contains(t3.String(), "12.") {
		t.Errorf("table3 content:\n%s", t3)
	}
	t4 := Table4()
	if t4.NumRows() != 4 {
		t.Errorf("table4 rows = %d", t4.NumRows())
	}
	if !strings.Contains(OverheadsTable().String(), "0.14ns") {
		t.Error("overheads missing latency")
	}
}

func TestRunDispatch(t *testing.T) {
	tables, err := Run("table4", DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 {
		t.Errorf("table4 run produced %d tables", len(tables))
	}
}

// TestRunAllDynamicRegistrations exercises every registered experiment
// end-to-end through the dispatch path on a tiny budget.
func TestRunAllDynamicRegistrations(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	o := Options{Accesses: 40_000, WarmupFrac: 0.25, Benchmarks: []string{"ammp"}}
	for _, id := range IDs() {
		tables, err := Run(id, o)
		if err != nil {
			t.Errorf("%s: %v", id, err)
			continue
		}
		if len(tables) == 0 {
			t.Errorf("%s produced no tables", id)
		}
		for _, tb := range tables {
			if tb.String() == "" || tb.Markdown() == "" || tb.CSV() == "" {
				t.Errorf("%s rendered empty output", id)
			}
		}
	}
}

// TestTable6ResidentFallback: when a cache size swallows the working
// set (no evictions), the words-used average falls back to resident
// lines instead of reporting zero.
func TestTable6ResidentFallback(t *testing.T) {
	o := Options{Accesses: 60_000, WarmupFrac: 0.25, Benchmarks: []string{"crafty"}}
	rows, err := Table6(o)
	if err != nil {
		t.Fatal(err)
	}
	//ldis:nondet-ok per-entry assertions; no output depends on iteration order
	for label, v := range rows[0].AvgWords {
		if v <= 0 {
			t.Errorf("crafty %s words = %v, want positive via resident fallback", label, v)
		}
	}
}

func TestAblationExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("runs several configurations")
	}
	o := fast("health")
	for _, id := range []string{"ablation-woc-ways", "ablation-threshold", "ablation-victim", "ablation-prefetch", "ablation-leaders", "ablation-traffic"} {
		tables, err := Run(id, o)
		if err != nil {
			t.Errorf("%s: %v", id, err)
			continue
		}
		if len(tables) != 1 || tables[0].NumRows() == 0 {
			t.Errorf("%s produced no rows", id)
		}
	}
}

func TestProfilesTable(t *testing.T) {
	pt := ProfilesTable()
	if pt.NumRows() != 27 {
		t.Errorf("profiles table has %d rows, want 27", pt.NumRows())
	}
}
