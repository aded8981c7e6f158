package exp

import (
	"fmt"

	"ldis/internal/mrc"
	"ldis/internal/obs"
	"ldis/internal/stats"
	"ldis/internal/trace"
	"ldis/internal/workload"
)

// The mrc experiment builds whole miss-ratio curves in one trace pass
// per benchmark (internal/mrc): where fig8 probes three discrete
// (size, config) points with full simulations, the curve engine
// answers "what would the miss ratio be at capacity C?" for every C on
// the grid at once, at line grain and at distilled word grain. The
// horizontal gap between those two curves at equal miss ratio is the
// effective capacity distillation reclaims — the paper's central claim
// measured directly, per benchmark.
//
// Each benchmark runs two cells: column 0 (key mrc-exact) is the exact
// Mattson stack, column 1 (mrc-shards) the SHARDS fixed-rate +
// fixed-size sampled variant, so the rendered tables double as a standing validation that
// sampling stays inside its error budget.

// mrcCell is one cell result: both granularities from one engine pass.
// Exported fields gob round-trip through the checkpoint.
type mrcCell struct {
	Line mrc.Curve
	Word mrc.Curve
}

// MRCResult is one benchmark's pair of cells.
type MRCResult struct {
	Benchmark      string
	Exact, Sampled mrcCell
}

// MRCParams are the mrc experiment's knobs. A zero field takes its
// declared default.
type MRCParams struct {
	// SampleRate is the SHARDS spatial sampling rate of the sampled
	// column; the exact column ignores it.
	SampleRate float64
	// MaxSamples bounds the sampled column's concurrently tracked lines
	// (SHARDS fixed-size mode).
	MaxSamples int
	// Resolution is the curves' capacity step in bytes.
	Resolution int
	// MaxBytes is the largest curve capacity in bytes.
	MaxBytes int
}

// knobs declares the mrc knobs. Each check runs the engine's own
// mrc.Config.Validate over the knob and the knobs it depends on, so the
// experiment refuses exactly the geometry the engine would.
func (p *MRCParams) knobs() []Knob {
	return []Knob{
		// 0.1 keeps the SHARDS curve within the 0.02 error budget on
		// every registered benchmark even at short (150k-access) test
		// traces; production-scale MRC studies can lower it.
		{Key: "rate", Name: "mrc_sample_rate", Syntax: "<0..1>", ptr: &p.SampleRate, def: 0.1,
			check: func() error { return mrc.Config{SampleRate: p.SampleRate}.Validate() }},
		{Key: "max-samples", Name: "mrc_max_samples", Syntax: "<n>", ptr: &p.MaxSamples, def: 16 << 10,
			check: func() error { return mrc.Config{SampleRate: p.SampleRate, MaxSamples: p.MaxSamples}.Validate() }},
		{Key: "resolution", Name: "mrc_resolution", Syntax: "<bytes>", ptr: &p.Resolution, def: 64 << 10,
			check: func() error { return mrc.Config{ResolutionBytes: p.Resolution, MaxBytes: p.Resolution}.Validate() }},
		{Key: "max", Name: "mrc_max_bytes", Syntax: "<bytes>", ptr: &p.MaxBytes, def: 4 << 20,
			check: func() error { return mrc.Config{ResolutionBytes: p.Resolution, MaxBytes: p.MaxBytes}.Validate() }},
	}
}

// MRC computes the per-benchmark curves. Column 0 is exact, column 1
// SHARDS-sampled with Options.MRC's SampleRate and MaxSamples.
func MRC(o Options) ([]MRCResult, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	names, grid, err := runGrid(o, []string{"mrc-exact", "mrc-shards"}, func(prof *workload.Profile, key string, co *obs.Cell) (mrcCell, error) {
		cfg := mrc.Config{MaxBytes: o.MRC.MaxBytes, ResolutionBytes: o.MRC.Resolution, Obs: co}
		label := "exact"
		if key == "mrc-shards" {
			cfg.SampleRate = o.MRC.SampleRate
			cfg.MaxSamples = o.MRC.MaxSamples
			cfg.Seed = prof.Seed ^ 0x5ac0ffee
			label = "shards"
		}
		eng, err := mrc.New(cfg)
		if err != nil {
			return mrcCell{}, err
		}
		bs := cellStream(prof, co)
		buf := make([]trace.Record, o.batchSize())
		trace.Drive(bs, o.warmup(), buf, eng.AccessBatch)
		eng.ResetCounts()
		trace.Drive(bs, o.measure(), buf, eng.AccessBatch)
		return mrcCell{
			Line: eng.LineCurve("line " + label),
			Word: eng.WordCurve("word " + label),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	rows := make([]MRCResult, len(names))
	for i, name := range names {
		rows[i] = MRCResult{Benchmark: name, Exact: grid[i][0], Sampled: grid[i][1]}
	}
	return rows, nil
}

// EffectiveCapacityGain returns how much smaller a word-grain
// (distilled) cache can be while matching the line-grain miss ratio at
// the reference capacity: refBytes divided by the smallest curve
// capacity where the word curve's miss ratio is at or below the line
// curve's at refBytes. 1 means no gain; NaN/0 never occur on non-empty
// curves (the word curve at refBytes is never above the line curve by
// more than sampling noise, and the scan falls back to refBytes).
func EffectiveCapacityGain(line, word mrc.Curve, refBytes float64) float64 {
	target := line.MissRatioAt(refBytes)
	for _, p := range word.Points {
		if p.Y <= target+1e-12 {
			return refBytes / p.X
		}
	}
	return 1
}

// mrcSummaryTable renders the headline row per benchmark: exact miss
// ratios at the paper's three capacities, the word-grain ratio at 1MB,
// the effective-capacity gain at 1MB, and the SHARDS validation error.
func mrcSummaryTable(rows []MRCResult) *stats.Table {
	t := stats.NewTable(
		"MRC summary: exact line/word miss ratios, distilled capacity gain at 1MB, SHARDS max abs error",
		"benchmark", "line@0.5MB", "line@1MB", "line@2MB", "word@1MB",
		"gain@1MB", "err(line)", "err(word)")
	for _, r := range rows {
		line, word := r.Exact.Line, r.Exact.Word
		t.AddRow(r.Benchmark,
			fmt.Sprintf("%.4f", line.MissRatioAt(0.5*(1<<20))),
			fmt.Sprintf("%.4f", line.MissRatioAt(1<<20)),
			fmt.Sprintf("%.4f", line.MissRatioAt(2<<20)),
			fmt.Sprintf("%.4f", word.MissRatioAt(1<<20)),
			fmt.Sprintf("%.2fx", EffectiveCapacityGain(line, word, 1<<20)),
			fmt.Sprintf("%.4f", stats.MaxAbsDiff(line.Series(), r.Sampled.Line.Series())),
			fmt.Sprintf("%.4f", stats.MaxAbsDiff(word.Series(), r.Sampled.Word.Series())))
	}
	return t
}

// MRCTables renders the summary plus one four-series curve table per
// benchmark.
func MRCTables(rows []MRCResult) []*stats.Table {
	tables := []*stats.Table{mrcSummaryTable(rows)}
	for _, r := range rows {
		tables = append(tables, stats.CurveTable(
			"MRC: "+r.Benchmark, "capacity", stats.FormatBytes,
			r.Exact.Line.Series(), r.Exact.Word.Series(),
			r.Sampled.Line.Series(), r.Sampled.Word.Series()))
	}
	return tables
}

func init() {
	registerExp("mrc", "miss-ratio curves: exact Mattson stack + SHARDS sampling, line vs distilled word grain", rendered(MRC, MRCTables), func(o *Options) []Knob { return o.MRC.knobs() })
}
