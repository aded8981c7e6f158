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
// Each benchmark runs two scheduler cells: column 0 is the exact
// Mattson stack, column 1 the SHARDS fixed-rate + fixed-size sampled
// variant, so the rendered tables double as a standing validation that
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

// MRC computes the per-benchmark curves. Column 0 is exact, column 1
// SHARDS-sampled with Options.MRCSampleRate / MRCMaxSamples.
func MRC(o Options) ([]MRCResult, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	names, grid, err := runGrid(o, 2, func(prof *workload.Profile, col int, co *obs.Cell) (mrcCell, error) {
		cfg := mrc.Config{
			MaxBytes:        o.mrcMaxBytes(),
			ResolutionBytes: o.mrcResolution(),
			Obs:             co,
		}
		label := "exact"
		if col == 1 {
			cfg.SampleRate = o.mrcSampleRate()
			cfg.MaxSamples = o.mrcMaxSamples()
			cfg.Seed = prof.Seed ^ 0x5ac0ffee
			label = "shards"
		}
		eng, err := mrc.New(cfg, o.Accesses)
		if err != nil {
			return mrcCell{}, err
		}
		bs := cellStream(prof, co)
		buf := make([]trace.Record, o.batchSize())
		drive := func(n int) {
			done := 0
			for done < n {
				want := len(buf)
				if want > n-done {
					want = n - done
				}
				got := bs.NextBatch(buf[:want])
				eng.AccessBatch(buf[:got])
				done += got
				if got < want {
					return
				}
			}
		}
		drive(o.warmup())
		eng.ResetCounts()
		drive(o.measure())
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
	registerExp("mrc", "miss-ratio curves: exact Mattson stack + SHARDS sampling, line vs distilled word grain", func(o Options) ([]*stats.Table, error) {
		rows, err := MRC(o)
		if err != nil {
			return nil, err
		}
		return MRCTables(rows), nil
	})
}
