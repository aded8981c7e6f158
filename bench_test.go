// Benchmarks regenerating the paper's tables and figures. Each bench
// runs the corresponding experiment (on a reduced access budget so the
// suite stays minutes-scale) and reports the experiment's headline
// number as a custom metric alongside simulator throughput. For
// full-scale regeneration use: go run ./cmd/ldisexp -accesses 3000000 all
package ldis

import (
	"fmt"
	"testing"

	"ldis/internal/distill"
	"ldis/internal/dram"
	"ldis/internal/exp"
	"ldis/internal/hierarchy"
	"ldis/internal/mem"
	"ldis/internal/stats"
	"ldis/internal/trace"
	"ldis/internal/workload"
)

// benchOpts trades precision for bench runtime.
func benchOpts(benchmarks ...string) exp.Options {
	return exp.Options{Accesses: 250_000, WarmupFrac: 0.3, Benchmarks: benchmarks}
}

// reportAccesses converts experiment work into a throughput metric.
func reportAccesses(b *testing.B, accessesPerIter int) {
	b.ReportMetric(float64(accessesPerIter*b.N)/b.Elapsed().Seconds(), "accesses/s")
}

func BenchmarkFig1WordsUsed(b *testing.B) {
	o := benchOpts("art", "mcf", "galgel")
	var mean float64
	for i := 0; i < b.N; i++ {
		rows, err := exp.Fig1(o)
		if err != nil {
			b.Fatal(err)
		}
		mean = rows[1].Mean // mcf
	}
	b.ReportMetric(mean, "mcf-words-used")
	reportAccesses(b, o.Accesses*3)
}

func BenchmarkFig2RecencyStabilization(b *testing.B) {
	o := benchOpts("twolf", "ammp")
	var top float64
	for i := 0; i < b.N; i++ {
		rows, err := exp.Fig2(o)
		if err != nil {
			b.Fatal(err)
		}
		top = rows[0].Pos0to3()
	}
	b.ReportMetric(100*top, "twolf-pct-changes-pos0-3")
	reportAccesses(b, o.Accesses*2)
}

func BenchmarkTable2Baseline(b *testing.B) {
	o := benchOpts("mcf", "health")
	var mpki float64
	for i := 0; i < b.N; i++ {
		rows, err := exp.Table2(o)
		if err != nil {
			b.Fatal(err)
		}
		mpki = rows[0].MPKI
	}
	b.ReportMetric(mpki, "mcf-MPKI")
	reportAccesses(b, o.Accesses*2)
}

func BenchmarkFig6LDISConfigs(b *testing.B) {
	o := benchOpts("ammp", "twolf", "swim")
	var rc float64
	for i := 0; i < b.N; i++ {
		rows, err := exp.Fig6(o)
		if err != nil {
			b.Fatal(err)
		}
		rc = exp.SummarizeFig6(rows).Avg.RC
	}
	b.ReportMetric(rc, "avg-MPKI-reduction-pct")
	reportAccesses(b, o.Accesses*3*4) // 4 configs per benchmark
}

func BenchmarkFig7HitMissBreakdown(b *testing.B) {
	o := benchOpts("mcf")
	var woc float64
	for i := 0; i < b.N; i++ {
		rows, err := exp.Fig7(o)
		if err != nil {
			b.Fatal(err)
		}
		woc = rows[0].WOCHit
	}
	b.ReportMetric(100*woc, "mcf-WOC-hit-pct")
	reportAccesses(b, o.Accesses*2)
}

func BenchmarkFig8Capacity(b *testing.B) {
	o := benchOpts("health")
	var distill float64
	for i := 0; i < b.N; i++ {
		rows, err := exp.Fig8(o)
		if err != nil {
			b.Fatal(err)
		}
		distill = rows[0].Distill
	}
	b.ReportMetric(distill, "health-distill-reduction-pct")
	reportAccesses(b, o.Accesses*4)
}

func BenchmarkFig9IPC(b *testing.B) {
	o := benchOpts("health", "art")
	var gmean float64
	for i := 0; i < b.N; i++ {
		rows, err := exp.Fig9(o)
		if err != nil {
			b.Fatal(err)
		}
		gmean = exp.Fig9GMean(rows)
	}
	b.ReportMetric(gmean, "gmean-IPC-improvement-pct")
	reportAccesses(b, o.Accesses*2*2)
}

func BenchmarkTable3Storage(b *testing.B) {
	var pct string
	for i := 0; i < b.N; i++ {
		t, err := exp.Table3()
		if err != nil {
			b.Fatal(err)
		}
		pct = t.Title()
	}
	_ = pct
}

func BenchmarkFig10Compressibility(b *testing.B) {
	o := benchOpts("mcf")
	var frac float64
	for i := 0; i < b.N; i++ {
		rows, err := exp.Fig10(o)
		if err != nil {
			b.Fatal(err)
		}
		frac = rows[0].UsedWords[0] + rows[0].UsedWords[1] // <= 1/4 size
	}
	b.ReportMetric(100*frac, "mcf-used-words-quarter-pct")
	reportAccesses(b, o.Accesses)
}

func BenchmarkFig11FAC(b *testing.B) {
	o := benchOpts("health")
	var fac float64
	for i := 0; i < b.N; i++ {
		rows, err := exp.Fig11(o)
		if err != nil {
			b.Fatal(err)
		}
		fac = rows[0].FAC4x
	}
	b.ReportMetric(fac, "health-FAC-reduction-pct")
	reportAccesses(b, o.Accesses*5)
}

func BenchmarkFig13SFP(b *testing.B) {
	o := benchOpts("art")
	var ldisRed, sfpRed float64
	for i := 0; i < b.N; i++ {
		rows, err := exp.Fig13(o)
		if err != nil {
			b.Fatal(err)
		}
		ldisRed, sfpRed = rows[0].LDIS, rows[0].SFP64kB
	}
	b.ReportMetric(ldisRed, "art-LDIS-reduction-pct")
	b.ReportMetric(sfpRed, "art-SFP64kB-reduction-pct")
	reportAccesses(b, o.Accesses*4)
}

func BenchmarkTable5Insensitive(b *testing.B) {
	o := benchOpts("lucas")
	var ldis float64
	for i := 0; i < b.N; i++ {
		rows, err := exp.Table5(o)
		if err != nil {
			b.Fatal(err)
		}
		ldis = rows[0].LDIS1MB
	}
	b.ReportMetric(ldis, "lucas-LDIS-MPKI")
	reportAccesses(b, o.Accesses*4)
}

func BenchmarkTable6WordsVsSize(b *testing.B) {
	o := benchOpts("art")
	var grow float64
	for i := 0; i < b.N; i++ {
		rows, err := exp.Table6(o)
		if err != nil {
			b.Fatal(err)
		}
		grow = rows[0].AvgWords["2.00MB"] - rows[0].AvgWords["0.75MB"]
	}
	b.ReportMetric(grow, "art-words-growth-0.75-to-2MB")
	reportAccesses(b, o.Accesses*5)
}

// BenchmarkSchedulerFanOut measures the (benchmark × configuration)
// grid scheduler at several worker counts. Fig6 on three benchmarks
// exposes 12 independent simulation cells; on a multicore box the
// accesses/s metric should scale with workers until cells run out.
func BenchmarkSchedulerFanOut(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) {
			o := benchOpts("ammp", "twolf", "swim")
			o.Parallel = workers
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := exp.Fig6(o); err != nil {
					b.Fatal(err)
				}
			}
			// 4 Fig 6 cells (baseline + 3 configs) per benchmark.
			reportAccesses(b, 4*len(o.Benchmarks)*o.Accesses)
		})
	}
}

// ---------------------------------------------------------------------
// Raw simulator throughput benchmarks
// ---------------------------------------------------------------------

func benchmarkSimThroughput(b *testing.B, mk func() *Sim, benchmark string) {
	prof, err := workload.ByName(benchmark)
	if err != nil {
		b.Fatal(err)
	}
	accs := prof.Trace(200_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim := mk()
		for _, a := range accs {
			sim.System().Do(a)
		}
	}
	b.ReportMetric(float64(len(accs)*b.N)/b.Elapsed().Seconds(), "accesses/s")
}

func mustNewSim(key, benchmark string) *Sim {
	s, err := New(key, benchmark, nil)
	if err != nil {
		panic(err)
	}
	return s
}

// keyDistillConfig returns the distill configuration of a key's
// machine for the benchmark, for the ablations of knobs no key names.
func keyDistillConfig(key, benchmark string) distill.Config {
	return mustNewSim(key, benchmark).System().L2.(*hierarchy.DistillL2).C.Config()
}

// benchmarkKeys runs each key's machine over 250k accesses of the
// benchmark as a sub-benchmark named by its label, reporting MPKI.
func benchmarkKeys(b *testing.B, benchmark string, labels, keys []string) {
	prof, err := workload.ByName(benchmark)
	if err != nil {
		b.Fatal(err)
	}
	for i, key := range keys {
		b.Run(labels[i], func(b *testing.B) {
			var mpki float64
			for j := 0; j < b.N; j++ {
				mpki = mustNewSim(key, benchmark).RunStream(benchmark, prof.Stream(), 250_000).MPKI
			}
			b.ReportMetric(mpki, "MPKI")
		})
	}
}

func BenchmarkBaselineCache(b *testing.B) {
	benchmarkSimThroughput(b, func() *Sim { return mustNewSim("base-1MB", "mcf") }, "mcf")
}

func BenchmarkDistillCache(b *testing.B) {
	benchmarkSimThroughput(b, func() *Sim { return mustNewSim("ldis-mt-rc-2", "mcf") }, "mcf")
}

func BenchmarkSFPCache(b *testing.B) {
	benchmarkSimThroughput(b, func() *Sim { return mustNewSim("sfp-16k", "mcf") }, "mcf")
}

// BenchmarkWorkloadGeneration measures the generator alone: the 16
// main benchmarks' streams, built once outside the timed loop, cycled
// one trace.DefaultBatchSize block at a time through their native
// NextBatch, as the batched simulation pipeline drives them.
func BenchmarkWorkloadGeneration(b *testing.B) {
	var streams []trace.BatchStream
	for _, p := range workload.Main() {
		streams = append(streams, trace.Batched(p.Stream()))
	}
	buf := make([]trace.Record, trace.DefaultBatchSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if streams[i%len(streams)].NextBatch(buf) != len(buf) {
			b.Fatal("stream dried up")
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(buf)), "ns/record")
}

// ---------------------------------------------------------------------
// Ablations (design choices DESIGN.md calls out)
// ---------------------------------------------------------------------

// BenchmarkAblationWOCWays sweeps the LOC/WOC split (the paper fixes 2
// of 8 ways; Figure 11 also uses 3).
func BenchmarkAblationWOCWays(b *testing.B) {
	benchmarkKeys(b, "health", []string{"woc1", "woc2", "woc3", "woc4"},
		[]string{"ldis-mt-rc-1", "ldis-mt-rc-2", "ldis-mt-rc-3", "ldis-mt-rc-4"})
}

// BenchmarkAblationMedianThreshold compares MT filtering on/off.
func BenchmarkAblationMedianThreshold(b *testing.B) {
	benchmarkKeys(b, "mcf", []string{"mt-off", "mt-on"}, []string{"ldis-base-2", "ldis-mt-2"})
}

// BenchmarkAblationLeaderSets sweeps the reverter's sampling density.
func BenchmarkAblationLeaderSets(b *testing.B) {
	benchmarkKeys(b, "swim", []string{"leaders8", "leaders32", "leaders128"},
		[]string{"ldis-mt-rc-2-l8", "ldis-mt-rc-2", "ldis-mt-rc-2-l128"})
}

// BenchmarkAblationTraceCodec measures trace serialization speed.
func BenchmarkAblationTraceCodec(b *testing.B) {
	prof, err := workload.ByName("art")
	if err != nil {
		b.Fatal(err)
	}
	accs := prof.Trace(100_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf discardCounter
		if err := trace.Write(&buf, accs); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(buf))
	}
}

// discardCounter is an io.Writer that counts bytes.
type discardCounter int64

func (d *discardCounter) Write(p []byte) (int, error) {
	*d += discardCounter(len(p))
	return len(p), nil
}

// BenchmarkAblationWOCReplacement checks the paper's footnote 4: random
// WOC replacement performs similarly to a variable-size LRU.
func BenchmarkAblationWOCReplacement(b *testing.B) {
	benchmarkDistillKnob(b, "health", []distillKnob{
		{"random", func(*distill.Config) {}},
		{"lru", func(c *distill.Config) { c.WOCLRU = true }},
	})
}

// BenchmarkAblationStaticThreshold sweeps the fixed distillation
// threshold K against the adaptive median (Section 5.4's discussion of
// low vs high K).
func BenchmarkAblationStaticThreshold(b *testing.B) {
	benchmarkKeys(b, "mcf", []string{"k1", "k2", "k4", "k8", "median"},
		[]string{"ldis-k1", "ldis-k2", "ldis-k4", "ldis-k8", "ldis-mt-2"})
}

// BenchmarkAblationFootprintNoise models wrong-path pollution (paper
// footnote 8): noisy footprints dilute distillation.
func BenchmarkAblationFootprintNoise(b *testing.B) {
	benchmarkDistillKnob(b, "health", []distillKnob{
		{"clean", func(*distill.Config) {}},
		{"noise10", func(c *distill.Config) { c.FootprintNoise = 0.1 }},
		{"noise50", func(c *distill.Config) { c.FootprintNoise = 0.5 }},
	})
}

// distillKnob is one named setting of a distill knob no key names.
type distillKnob struct {
	name string
	set  func(*distill.Config)
}

// benchmarkDistillKnob runs ldis-mt-rc-2's machine for the benchmark
// with each knob setting applied, over 250k accesses, reporting MPKI.
func benchmarkDistillKnob(b *testing.B, benchmark string, knobs []distillKnob) {
	prof, err := workload.ByName(benchmark)
	if err != nil {
		b.Fatal(err)
	}
	for _, k := range knobs {
		b.Run(k.name, func(b *testing.B) {
			var mpki float64
			for i := 0; i < b.N; i++ {
				cfg := keyDistillConfig("ldis-mt-rc-2", benchmark)
				k.set(&cfg)
				sys, _ := hierarchy.Distill(cfg)
				sys.Run(prof.Stream(), 250_000)
				mpki = stats.MPKI(sys.L2.Misses(), sys.Instructions)
			}
			b.ReportMetric(mpki, "MPKI")
		})
	}
}

// BenchmarkAblationVictimCache contrasts true distillation against a
// plain victim cache with the same data budget: forcing every distilled
// line to occupy a full 8-slot group turns the WOC into a 2-way
// full-line victim buffer, isolating how much of LDIS's win comes from
// *filtering* rather than from the extra associativity.
func BenchmarkAblationVictimCache(b *testing.B) {
	benchmarkKeys(b, "health", []string{"distill", "victim"}, []string{"ldis-base-2", "victim-2"})
}

// BenchmarkAblationPrefetchCompose measures next-line prefetching over
// the baseline and the distill cache (the paper's Section 9 notes the
// techniques are orthogonal).
func BenchmarkAblationPrefetchCompose(b *testing.B) {
	benchmarkKeys(b, "wupwise", []string{"baseline", "baseline-pf2", "distill-pf2"},
		[]string{"base-1MB", "base-1MB+pf2", "ldis-mt-rc-2+pf2"})
}

// BenchmarkAblationDRAMRowBuffer contrasts the paper's closed-page
// memory with an open-page row-buffer variant on a streaming access
// pattern (sequential lines revisit rows; row hits cost 150 cycles
// instead of 400).
func BenchmarkAblationDRAMRowBuffer(b *testing.B) {
	for _, tt := range []struct {
		name string
		cfg  dram.Config
	}{
		{"closed-page", dram.DefaultConfig()},
		{"open-page", dram.OpenPageConfig(150)},
	} {
		b.Run(tt.name, func(b *testing.B) {
			var avg float64
			for i := 0; i < b.N; i++ {
				m := dram.New(tt.cfg)
				now, total := 0.0, 0.0
				const n = 100_000
				for j := 0; j < n; j++ {
					done := m.Access(now, mem.LineAddr(j))
					total += done - now
					now += 20
				}
				avg = total / n
			}
			b.ReportMetric(avg, "avg-latency-cycles")
		})
	}
}
