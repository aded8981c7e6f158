package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit. The lists below
// are the benchmark's contract with BENCHMARK.json (the package test
// checks they agree).
type metricDef struct{ name, unit string }

// endToEnd are reported by every untraced run.
var endToEnd = []metricDef{
	{"accesses_per_cpu_s", "Macc/cpu-s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"alloc_b_per_access", "B/acc"},
}

// perLayer are reported by every traced run; a layer a workload does
// not run reports 0.
var perLayer = []metricDef{
	{"workload.ns_per_record", "ns"},
	{"workload.share", "frac"},
	{"trace.decode_ns_per_record", "ns"},
	{"trace.producer_busy_frac", "frac"},
	{"trace.encode_s", "s"},
	{"hierarchy.self_ns_per_access", "ns"},
	{"hierarchy.shard_imbalance", "ratio"},
	{"hierarchy.cores_busy", "cores"},
	{"l1.hit_frac", "frac"},
	{"l2.base.ns_per_call", "ns"},
	{"l2.ldis.ns_per_call", "ns"},
	{"l2.fac.ns_per_call", "ns"},
	{"l2.ldis_base.ns_per_call", "ns"},
	{"l2.base.calls", "count/round"},
	{"l2.ldis.calls", "count/round"},
	{"l2.fac.calls", "count/round"},
	{"l2.ldis_base.calls", "count/round"},
	{"l2.ldis.wb_ns_per_call", "ns"},
	{"distill.loc_hit_frac", "frac"},
	{"distill.woc_hit_frac", "frac"},
	{"distill.hole_miss_frac", "frac"},
	{"cpu.self_ns_per_access", "ns"},
	{"cpu.ipc_gain_pct", "%"},
	{"partition.observe_ns_per_call", "ns"},
	{"partition.epoch_ns_per_call", "ns"},
	{"partition.apply_ns_per_call", "ns"},
	{"l2.tenant.ns_per_call", "ns"},
	{"partition.rebalances", "count/round"},
	{"partition.agreement_pct", "%"},
	{"gc.pause_s", "s/round"},
	{"gc.cycles", "count/round"},
	{"trace_overhead_pct", "%"},
	{"unattributed_frac", "frac"},
}

// config is one benchmark run.
type config struct {
	workload  string
	seed      uint64
	seconds   float64
	traced    bool
	accesses  int // per cell in a timed round
	setupReps int
}

// warmupDiv sizes set-up's warm-up pass: each cell runs at its timed
// size divided by this.
const warmupDiv = 10

type metric struct {
	name, unit string
	value      float64
}

// report is a finished run.
type report struct {
	correct           bool
	attempted, failed int
	metrics           []metric
	lines             []string // human-readable summary, printed before the JSON line
	spans             *spanDump
}

// spanDump is the span file of the last traced round.
type spanDump struct {
	Workload   string      `json:"workload"`
	Seed       uint64      `json:"seed"`
	Spans      []span      `json:"spans"`
	Aggregates []aggregate `json:"aggregates"`
}

// bookkeeping tracks every cell invocation of a run: failures, and each
// cell's reference digest (its reference path's, or else its first
// successful timed run's).
type bookkeeping struct {
	attempted, failed int
	ref               []uint64
	haveRef           []bool
	errs              []string
}

func (b *bookkeeping) fail(name string, err error) {
	b.failed++
	if len(b.errs) < 8 {
		b.errs = append(b.errs, name+": "+err.Error())
	}
}

// protect runs one cell invocation, turning a panic into an error so a
// failing cell is counted and the run goes on.
func protect(f func() (cellResult, error)) (res cellResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return f()
}

// referencePass runs the reference path of every cell that has one at
// n accesses and keeps its digest as the cell's reference.
func referencePass(p *plan, n int, bk *bookkeeping) {
	for i, c := range p.cells {
		if c.ref == nil {
			continue
		}
		bk.attempted++
		res, err := protect(func() (cellResult, error) { return c.ref(n) })
		if err != nil {
			bk.fail(p.name+"/"+c.name+" reference", err)
			continue
		}
		bk.ref[i], bk.haveRef[i] = res.digest, true
	}
}

// roundResult is one pass over every cell.
type roundResult struct {
	dur      time.Duration // wall time
	cpu      time.Duration // process CPU time, every thread
	accesses int
	results  []cellResult // zero for failed cells
	tr       *tracer
}

// runRound runs every cell once at n accesses. With check set, each
// cell's digest must equal its reference.
func runRound(p *plan, n int, tr *tracer, bk *bookkeeping, check bool) roundResult {
	rr := roundResult{results: make([]cellResult, len(p.cells)), tr: tr}
	cpu0 := cpuTime()
	start := time.Now()
	root := tr.begin("round", -1)
	for i, c := range p.cells {
		if tr != nil {
			tr.cell = i
		}
		cx := &cellCtx{tr: tr, span: tr.begin("cell", root)}
		res, err := protect(func() (cellResult, error) { return c.run(cx, n) })
		tr.end(cx.span)
		if tr != nil {
			tr.cell = -1
		}
		bk.attempted++
		if err == nil && check {
			switch {
			case !bk.haveRef[i]:
				bk.ref[i], bk.haveRef[i] = res.digest, true
			case bk.ref[i] != res.digest:
				err = fmt.Errorf("digest %016x differs from reference %016x", res.digest, bk.ref[i])
			}
		}
		if err != nil {
			bk.fail(p.name+"/"+c.name, err)
			continue
		}
		rr.results[i] = res
		rr.accesses += res.accesses
	}
	tr.end(root)
	rr.dur = time.Since(start)
	rr.cpu = cpuTime() - cpu0
	return rr
}

// run executes one benchmark run.
func run(cfg config) (*report, error) {
	bk := &bookkeeping{}

	// Set-up, several times: build the inputs, then a short untimed
	// warm-up pass over every cell.
	var p *plan
	var setups, encodes []float64
	for i := 0; i < cfg.setupReps; i++ {
		p = nil // let the previous inputs go before building new ones
		runtime.GC()
		t0 := cpuTime()
		np, err := newPlan(cfg.workload, cfg.seed, cfg.accesses)
		if err != nil {
			return nil, err
		}
		runRound(np, np.size/warmupDiv, nil, bk, false)
		setups = append(setups, (cpuTime() - t0).Seconds())
		encodes = append(encodes, np.encodeS)
		p = np
	}
	// Reference digests, untimed: they check the timed phase and feed
	// nothing into it.
	bk.ref, bk.haveRef = make([]uint64, len(p.cells)), make([]bool, len(p.cells))
	referencePass(p, p.size, bk)

	// Timed phase: rounds until the time is up. A traced run alternates
	// untraced and traced rounds, so both see the same conditions.
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	var plain, traced []roundResult
	var peaks []float64
	for r := 0; ; r++ {
		var tr *tracer
		if cfg.traced && r%2 == 1 {
			tr = newTracer()
		}
		if err := resetPeakRSS(); err != nil {
			return nil, err
		}
		rr := runRound(p, p.size, tr, bk, true)
		if tr == nil {
			peak, err := peakRSSMB()
			if err != nil {
				return nil, err
			}
			peaks = append(peaks, peak)
			plain = append(plain, rr)
		} else {
			traced = append(traced, rr)
		}
		if time.Since(start).Seconds() >= cfg.seconds && len(plain) > 0 && (!cfg.traced || len(traced) > 0) {
			break
		}
	}
	runtime.ReadMemStats(&ms1)
	rounds := len(plain) + len(traced)

	rep := &report{correct: bk.failed == 0, attempted: bk.attempted, failed: bk.failed}
	rep.lines = append(rep.lines,
		fmt.Sprintf("workload %s seed %d: %d cells x %d accesses, %d rounds (%d traced)",
			p.name, cfg.seed, len(p.cells), p.size, rounds, len(traced)),
		fmt.Sprintf("digest %016x", workloadDigest(bk)),
		fmt.Sprintf("failed_frac %g (%d of %d cells)", float64(bk.failed)/float64(bk.attempted), bk.failed, bk.attempted))
	for _, e := range bk.errs {
		rep.lines = append(rep.lines, "failure: "+e)
	}
	rep.lines = append(rep.lines, fmt.Sprintf("median round: %.4f Macc per CPU second, %.4f Macc per wall second",
		medianRate(plain)/1e6, medianWallRate(plain)/1e6))
	if p.name == wlSweep && len(plain) > 0 {
		rep.lines = append(rep.lines, fmt.Sprintf("mpki_err_pct %.4f (base-1MB vs Table 2)", mpkiErrPct(p, plain[0].results)))
	}
	plainRate := medianRate(plain)
	if !cfg.traced {
		var acc int
		for _, rr := range plain {
			acc += rr.accesses
		}
		rep.metrics = []metric{
			{"accesses_per_cpu_s", "Macc/cpu-s", plainRate / 1e6},
			{"setup_s", "s", median(setups)},
			{"peak_rss_mb", "MB", median(peaks)},
			{"alloc_b_per_access", "B/acc", float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(acc)},
		}
		return rep, nil
	}

	tt := totalsOf(traced)
	lm := layerMetrics(p, traced, tt)
	lm["trace.encode_s"] = median(encodes)
	lm["gc.pause_s"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e9 / float64(rounds)
	lm["gc.cycles"] = float64(ms1.NumGC-ms0.NumGC) / float64(rounds)
	lm["hierarchy.cores_busy"] = coresBusy(plain)
	if tracedRate := medianRate(traced); tracedRate > 0 {
		lm["trace_overhead_pct"] = 100 * (plainRate/tracedRate - 1)
	}
	for _, d := range perLayer {
		rep.metrics = append(rep.metrics, metric{d.name, d.unit, lm[d.name]})
	}
	rep.lines = append(rep.lines, layerShares(tt)...)
	last := traced[len(traced)-1].tr
	rep.spans = &spanDump{Workload: p.name, Seed: cfg.seed, Spans: last.spans, Aggregates: last.aggs}
	return rep, nil
}

// workloadDigest folds the cells' reference digests in cell order.
func workloadDigest(bk *bookkeeping) uint64 {
	h := newDigest()
	for i, d := range bk.ref {
		if bk.haveRef[i] {
			h.u64(d)
		}
	}
	return h.sum
}

// mpkiErrPct is the sweep's mean |base-1MB MPKI − Table 2 MPKI| /
// Table 2 MPKI, in percent: the model's error against the paper.
func mpkiErrPct(p *plan, res []cellResult) float64 {
	sum, n := 0.0, 0
	for i, c := range p.cells {
		if c.org != orgBase {
			continue
		}
		if c.prof.PaperMPKI == 0 {
			continue
		}
		sum += math.Abs(res[i].mpki-c.prof.PaperMPKI) / c.prof.PaperMPKI
		n++
	}
	if n == 0 {
		return 0
	}
	return 100 * sum / float64(n)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// medianRate is the median over rounds of simulated accesses per
// second of process CPU time. CPU time leaves out the time the machine
// ran something else: on a shared host, wall-clock rates of 20-second
// windows spread three times wider than CPU-time rates.
func medianRate(rs []roundResult) float64 {
	rates := make([]float64, 0, len(rs))
	for _, rr := range rs {
		rates = append(rates, float64(rr.accesses)/rr.cpu.Seconds())
	}
	return median(rates)
}

// coresBusy is the median over rounds of CPU time over wall time: how
// many cores a round kept busy. On replay it shows the overlap of the
// RunSharded pipeline, which a per-CPU-second rate cannot see.
func coresBusy(rs []roundResult) float64 {
	xs := make([]float64, 0, len(rs))
	for _, rr := range rs {
		xs = append(xs, rr.cpu.Seconds()/rr.dur.Seconds())
	}
	return median(xs)
}

// medianWallRate is medianRate over wall-clock time.
func medianWallRate(rs []roundResult) float64 {
	rates := make([]float64, 0, len(rs))
	for _, rr := range rs {
		rates = append(rates, float64(rr.accesses)/rr.dur.Seconds())
	}
	return median(rates)
}

// cpuTime returns the user plus system CPU time of every thread of the
// process.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	// RUSAGE_SELF with a valid pointer cannot fail.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS lowers the process's peak resident set (VmHWM) to its
// current resident set, so each round's peak is read on its own: a
// run's single highest peak depends on when the garbage collector
// happened to run, the median round's does not.
func resetPeakRSS() error {
	f, err := os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0)
	if err != nil {
		return fmt.Errorf("resetting peak RSS: %w", err)
	}
	if _, err := f.WriteString("5"); err != nil {
		f.Close()
		return fmt.Errorf("resetting peak RSS: %w", err)
	}
	return f.Close()
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
