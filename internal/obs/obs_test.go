package obs_test

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"ldis/internal/obs"
)

func TestCounterGaugeHistogram(t *testing.T) {
	r := obs.NewRegistry()
	c := r.Counter("hits")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("hits") != c {
		t.Fatal("re-registering a counter returned a different handle")
	}
	g := r.Gauge("mr")
	g.Set(0.25)
	if got := g.Value(); got != 0.25 {
		t.Fatalf("gauge = %v, want 0.25", got)
	}
	h := r.Histogram("words", []uint64{1, 4, 8})
	for _, v := range []uint64{0, 1, 2, 5, 8, 9, 100} {
		h.Observe(v)
	}
	want := []uint64{2, 1, 2, 2} // <=1: {0,1}; <=4: {2}; <=8: {5,8}; overflow: {9,100}
	if got := h.Counts(); !reflect.DeepEqual(got, want) {
		t.Fatalf("histogram counts = %v, want %v", got, want)
	}
}

func TestNilSafety(t *testing.T) {
	// Every hot-path and accessor method must be callable on nil: this
	// is the entire "disabled observability" mode.
	var c *obs.Counter
	c.Inc()
	c.Add(3)
	if c.Value() != 0 {
		t.Fatal("nil counter value")
	}
	var g *obs.Gauge
	g.Set(1)
	if g.Value() != 0 {
		t.Fatal("nil gauge value")
	}
	var h *obs.Histogram
	h.Observe(1)
	if h.Counts() != nil || h.Bounds() != nil {
		t.Fatal("nil histogram snapshot")
	}
	var reg *obs.Registry
	if reg.Counter("x") != nil || reg.Gauge("x") != nil || reg.Histogram("x", nil) != nil {
		t.Fatal("nil registry handed out a live handle")
	}
	if reg.Snapshot() != nil {
		t.Fatal("nil registry snapshot")
	}
	reg.Merge(obs.NewRegistry())

	var sp *obs.Spans
	if tok := sp.Begin(obs.StageSimulate); tok != -1 {
		t.Fatalf("nil spans Begin = %d, want -1", tok)
	}
	sp.End(obs.StageSimulate, -1)
	if sp.Report() != nil {
		t.Fatal("nil spans report")
	}

	var run *obs.Run
	if run.Registry() != nil || run.Live() != nil || run.Clock() != nil ||
		run.Progress() != nil || run.Sched() != nil {
		t.Fatal("nil run handed out live components")
	}
	cell := run.StartCell("fig6", "gcc", 0, "base-1MB")
	if cell != nil {
		t.Fatal("nil run started a live cell")
	}
	if cell.Counter("x") != nil || cell.Gauge("x") != nil || cell.Histogram("x", nil) != nil ||
		cell.Spans() != nil || cell.LiveGauge("x") != nil {
		t.Fatal("nil cell handed out live handles")
	}
	cell.MarkReplayed()
	if cell.Replayed() {
		t.Fatal("nil cell claims replayed")
	}
	run.FinishCell(cell, obs.StatusOK)
	if run.CellReports() != nil {
		t.Fatal("nil run cell reports")
	}

	var sm *obs.SchedMetrics
	sm.TaskDone()
	sm.Retry()
	sm.Panic()
	sm.Skipped()
	if sm.Snapshot() != nil {
		t.Fatal("nil sched snapshot")
	}

	var p *obs.Progress
	p.AddTotal(3)
	if p.Snapshot() != (obs.ProgressReport{}) {
		t.Fatal("nil progress snapshot")
	}
}

// TestHotPathZeroAllocs pins the enabled hot paths at zero allocations
// under contention: background goroutines hammer the same handles
// while AllocsPerRun measures the foreground. This is the
// observability half of the repo's zero-alloc contract; the analyzer
// half is //ldis:noalloc on the same methods.
func TestHotPathZeroAllocs(t *testing.T) {
	r := obs.NewRegistry()
	c := r.Counter("contended")
	g := r.Gauge("contended")
	h := r.Histogram("contended", []uint64{1, 8, 64, 512})

	var stop atomic.Bool
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				c.Inc()
				g.Set(0.5)
				h.Observe(7)
			}
		}()
	}
	defer func() {
		stop.Store(true)
		wg.Wait()
	}()

	if n := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(2)
	}); n != 0 {
		t.Errorf("Counter.Inc/Add allocates %.1f/op under contention, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		g.Set(3.14)
	}); n != 0 {
		t.Errorf("Gauge.Set allocates %.1f/op under contention, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		h.Observe(600)
	}); n != 0 {
		t.Errorf("Histogram.Observe allocates %.1f/op under contention, want 0", n)
	}

	sp := obs.NewSpans(&obs.ManualClock{})
	if n := testing.AllocsPerRun(1000, func() {
		tok := sp.Begin(obs.StageWOCLookup)
		sp.End(obs.StageWOCLookup, tok)
	}); n != 0 {
		t.Errorf("Spans.Begin/End allocates %.1f/op, want 0", n)
	}
}

func TestSnapshotSortedAndMergeCommutative(t *testing.T) {
	build := func(order []string) *obs.Registry {
		r := obs.NewRegistry()
		for _, n := range order {
			r.Counter(n).Add(uint64(len(n)))
		}
		r.Gauge("g").Set(2)
		r.Histogram("h", []uint64{10}).Observe(3)
		return r
	}
	a := build([]string{"zeta", "alpha", "mid"})
	b := build([]string{"mid", "zeta", "alpha"})
	if !reflect.DeepEqual(a.Snapshot(), b.Snapshot()) {
		t.Fatal("snapshot depends on registration order")
	}

	// Merging the same parts in either order must give identical
	// snapshots: counters/histograms add, gauges take the max.
	part1 := build([]string{"alpha"})
	part1.Gauge("g").Set(5)
	part2 := build([]string{"zeta", "alpha"})

	m1 := obs.NewRegistry()
	m1.Merge(part1)
	m1.Merge(part2)
	m2 := obs.NewRegistry()
	m2.Merge(part2)
	m2.Merge(part1)
	if !reflect.DeepEqual(m1.Snapshot(), m2.Snapshot()) {
		t.Fatal("merge is not commutative")
	}
	if got := m1.Gauge("g").Value(); got != 5 {
		t.Fatalf("merged gauge = %v, want max 5", got)
	}
	if got := m1.Counter("alpha").Value(); got != 10 {
		t.Fatalf("merged counter = %d, want 10", got)
	}
}

func TestSpansSampling(t *testing.T) {
	clk := &obs.ManualClock{}
	sp := obs.NewSpans(clk)

	// Coarse stages time every call.
	tok := sp.Begin(obs.StageSimulate)
	if tok < 0 {
		t.Fatal("coarse stage call 1 not sampled")
	}
	clk.Advance(100)
	sp.End(obs.StageSimulate, tok)

	// The WOC lookup stage samples 1/256: call 1 is timed, calls
	// 2..256 are not, call 257 is timed again.
	timed := 0
	for i := 0; i < 512; i++ {
		tok := sp.Begin(obs.StageWOCLookup)
		if tok >= 0 {
			timed++
			clk.Advance(7)
		}
		sp.End(obs.StageWOCLookup, tok)
	}
	if timed != 2 {
		t.Fatalf("timed %d of 512 woc lookups, want 2 (1/256 sampling)", timed)
	}

	rep := sp.Report()
	want := []obs.SpanReport{
		{Stage: "simulate", Calls: 1, Timed: 1, Nanos: 100},
		{Stage: "woc_lookup", Calls: 512, Timed: 2, Nanos: 14},
	}
	if !reflect.DeepEqual(rep, want) {
		t.Fatalf("report = %+v, want %+v", rep, want)
	}
}

func TestRunCellLifecycle(t *testing.T) {
	clk := &obs.ManualClock{}
	run := obs.NewRun(clk)
	run.Progress().AddTotal(2)

	c1 := run.StartCell("fig6", "gcc", 1, "ldis-base-2")
	c1.Counter("misses").Add(10)
	clk.Advance(1e9)
	run.FinishCell(c1, obs.StatusOK)

	c2 := run.StartCell("fig6", "art", 0, "base-1MB")
	c2.Counter("misses").Add(5)
	run.FinishCell(c2, obs.StatusReplayed)

	reports := run.CellReports()
	if len(reports) != 2 {
		t.Fatalf("got %d cell reports, want 2", len(reports))
	}
	// Sorted by (experiment, benchmark, col): art before gcc.
	if reports[0].Benchmark != "art" || reports[1].Benchmark != "gcc" {
		t.Fatalf("reports out of order: %s, %s", reports[0].Benchmark, reports[1].Benchmark)
	}
	if reports[0].Status != obs.StatusReplayed || reports[1].Status != obs.StatusOK {
		t.Fatal("statuses not recorded")
	}
	if reports[0].Key != "base-1MB" || reports[1].Key != "ldis-base-2" {
		t.Fatalf("config keys not recorded: %q, %q", reports[0].Key, reports[1].Key)
	}
	if got := run.Registry().Counter("misses").Value(); got != 15 {
		t.Fatalf("run-level merged misses = %d, want 15", got)
	}
	p := run.Progress().Snapshot()
	if p.Done != 2 || p.Total != 2 || p.Replayed != 1 {
		t.Fatalf("progress = %+v", p)
	}

	// A retried cell finishes twice under the same coordinates: the
	// second report replaces the first, and progress counts it once.
	f1 := run.StartCell("fig6", "gcc", 1, "ldis-base-2")
	run.FinishCell(f1, obs.StatusFailed)
	f2 := run.StartCell("fig6", "gcc", 1, "ldis-base-2")
	f2.Counter("misses").Add(1)
	run.FinishCell(f2, obs.StatusOK)
	p = run.Progress().Snapshot()
	if p.Done != 2 || p.Failed != 0 {
		t.Fatalf("progress after retry = %+v, want done 2 failed 0", p)
	}
	reports = run.CellReports()
	if len(reports) != 2 || reports[1].Status != obs.StatusOK {
		t.Fatalf("retried cell not overwritten: %+v", reports)
	}
}

func TestProgressETA(t *testing.T) {
	clk := &obs.ManualClock{}
	run := obs.NewRun(clk)
	run.Progress().AddTotal(4)
	for i := 0; i < 2; i++ {
		c := run.StartCell("fig6", "gcc", i, "base-1MB")
		clk.Advance(1e9) // 1s per cell
		run.FinishCell(c, obs.StatusOK)
	}
	p := run.Progress().Snapshot()
	if p.ElapsedSeconds != 2 {
		t.Fatalf("elapsed = %v, want 2", p.ElapsedSeconds)
	}
	if p.ETASeconds != 2 { // 1s/cell × 2 remaining
		t.Fatalf("eta = %v, want 2", p.ETASeconds)
	}
}

func TestManifestRoundTripAndStrip(t *testing.T) {
	clk := &obs.ManualClock{}
	run := obs.NewRun(clk)
	run.Progress().AddTotal(1)
	c := run.StartCell("fig6", "gcc", 0, "base-1MB")
	c.Counter("misses").Add(3)
	tok := c.Spans().Begin(obs.StageSimulate)
	clk.Advance(42)
	c.Spans().End(obs.StageSimulate, tok)
	run.FinishCell(c, obs.StatusOK)

	m := &obs.Manifest{
		Tool:        "ldisexp-test",
		GoVersion:   "go1.24",
		Generated:   "2026-01-01T00:00:00Z",
		Workers:     8,
		Fingerprint: 0xdeadbeef,
		Experiments: []string{"fig6"},
		Params:      map[string]string{"accesses": "1000"},
	}
	m.Snapshot(run)

	dir := t.TempDir()
	path := filepath.Join(dir, obs.ManifestFile)
	if err := obs.WriteManifest(path, m); err != nil {
		t.Fatal(err)
	}
	got, err := obs.ReadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, m)
	}

	got.StripTimings()
	if got.Generated != "" || got.Workers != 0 {
		t.Fatal("StripTimings kept environment fields")
	}
	if got.Progress.ElapsedSeconds != 0 || got.Progress.ETASeconds != 0 {
		t.Fatal("StripTimings kept progress timing")
	}
	for _, cell := range got.Cells {
		for _, s := range cell.Spans {
			if s.Nanos != 0 {
				t.Fatal("StripTimings kept span nanos")
			}
			if s.Calls == 0 {
				t.Fatal("StripTimings dropped deterministic span calls")
			}
		}
	}
}

func TestReadManifestRejectsBadInput(t *testing.T) {
	dir := t.TempDir()
	cases := map[string]string{
		"not-json":    "{",
		"bad-version": `{"version": 99, "tool": "x", "experiments": ["fig6"]}`,
		"no-tool":     `{"version": 1, "experiments": ["fig6"]}`,
		"no-exps":     `{"version": 1, "tool": "x"}`,
	}
	for name, content := range cases {
		path := filepath.Join(dir, name+".json")
		if err := writeFile(path, content); err != nil {
			t.Fatal(err)
		}
		if _, err := obs.ReadManifest(path); err == nil {
			t.Errorf("%s: ReadManifest accepted invalid manifest", name)
		}
	}
	if _, err := obs.ReadManifest(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("ReadManifest accepted a missing file")
	}
}

func TestHTTPServer(t *testing.T) {
	run := obs.NewRun(&obs.ManualClock{})
	run.Progress().AddTotal(3)
	c := run.StartCell("fig6", "gcc", 0, "base-1MB")
	c.Counter("misses").Add(9)
	run.FinishCell(c, obs.StatusOK)

	srv, err := obs.StartServer("127.0.0.1:0", run)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var prog obs.ProgressReport
	getJSON(t, "http://"+srv.Addr()+"/progress", &prog)
	if prog.Done != 1 || prog.Total != 3 {
		t.Fatalf("progress = %+v", prog)
	}

	var metrics struct {
		Metrics []obs.Metric `json:"metrics"`
	}
	getJSON(t, "http://"+srv.Addr()+"/metrics", &metrics)
	found := false
	for _, m := range metrics.Metrics {
		if m.Name == "misses" && m.Count == 9 {
			found = true
		}
	}
	if !found {
		t.Fatalf("merged misses counter missing from /metrics: %+v", metrics.Metrics)
	}

	var cells []obs.CellReport
	getJSON(t, "http://"+srv.Addr()+"/cells", &cells)
	if len(cells) != 1 || cells[0].Benchmark != "gcc" {
		t.Fatalf("cells = %+v", cells)
	}

	resp, err := http.Get("http://" + srv.Addr() + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof cmdline status %d", resp.StatusCode)
	}
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("%s: %v", url, err)
	}
}

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}
