package obs

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Run is the per-process observability root: a run-level registry,
// the progress tracker, the cell-report collector, and the scheduler
// metrics. A nil *Run disables everything downstream — StartCell
// returns a nil *Cell, whose accessors return nil handles, whose hot
// paths no-op.
type Run struct {
	reg       *Registry
	live      *Registry
	clock     Clock
	collector *Collector
	progress  *Progress
	sched     SchedMetrics
}

// NewRun builds an enabled observability run. A nil clock selects the
// system monotonic clock.
func NewRun(clock Clock) *Run {
	if clock == nil {
		clock = SystemClock()
	}
	col := &Collector{cells: make(map[cellKey]CellReport)}
	return &Run{
		reg:       NewRegistry(),
		live:      NewRegistry(),
		clock:     clock,
		collector: col,
		progress:  newProgress(clock, col),
	}
}

// Registry returns the run-level registry (nil when disabled).
func (r *Run) Registry() *Registry {
	if r == nil {
		return nil
	}
	return r.reg
}

// Live returns the run's live registry: gauges written directly by
// mid-flight cells for the HTTP endpoint. Direct writes race across
// workers (latest wins), so the live registry is deliberately excluded
// from the manifest — it exists for watching, not for records.
func (r *Run) Live() *Registry {
	if r == nil {
		return nil
	}
	return r.live
}

// Clock returns the run's clock (nil when disabled).
func (r *Run) Clock() Clock {
	if r == nil {
		return nil
	}
	return r.clock
}

// Progress returns the run's progress tracker (nil when disabled).
func (r *Run) Progress() *Progress {
	if r == nil {
		return nil
	}
	return r.progress
}

// Sched returns the scheduler metrics block for wiring into
// par.Policy (nil when disabled).
func (r *Run) Sched() *SchedMetrics {
	if r == nil {
		return nil
	}
	return &r.sched
}

// StartCell opens observability for one (experiment × benchmark ×
// column) grid cell whose column reads the given config key: a private
// registry and span set that the cell's simulators update without
// contending with any other worker.
func (r *Run) StartCell(experiment, benchmark string, col int, key string) *Cell {
	if r == nil {
		return nil
	}
	return &Cell{
		run:        r,
		experiment: experiment,
		benchmark:  benchmark,
		col:        col,
		key:        key,
		reg:        NewRegistry(),
		spans:      NewSpans(r.clock),
	}
}

// FinishCell folds a completed cell back into the run: its counters
// and histograms merge into the run registry (commutative, so worker
// scheduling cannot change the totals), and its snapshot is recorded
// for the manifest. Progress derives from the recorded cells, keyed by
// coordinates, so a retried cell (finish-failed, then finish-ok)
// advances the done count exactly once. Safe on nil run or cell.
func (r *Run) FinishCell(c *Cell, status string) {
	if r == nil || c == nil {
		return
	}
	r.reg.Merge(c.reg)
	r.collector.record(CellReport{
		Experiment: c.experiment,
		Benchmark:  c.benchmark,
		Col:        c.col,
		Key:        c.key,
		Status:     status,
		Spans:      c.spans.Report(),
		Metrics:    c.reg.Snapshot(),
	})
}

// CellReports returns every recorded cell report sorted by
// (experiment, benchmark, col).
func (r *Run) CellReports() []CellReport {
	if r == nil {
		return nil
	}
	return r.collector.reports()
}

// Cell statuses recorded in the manifest.
const (
	StatusOK       = "ok"
	StatusReplayed = "replayed" // served from the cell store, not simulated
	StatusFailed   = "failed"
)

// Cell is one grid cell's private observability surface. All methods
// are nil-safe; a nil *Cell hands out nil metric handles, so a fully
// disabled simulator is wired with zero-cost no-ops end to end.
type Cell struct {
	run        *Run
	experiment string
	benchmark  string
	col        int
	key        string
	reg        *Registry
	spans      *Spans
	replayed   bool
}

// NewCell returns a stand-alone cell recording into reg, for
// simulators built outside an experiment run (the public ldis facade's
// New). A nil reg yields a nil cell, i.e. observability off.
func NewCell(reg *Registry) *Cell {
	if reg == nil {
		return nil
	}
	return &Cell{reg: reg, spans: NewSpans(nil)}
}

// MarkReplayed records that the cell's result was served from the
// run's cell store (a checkpoint file, or an earlier experiment of the
// same run) rather than simulated. Cells are single-worker, so a
// plain bool suffices.
func (c *Cell) MarkReplayed() {
	if c == nil {
		return
	}
	c.replayed = true
}

// Replayed reports whether MarkReplayed was called.
func (c *Cell) Replayed() bool {
	return c != nil && c.replayed
}

// Counter returns the cell's named counter (nil when disabled).
func (c *Cell) Counter(name string) *Counter {
	if c == nil {
		return nil
	}
	return c.reg.Counter(name)
}

// Gauge returns the cell's named gauge (nil when disabled).
func (c *Cell) Gauge(name string) *Gauge {
	if c == nil {
		return nil
	}
	return c.reg.Gauge(name)
}

// Histogram returns the cell's named histogram (nil when disabled).
func (c *Cell) Histogram(name string, bounds []uint64) *Histogram {
	if c == nil {
		return nil
	}
	return c.reg.Histogram(name, bounds)
}

// Spans returns the cell's span aggregator (nil when disabled).
func (c *Cell) Spans() *Spans {
	if c == nil {
		return nil
	}
	return c.spans
}

// LiveGauge returns a gauge on the run's live registry, for values
// (e.g. SHARDS miss ratios) that should be visible on the HTTP
// endpoint while the cell is still mid-flight. Live gauges never enter
// the manifest: the latest writer wins, which is the right semantics
// for a dashboard and the wrong one for a deterministic record.
func (c *Cell) LiveGauge(name string) *Gauge {
	if c == nil {
		return nil
	}
	if c.run == nil {
		// Stand-alone cell (NewCell): no run-level live registry, so
		// live values land in the cell's own registry instead.
		return c.reg.Gauge(name)
	}
	return c.run.live.Gauge(name)
}

// SchedMetrics counts scheduler-level events. The experiment engine
// wires one into par.Policy; a nil *SchedMetrics no-ops so the
// scheduler never branches on whether observability is on.
type SchedMetrics struct {
	tasks   Counter
	retries Counter
	panics  Counter
	skipped Counter
}

// TaskDone counts one completed task attempt chain.
//
//ldis:noalloc
func (m *SchedMetrics) TaskDone() {
	if m == nil {
		return
	}
	m.tasks.Inc()
}

// Retry counts one task re-attempt after a failure.
//
//ldis:noalloc
func (m *SchedMetrics) Retry() {
	if m == nil {
		return
	}
	m.retries.Inc()
}

// Panic counts one recovered task panic.
//
//ldis:noalloc
func (m *SchedMetrics) Panic() {
	if m == nil {
		return
	}
	m.panics.Inc()
}

// Skipped counts one task cancelled before it ran (fail-fast).
//
//ldis:noalloc
func (m *SchedMetrics) Skipped() {
	if m == nil {
		return
	}
	m.skipped.Inc()
}

// Snapshot returns the scheduler counters as metrics.
func (m *SchedMetrics) Snapshot() []Metric {
	if m == nil {
		return nil
	}
	return []Metric{
		{Name: "sched_tasks", Kind: "counter", Count: m.tasks.Value()},
		{Name: "sched_retries", Kind: "counter", Count: m.retries.Value()},
		{Name: "sched_panics", Kind: "counter", Count: m.panics.Value()},
		{Name: "sched_skipped", Kind: "counter", Count: m.skipped.Value()},
	}
}

// Collector accumulates finished-cell reports keyed by coordinates, so
// a replayed-then-rerun cell overwrites rather than duplicates.
type Collector struct {
	mu    sync.Mutex
	cells map[cellKey]CellReport
}

type cellKey struct {
	experiment string
	benchmark  string
	col        int
}

func (c *Collector) record(r CellReport) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cells[cellKey{r.Experiment, r.Benchmark, r.Col}] = r
}

// counts tallies recorded cells by status. Counting over the map is
// commutative, so iteration order cannot matter.
func (c *Collector) counts() (done, replayed, failed int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	//ldis:nondet-ok commutative counting; no per-element output depends on order
	for _, r := range c.cells {
		done++
		switch r.Status {
		case StatusReplayed:
			replayed++
		case StatusFailed:
			failed++
		}
	}
	return done, replayed, failed
}

func (c *Collector) reports() []CellReport {
	c.mu.Lock()
	defer c.mu.Unlock()
	keys := make([]cellKey, 0, len(c.cells))
	//ldis:nondet-ok key collection only; the slice is sorted immediately below
	for k := range c.cells {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.experiment != b.experiment {
			return a.experiment < b.experiment
		}
		if a.benchmark != b.benchmark {
			return a.benchmark < b.benchmark
		}
		return a.col < b.col
	})
	out := make([]CellReport, 0, len(keys))
	for _, k := range keys {
		out = append(out, c.cells[k])
	}
	return out
}

// Progress tracks cells done vs total for the live endpoint and the
// manifest tail. Done/replayed/failed counts derive from the recorded
// cell reports (keyed by coordinates), so re-finished cells stay
// idempotent. All methods are nil-safe.
type Progress struct {
	clock     Clock
	start     int64
	total     atomic.Int64
	collector *Collector
}

func newProgress(clock Clock, col *Collector) *Progress {
	return &Progress{clock: clock, start: clock.Nanos(), collector: col}
}

// AddTotal grows the expected cell count (each experiment adds its
// grid before running).
func (p *Progress) AddTotal(n int) {
	if p == nil {
		return
	}
	p.total.Add(int64(n))
}

// ProgressReport is the progress snapshot served over HTTP and
// embedded in the manifest. ElapsedSeconds and ETASeconds are timing
// fields; the counts are deterministic.
type ProgressReport struct {
	Done           int64   `json:"done"`
	Total          int64   `json:"total"`
	Replayed       int64   `json:"replayed"`
	Failed         int64   `json:"failed"`
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	ETASeconds     float64 `json:"eta_seconds"`
}

// Snapshot returns the current progress. The ETA is a straight-line
// extrapolation from simulated (non-replayed) cell throughput.
func (p *Progress) Snapshot() ProgressReport {
	if p == nil {
		return ProgressReport{}
	}
	done, replayed, failed := p.collector.counts()
	r := ProgressReport{
		Done:     done,
		Total:    p.total.Load(),
		Replayed: replayed,
		Failed:   failed,
	}
	r.ElapsedSeconds = float64(p.clock.Nanos()-p.start) / 1e9
	if fresh := r.Done - r.Replayed; fresh > 0 && r.Done < r.Total {
		perCell := r.ElapsedSeconds / float64(fresh)
		r.ETASeconds = perCell * float64(r.Total-r.Done)
	}
	return r
}
