// Package exp implements one experiment per figure and table of the
// paper's evaluation. Each experiment runs the calibrated synthetic
// benchmarks through the appropriate cache organizations and renders
// the same rows/series the paper reports. DESIGN.md maps experiment ids
// to paper content; EXPERIMENTS.md records paper-vs-measured values.
package exp

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"ldis/internal/hierarchy"
	"ldis/internal/obs"
	"ldis/internal/stats"
	"ldis/internal/trace"
	"ldis/internal/workload"
)

// Options control experiment scale. The defaults trade fidelity for
// runtime; benches and the CLI can raise Accesses.
type Options struct {
	// Accesses per benchmark per configuration.
	Accesses int
	// WarmupFrac is the fraction of accesses excluded from measurement.
	WarmupFrac float64
	// Benchmarks to run (defaults to the paper's 16).
	Benchmarks []string
	// Parallel caps the worker goroutines running (benchmark ×
	// configuration) simulation cells concurrently; 0 means GOMAXPROCS.
	// Results are deterministic regardless of the setting.
	Parallel int
	// Shards splits each shardable cell's cache state across this many
	// workers by line-address hash; 0 or 1 means sequential. Must be a
	// power of two at most hierarchy.MaxShards. Shard-exact
	// organizations produce byte-identical results at any setting (the
	// equivalence is enforced by tests), so Shards — like Parallel — is
	// a scheduling knob, excluded from Fingerprint and ManifestParams.
	Shards int
	// BatchSize is the record-block size of the batched access
	// pipeline; 0 means trace.DefaultBatchSize. It cannot change
	// results and is likewise excluded from the fingerprint.
	BatchSize int

	// KeepGoing runs every cell to completion instead of aborting the
	// sweep at the first failure. Failed cells are recorded in
	// Failures; benchmarks with a failed cell are pruned from the
	// results so healthy rows render exactly as in a fault-free run.
	KeepGoing bool
	// Retries gives each failing cell this many extra attempts before
	// its failure counts. Cells are pure functions of their inputs,
	// so retries only matter against injected or external transient
	// faults.
	Retries int
	// FailBudget, when positive and KeepGoing is set, abandons the
	// sweep once this many cells have failed; 0 means no limit.
	FailBudget int
	// Failures collects per-cell failures in keep-going mode. Left
	// nil, validate installs a fresh log; callers that want to read
	// the failures afterwards supply their own.
	Failures *FailureLog
	// Checkpoint is the run's cell store: every (row, config key) cell
	// is simulated at most once and served from the store afterwards,
	// in any experiment that reads it. Left nil, Validate installs an
	// in-memory store; OpenCheckpoint supplies one backed by a file,
	// which also replays the cells of an earlier run and appends each
	// new one, making the sweep resumable after a crash or kill. A
	// store is bound to the Fingerprint of the options it was made
	// for: Validate replaces an in-memory store whose fingerprint
	// differs, so a changed option never reads a stale cell.
	Checkpoint *Checkpoint
	// FaultSeed, when nonzero, deterministically panics a seeded
	// subset of cells via internal/faultinject — the chaos-testing
	// hook. 0 disables injection.
	FaultSeed uint64

	// Obs, when non-nil, receives per-cell metrics, span timings,
	// scheduler counters, and progress for the whole sweep. A nil Obs
	// costs nothing: every handle downstream is a nil no-op. Obs is
	// reporting-only and deliberately excluded from Fingerprint —
	// toggling observability never invalidates a checkpoint.
	Obs *obs.Run

	// Per-experiment knobs, each declared once beside its experiment
	// (see knob.go). A zero field means the knob's default; other
	// experiments ignore them.
	MRC       MRCParams
	Partition PartitionParams
	Orgs      OrgsParams

	// expID is the registry id of the experiment being run, set by
	// Run; it names fault-injection sites, manifest cells and failure
	// rows.
	expID string
}

// DefaultOptions returns a configuration good for interactive use.
func DefaultOptions() Options {
	return Options{Accesses: 1_000_000, WarmupFrac: 0.25}
}

func (o Options) benchmarks() []string {
	if len(o.Benchmarks) > 0 {
		return o.Benchmarks
	}
	return workload.MainNames
}

func (o Options) warmup() int  { return int(float64(o.Accesses) * o.WarmupFrac) }
func (o Options) measure() int { return o.Accesses - o.warmup() }

func (o Options) shards() int {
	if o.Shards <= 1 {
		return 1
	}
	return o.Shards
}

func (o Options) batchSize() int {
	if o.BatchSize == 0 {
		return trace.DefaultBatchSize
	}
	return o.BatchSize
}

// OptionError is one diagnosed problem with an Options value: the
// offending field plus a human-readable message. Validate returns all
// of them joined, so callers (both CLIs) can print the complete
// problem list in one pass instead of fixing flags one at a time.
type OptionError struct {
	Field string // manifest name ("accesses", "mrc_sample_rate", ...) or Options field ("Parallel", ...)
	Msg   string
}

func (e *OptionError) Error() string { return "exp: " + e.Field + ": " + e.Msg }

// Validate checks every option and normalizes the ones with sensible
// defaults (a KeepGoing run with no Failures log gets a fresh one,
// every zero knob takes its declared default, and a run without a
// cell store, or with an in-memory one made for other options, gets a
// fresh store). It returns nil or an errors.Join of *OptionError
// values — one per problem found, never just the first. A result
// option's problem is reported under its manifest name, which is also
// its ldisd JSON field.
func (o *Options) Validate() error {
	var problems []error
	bad := func(field, format string, args ...any) {
		problems = append(problems, &OptionError{Field: field, Msg: fmt.Sprintf(format, args...)})
	}
	if o.Accesses <= 0 {
		bad("accesses", "must be positive, got %d", o.Accesses)
	}
	if o.WarmupFrac < 0 || o.WarmupFrac >= 1 {
		bad("warmup_frac", "%v out of [0,1)", o.WarmupFrac)
	}
	if o.Parallel < 0 {
		bad("Parallel", "must be >= 0, got %d", o.Parallel)
	}
	if o.Shards < 0 || o.Shards > hierarchy.MaxShards || (o.Shards > 0 && o.Shards&(o.Shards-1) != 0) {
		bad("Shards", "must be a power of two in [1, %d], or 0 for sequential; got %d", hierarchy.MaxShards, o.Shards)
	}
	if o.BatchSize < 0 {
		bad("BatchSize", "must be >= 0, got %d", o.BatchSize)
	}
	if o.Retries < 0 {
		bad("retries", "must be >= 0, got %d", o.Retries)
	}
	if o.FailBudget < 0 {
		bad("FailBudget", "must be >= 0, got %d", o.FailBudget)
	}
	if o.KeepGoing && o.Failures == nil {
		o.Failures = NewFailureLog()
	}
	for _, b := range o.Benchmarks {
		if _, err := workload.ByName(b); err != nil {
			problems = append(problems, err)
		}
	}
	*o = o.withKnobDefaults()
	// A check that depends on an earlier knob sees that knob's problem
	// too (the curve's max capacity sees a bad resolution); it is
	// reported once, on the earlier knob.
	reported := map[string]bool{}
	for _, k := range o.knobs() {
		if err := k.check(); err != nil && !reported[err.Error()] {
			reported[err.Error()] = true
			bad(k.Name, "%v", err)
		}
	}
	if len(problems) > 0 {
		return errors.Join(problems...)
	}
	switch fp := o.Fingerprint(); {
	case o.Checkpoint == nil || (!o.Checkpoint.fileBacked() && o.Checkpoint.fp != fp):
		o.Checkpoint = newStore(fp)
	case o.Checkpoint.fp != fp:
		bad("Checkpoint", "%s was opened for different options (fingerprint %016x, want %016x)", o.Checkpoint.path, o.Checkpoint.fp, fp)
	}
	return errors.Join(problems...)
}

// timedStream wraps a cell's record stream so every NextBatch refill is
// charged to the cell's decode span: manifests report record
// generation separately from simulation.
type timedStream struct {
	bs trace.BatchStream
	sp *obs.Spans
}

func (t *timedStream) NextBatch(dst []trace.Record) int {
	tok := t.sp.Begin(obs.StageDecode)
	n := t.bs.NextBatch(dst)
	t.sp.End(obs.StageDecode, tok)
	return n
}

// cellStream builds the timed batch stream for one cell.
func cellStream(prof *workload.Profile, co *obs.Cell) *timedStream {
	return &timedStream{bs: trace.Batched(prof.Stream()), sp: co.Spans()}
}

// driveBatches feeds up to n records from bs into sink in buf-sized
// blocks, stopping early if the stream ends.
func driveBatches(sink func([]trace.Record), bs trace.BatchStream, n int, buf []trace.Record) {
	for done := 0; done < n; {
		want := len(buf)
		if want > n-done {
			want = n - done
		}
		got := bs.NextBatch(buf[:want])
		sink(buf[:got])
		done += got
		if got < want {
			return
		}
	}
}

// runWindowed drives a profile through a system with warmup, returning
// the measurement window. The drive is batched: records flow in
// o.batchSize() blocks from the stream into System.DoBatch, with the
// same block schedule — ceil(warmup/B) then ceil(measure/B) refills —
// as the sharded path, so manifests agree on span counts either way.
func runWindowed(sys *hierarchy.System, prof *workload.Profile, o Options, co *obs.Cell) *hierarchy.Window {
	bs := cellStream(prof, co)
	buf := make([]trace.Record, o.batchSize())
	driveBatches(sys.DoBatch, bs, o.warmup(), buf)
	w := sys.StartWindow()
	driveBatches(sys.DoBatch, bs, o.measure(), buf)
	return w
}

// Runner is an experiment entry: it produces one or more tables.
type Runner func(Options) ([]*stats.Table, error)

// rendered adapts an experiment that computes rows, and the renderer
// of those rows, into a Runner.
func rendered[R any](run func(Options) (R, error), render func(R) []*stats.Table) Runner {
	return func(o Options) ([]*stats.Table, error) {
		rows, err := run(o)
		if err != nil {
			return nil, err
		}
		return render(rows), nil
	}
}

// single adapts a one-table renderer.
func single[R any](render func(R) *stats.Table) func(R) []*stats.Table {
	return func(rows R) []*stats.Table { return []*stats.Table{render(rows)} }
}

// experiment is one registry entry: its description, its Runner, and
// its knob declaration (nil for experiments without knobs).
type experiment struct {
	About string
	Run   Runner
	knobs func(*Options) []Knob
}

var experiments = map[string]experiment{}

func registerExp(id, about string, run Runner, knobs func(*Options) []Knob) {
	if _, dup := experiments[id]; dup {
		panic("exp: duplicate experiment " + id)
	}
	experiments[id] = experiment{about, run, knobs}
}

// IDs lists the registered experiment ids in sorted order.
func IDs() []string {
	ids := make([]string, 0, len(experiments))
	//ldis:nondet-ok key collection only; the slice is sorted immediately below
	for id := range experiments {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// About describes an experiment id.
func About(id string) (string, bool) {
	e, ok := experiments[id]
	if !ok {
		return "", false
	}
	return e.About, true
}

// Describe returns the one-line "id  description" text for an
// experiment, or false for an unknown id. `ldisexp -list` prints one
// line per id, and the unknown-experiment error reuses the exact same
// text, so the error doubles as the listing.
func Describe(id string) (string, bool) {
	e, ok := experiments[id]
	if !ok {
		return "", false
	}
	return fmt.Sprintf("%-20s %s", id, e.About), true
}

// describeAll renders the full experiment listing, one Describe line
// per registered id.
func describeAll() string {
	var b strings.Builder
	for _, id := range IDs() {
		line, _ := Describe(id)
		b.WriteString("  ")
		b.WriteString(line)
		b.WriteString("\n")
	}
	return b.String()
}

// Run executes the experiment with the given id.
func Run(id string, o Options) ([]*stats.Table, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	e, ok := experiments[id]
	if !ok {
		return nil, fmt.Errorf("exp: unknown experiment %q; valid experiments:\n%s", id, describeAll())
	}
	o.expID = id
	return e.Run(o)
}
