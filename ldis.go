// Package ldis is a library-scale reproduction of "Line Distillation:
// Increasing Cache Capacity by Filtering Unused Words in Cache Lines"
// (Qureshi, Suleman, Patt — HPCA 2007).
//
// The package exposes a small facade over the internal simulator: build
// a cache organization (traditional, distill, compressed, or
// SFP-predicted) with New — optionally refined by the related-work
// modifiers WithToucheTags, WithCleanCopyBack, and WithWayMemo — pick
// a workload, run it, and read the results. The full experiment
// harness that regenerates every table
// and figure of the paper lives behind RunExperiment and the ldisexp
// command.
//
// Quick start:
//
//	sim, _ := ldis.New(ldis.WithDistill(ldis.DefaultDistillConfig()))
//	res, _ := sim.RunWorkload("mcf", 1_000_000)
//	fmt.Println(res)
package ldis

import (
	"fmt"
	"strings"

	"ldis/internal/cache"
	"ldis/internal/cpu"
	"ldis/internal/distill"
	"ldis/internal/exp"
	"ldis/internal/hierarchy"
	"ldis/internal/obs"
	"ldis/internal/sfp"
	"ldis/internal/stats"
	"ldis/internal/trace"
	"ldis/internal/workload"

	icompress "ldis/internal/compress"
	"ldis/internal/wordstore"
)

// DistillConfig re-exports the distill cache configuration.
type DistillConfig = distill.Config

// ToucheTagsConfig re-exports the Touché compressed-tag configuration
// used by WithToucheTags.
type ToucheTagsConfig = wordstore.ToucheConfig

// CopyBackConfig re-exports the clean copy-back configuration used by
// WithCleanCopyBack.
type CopyBackConfig = distill.CopyBackConfig

// WayMemoConfig re-exports the way-memoization configuration used by
// WithWayMemo.
type WayMemoConfig = cache.WayMemoConfig

// DefaultDistillConfig returns the paper's LDIS-MT-RC configuration: a
// 1MB 8-way cache with 6 LOC ways + 2 WOC ways, median-threshold
// filtering, and the reverter circuit.
func DefaultDistillConfig() DistillConfig { return distill.DefaultConfig() }

// Benchmarks lists the names of all built-in synthetic benchmarks (the
// paper's 16 memory-intensive ones plus the 11 cache-insensitive ones
// from Appendix A).
func Benchmarks() []string { return workload.Names() }

// MainBenchmarks lists the paper's 16 memory-intensive benchmarks in
// paper order.
func MainBenchmarks() []string { return append([]string(nil), workload.MainNames...) }

// Result summarizes one simulation run.
type Result struct {
	Benchmark    string
	Accesses     uint64
	Instructions uint64
	L2Accesses   uint64
	L2Misses     uint64
	MPKI         float64

	// Distill-cache outcome breakdown (zero for other organizations).
	LOCHits, WOCHits, HoleMisses, LineMisses uint64
}

// String implements fmt.Stringer.
func (r Result) String() string {
	s := fmt.Sprintf("%s: %d accesses, %d instructions, L2 misses %d (MPKI %.2f)",
		r.Benchmark, r.Accesses, r.Instructions, r.L2Misses, r.MPKI)
	if r.LOCHits+r.WOCHits+r.HoleMisses > 0 {
		s += fmt.Sprintf(" [LOC-hit %d, WOC-hit %d, hole-miss %d, line-miss %d]",
			r.LOCHits, r.WOCHits, r.HoleMisses, r.LineMisses)
	}
	return s
}

// Sim is a ready-to-run L1D+L2 hierarchy.
type Sim struct {
	sys     *hierarchy.System
	distill *distill.Cache
	obsCell *obs.Cell
}

// Observer is a metrics registry a Sim records into when built with
// WithObserver: cache eviction/writeback counters, distill outcome
// counters, the distilled-line size histogram, and span timings land
// here. Snapshot returns everything in deterministic order.
type Observer = obs.Registry

// NewObserver returns an empty metrics registry for WithObserver.
func NewObserver() *Observer { return obs.NewRegistry() }

// Option configures a Sim built by New. Exactly one cache-organization
// option — WithTraditional, WithDistill, WithCompression, WithFAC, or
// WithSFP — must be given. Modifier options refine an organization:
// WithToucheTags and WithCleanCopyBack compose with WithDistill and
// WithFAC, WithWayMemo with WithTraditional. WithObserver composes
// with anything.
type Option func(*simSpec)

// simSpec accumulates the options before New builds anything; orgs
// records every organization option seen so New can report conflicts
// by name, and builders pull the modifier configs from the spec.
type simSpec struct {
	orgs  []string
	build func(spec *simSpec, co *obs.Cell) (*Sim, error)
	reg   *obs.Registry

	touche   *wordstore.ToucheConfig
	copyBack *distill.CopyBackConfig
	wayMemo  *cache.WayMemoConfig
}

func (s *simSpec) setOrg(name string, build func(spec *simSpec, co *obs.Cell) (*Sim, error)) {
	s.orgs = append(s.orgs, name)
	s.build = build
}

// applyDistillMods folds the distill-compatible modifiers into cfg.
func (s *simSpec) applyDistillMods(cfg DistillConfig) DistillConfig {
	cfg.Touche = s.touche
	cfg.CopyBack = s.copyBack
	return cfg
}

// WithTraditional selects a traditional L2 of the given geometry
// (the paper's baseline is WithTraditional(1<<20, 8)).
func WithTraditional(sizeBytes, ways int) Option {
	return func(s *simSpec) {
		s.setOrg("WithTraditional", func(spec *simSpec, co *obs.Cell) (*Sim, error) {
			cfg := cache.Config{Name: "trad", SizeBytes: sizeBytes, Ways: ways,
				WayMemo: spec.wayMemo, Obs: co}
			if err := cfg.Validate(); err != nil {
				return nil, err
			}
			sys, _ := hierarchy.Traditional(cfg)
			return &Sim{sys: sys}, nil
		})
	}
}

// WithDistill selects a distill-cache L2 (paper Section 5).
func WithDistill(cfg DistillConfig) Option {
	return func(s *simSpec) {
		s.setOrg("WithDistill", func(spec *simSpec, co *obs.Cell) (*Sim, error) {
			cfg = spec.applyDistillMods(cfg)
			cfg.Obs = co
			if err := cfg.Validate(); err != nil {
				return nil, err
			}
			sys, dc := hierarchy.Distill(cfg)
			return &Sim{sys: sys, distill: dc}, nil
		})
	}
}

// WithCompression selects the CMPR comparator (compressed traditional
// cache, Section 8.1) over the named benchmark's value model.
func WithCompression(benchmark string) Option {
	return func(s *simSpec) {
		s.setOrg("WithCompression", func(spec *simSpec, co *obs.Cell) (*Sim, error) {
			prof, err := workload.ByName(benchmark)
			if err != nil {
				return nil, err
			}
			sys, _ := hierarchy.Compressed(icompress.DefaultCMPRConfig(), prof.Values())
			return &Sim{sys: sys}, nil
		})
	}
}

// WithFAC selects a distill cache whose WOC installs use
// footprint-aware compression (Section 8.2) over the named benchmark's
// value model.
func WithFAC(cfg DistillConfig, benchmark string) Option {
	return func(s *simSpec) {
		s.setOrg("WithFAC", func(spec *simSpec, co *obs.Cell) (*Sim, error) {
			prof, err := workload.ByName(benchmark)
			if err != nil {
				return nil, err
			}
			cfg = spec.applyDistillMods(cfg)
			cfg.Obs = co
			if err := cfg.Validate(); err != nil {
				return nil, err
			}
			sys, dc := hierarchy.FAC(cfg, prof.Values())
			return &Sim{sys: sys, distill: dc}, nil
		})
	}
}

// WithSFP selects the spatial-footprint-predictor comparator (Section
// 9 / Figure 13). predictorEntries <= 0 keeps the default table size.
func WithSFP(predictorEntries int) Option {
	return func(s *simSpec) {
		s.setOrg("WithSFP", func(spec *simSpec, co *obs.Cell) (*Sim, error) {
			cfg := sfp.DefaultConfig()
			if predictorEntries > 0 {
				cfg.PredictorEntries = predictorEntries
			}
			if err := cfg.Validate(); err != nil {
				return nil, err
			}
			sys, _ := hierarchy.SFP(cfg)
			return &Sim{sys: sys}, nil
		})
	}
}

// WithToucheTags replaces the WOC's per-word full tags with
// Touché-style compressed superblock signatures (arXiv 1909.00553):
// resident lines of a superblock share one hashed signature entry,
// checksum-disambiguated so an alias is always a safe miss, never a
// false hit. Composes with WithDistill and WithFAC. Tag-area pricing
// lives in costmodel.ToucheTagArea.
func WithToucheTags(cfg ToucheTagsConfig) Option {
	return func(s *simSpec) {
		c := cfg
		s.touche = &c
	}
}

// WithTouchéTags is WithToucheTags under the paper's accented
// spelling.
var WithTouchéTags = WithToucheTags

// WithCleanCopyBack gates copy-back of clean L1 victims into the WOC
// on a reuse-distance predictor fed from the Mattson/SHARDS stack
// (arXiv 2105.14442). Composes with WithDistill and WithFAC.
func WithCleanCopyBack(cfg CopyBackConfig) Option {
	return func(s *simSpec) {
		c := cfg
		s.copyBack = &c
	}
}

// WithWayMemo adds way-memoization accounting to a traditional L2
// (arXiv 0710.4703): a per-set memo buffer remembers last-hit ways so
// repeat accesses skip the parallel tag probe. Functionally
// transparent; energy pricing lives in costmodel.WayMemoEnergyFor.
// Composes with WithTraditional.
func WithWayMemo(cfg WayMemoConfig) Option {
	return func(s *simSpec) {
		c := cfg
		s.wayMemo = &c
	}
}

// WithObserver wires the simulator's metrics into reg. A nil reg (or
// omitting the option) disables observability entirely: every handle
// on the hot path is a nil no-op.
func WithObserver(reg *obs.Registry) Option {
	return func(s *simSpec) { s.reg = reg }
}

// New builds a simulator from functional options — the package's
// single constructor:
//
//	sim, err := ldis.New(ldis.WithDistill(ldis.DefaultDistillConfig()),
//		ldis.WithObserver(reg))
func New(opts ...Option) (*Sim, error) {
	var spec simSpec
	for _, o := range opts {
		o(&spec)
	}
	if len(spec.orgs) == 0 {
		return nil, fmt.Errorf("ldis.New: no cache organization selected; pass one of WithTraditional, WithDistill, WithCompression, WithFAC, WithSFP")
	}
	if len(spec.orgs) > 1 {
		return nil, fmt.Errorf("ldis.New: conflicting organization options: %s", strings.Join(spec.orgs, ", "))
	}
	org := spec.orgs[0]
	distillOrg := org == "WithDistill" || org == "WithFAC"
	if spec.touche != nil && !distillOrg {
		return nil, fmt.Errorf("ldis.New: WithToucheTags requires WithDistill or WithFAC, got %s", org)
	}
	if spec.copyBack != nil && !distillOrg {
		return nil, fmt.Errorf("ldis.New: WithCleanCopyBack requires WithDistill or WithFAC, got %s", org)
	}
	if spec.wayMemo != nil && org != "WithTraditional" {
		return nil, fmt.Errorf("ldis.New: WithWayMemo requires WithTraditional, got %s", org)
	}
	co := obs.NewCell(spec.reg)
	sim, err := spec.build(&spec, co)
	if err != nil {
		return nil, err
	}
	sim.obsCell = co
	return sim, nil
}

// RunWorkload drives n accesses of the named synthetic benchmark
// through the hierarchy and summarizes the outcome. It can be called
// repeatedly (the stream continues where the previous call stopped only
// if the same Stream is reused; each call here starts a fresh stream,
// which is the common single-shot use).
func (s *Sim) RunWorkload(benchmark string, n int) (Result, error) {
	prof, err := workload.ByName(benchmark)
	if err != nil {
		return Result{}, err
	}
	return s.RunStream(benchmark, prof.Stream(), n), nil
}

// RunStream drives up to n accesses from an arbitrary trace stream.
func (s *Sim) RunStream(label string, st trace.Stream, n int) Result {
	s.sys.Run(st, n)
	r := Result{
		Benchmark:    label,
		Accesses:     s.sys.DemandAccesses,
		Instructions: s.sys.Instructions,
		L2Accesses:   s.sys.L2.Accesses(),
		L2Misses:     s.sys.L2.Misses(),
		MPKI:         stats.MPKI(s.sys.L2.Misses(), s.sys.Instructions),
	}
	if s.distill != nil {
		ds := s.distill.Stats()
		r.LOCHits, r.WOCHits = ds.LOCHits, ds.WOCHits
		r.HoleMisses, r.LineMisses = ds.HoleMisses, ds.LineMisses
	}
	return r
}

// DistillStats exposes the distill cache's detailed statistics (nil for
// non-distill sims).
func (s *Sim) DistillStats() *distill.Stats {
	if s.distill == nil {
		return nil
	}
	return s.distill.Stats()
}

// System exposes the underlying hierarchy for advanced use (custom
// streams, window measurements).
func (s *Sim) System() *hierarchy.System { return s.sys }

// IPCResult reports an execution-driven timing run (Section 7.4).
type IPCResult struct {
	Benchmark string
	IPC       float64
	Cycles    float64
	MPKI      float64
}

// MeasureIPC runs the named benchmark through both the baseline and the
// distill-cache machines using the paper's timing parameters and
// returns (baseline, distill) results.
func MeasureIPC(benchmark string, accesses int) (IPCResult, IPCResult, error) {
	prof, err := workload.ByName(benchmark)
	if err != nil {
		return IPCResult{}, IPCResult{}, err
	}
	sysB, _ := hierarchy.Baseline("baseline", 1<<20, 8)
	rB := cpu.New(cpu.DefaultConfig()).Run(sysB, prof, prof.Stream(), accesses)

	sysD, _ := hierarchy.Distill(distill.DefaultConfig())
	rD := cpu.New(cpu.DistillConfig()).Run(sysD, prof, prof.Stream(), accesses)

	mk := func(r cpu.Result, sys *hierarchy.System) IPCResult {
		return IPCResult{
			Benchmark: benchmark,
			IPC:       r.IPC(),
			Cycles:    r.Cycles,
			MPKI:      stats.MPKI(sys.L2.Misses(), r.Instructions),
		}
	}
	return mk(rB, sysB), mk(rD, sysD), nil
}

// ExperimentIDs lists the paper-experiment identifiers understood by
// RunExperiment (fig1..fig13, table1..table6, overheads).
func ExperimentIDs() []string { return exp.IDs() }

// ExperimentOptions re-exports the experiment harness options; an
// experiment's own knobs live in its params field, e.g. o.MRC.SampleRate.
type ExperimentOptions = exp.Options

// DefaultExperimentOptions returns sensible interactive defaults.
func DefaultExperimentOptions() ExperimentOptions { return exp.DefaultOptions() }

// RunExperiment regenerates one of the paper's tables or figures and
// returns the rendered tables.
func RunExperiment(id string, o ExperimentOptions) ([]*stats.Table, error) {
	return exp.Run(id, o)
}
