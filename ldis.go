// Package ldis is a library-scale reproduction of "Line Distillation:
// Increasing Cache Capacity by Filtering Unused Words in Cache Lines"
// (Qureshi, Suleman, Patt — HPCA 2007).
//
// The package exposes a small facade over the internal simulator: New
// builds a cache organization named by one of Keys — the configuration
// table behind every figure, e.g. "base-1MB", "ldis-mt-rc-2" (the
// paper's LDIS-MT-RC), "fac-3", "cmpr-4x", "sfp-16k", or the
// related-work variants "touche", "copyback" and "waymemo" — for a
// benchmark; then run a workload and read the results. The full
// experiment harness that regenerates every table and figure of the
// paper lives behind RunExperiment and the ldisexp command.
//
// Quick start:
//
//	sim, _ := ldis.New("ldis-mt-rc-2", "mcf", nil)
//	res, _ := sim.RunWorkload("mcf", 1_000_000)
//	fmt.Println(res)
package ldis

import (
	"fmt"

	"ldis/internal/distill"
	"ldis/internal/exp"
	"ldis/internal/hierarchy"
	"ldis/internal/obs"
	"ldis/internal/stats"
	"ldis/internal/trace"
	"ldis/internal/workload"
)

// DefaultBenchmark is the benchmark a machine is built for when its
// stream has no profile of its own, as when a trace is replayed.
const DefaultBenchmark = "mcf"

// Keys lists every cache organization New can build, in sorted order.
func Keys() []string { return exp.Keys() }

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
	sys *hierarchy.System
}

// Observer is a metrics registry a Sim records into: cache
// eviction/writeback counters, distill outcome counters, the
// distilled-line size histogram, and span timings land here. Snapshot
// returns everything in deterministic order.
type Observer = obs.Registry

// NewObserver returns an empty metrics registry for New.
func NewObserver() *Observer { return obs.NewRegistry() }

// New builds the cache organization named by key (one of Keys) for the
// named benchmark, exactly as the experiments build it: seeded
// organizations take the benchmark's seed, and CMPR and FAC its value
// model. The simulator records its metrics into reg; a nil reg
// disables observability entirely, every handle on the hot path being
// a nil no-op. An unknown key's error lists the keys.
func New(key, benchmark string, reg *Observer) (*Sim, error) {
	sys, err := exp.Build(key, benchmark, obs.NewCell(reg))
	if err != nil {
		return nil, fmt.Errorf("ldis.New: %w", err)
	}
	return &Sim{sys: sys}, nil
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
	if ds := s.DistillStats(); ds != nil {
		r.LOCHits, r.WOCHits = ds.LOCHits, ds.WOCHits
		r.HoleMisses, r.LineMisses = ds.HoleMisses, ds.LineMisses
	}
	return r
}

// DistillStats exposes the distill cache's detailed statistics (nil for
// non-distill sims).
func (s *Sim) DistillStats() *distill.Stats {
	if l2, ok := s.sys.L2.(*hierarchy.DistillL2); ok {
		return l2.C.Stats()
	}
	return nil
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

// MeasureIPC runs the named benchmark through Figure 9's two machines,
// the baseline ("base-1MB") and the distill cache ("ldis-mt-rc-2"),
// with the paper's timing parameters, and returns (baseline, distill)
// results.
func MeasureIPC(benchmark string, accesses int) (IPCResult, IPCResult, error) {
	var out [2]IPCResult
	for i, key := range []string{"base-1MB", "ldis-mt-rc-2"} {
		r, sys, err := exp.IPC(key, benchmark, accesses)
		if err != nil {
			return IPCResult{}, IPCResult{}, err
		}
		out[i] = IPCResult{
			Benchmark: benchmark,
			IPC:       r.IPC(),
			Cycles:    r.Cycles,
			MPKI:      stats.MPKI(sys.L2.Misses(), r.Instructions),
		}
	}
	return out[0], out[1], nil
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
