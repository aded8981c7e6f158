// Package cpu implements the execution-driven timing model used for the
// paper's IPC results (Section 7.4). The paper uses an in-house
// out-of-order Alpha simulator; we substitute an interval-style cycle
// accounting model in the spirit of Karkhanis & Smith [8] — which the
// paper itself cites for miss-tolerance behaviour — driven by the same
// access streams as the cache experiments:
//
//   - base work: instructions retire at the pipeline's base CPI;
//   - branches: mispredictions each cost the minimum 15-cycle penalty
//     (Table 1), scaled by the profile's branch and misprediction rates;
//   - instruction fetch: L1I misses stall for the L2 hit latency
//     (distill caches add their extra tag cycle here too — this is what
//     costs gcc its IPC in Figure 9);
//   - L2 hits: mostly hidden by the out-of-order window; a configurable
//     fraction of the latency is exposed;
//   - L2 misses: a 32-bank DRAM with 400-cycle access latency and a
//     16B-wide 4:1 bus (Table 1); bank conflicts and bus occupancy are
//     modelled with per-resource free-at times, and the exposed stall
//     divides by the workload's memory-level parallelism, bounded by
//     the 32-entry MSHR.
package cpu

import (
	"fmt"

	"ldis/internal/branch"
	"ldis/internal/dram"
	"ldis/internal/hierarchy"
	"ldis/internal/mem"
	"ldis/internal/trace"
	"ldis/internal/workload"
)

// Config holds the machine timing parameters (paper Table 1) plus the
// L2-organization-dependent extras (Section 7.4).
type Config struct {
	IssueWidth          int     // 8-wide
	BranchPenalty       int     // 15 cycles minimum
	L2HitLatency        int     // 15 cycles
	L2ExtraTagCycles    int     // +1 for the distill cache's bigger tag store
	WOCRearrangeCycles  int     // +2 for WOC hits
	L2HitExposedFrac    float64 // fraction of L2 hit latency the window cannot hide
	MemLatency          int     // 400 cycles
	DRAMBanks           int     // 32
	BankBusy            int     // cycles a bank stays busy per request
	BusCycles           int     // 64B line over a 16B bus at 4:1 ratio = 16 CPU cycles
	MSHREntries         int     // 32
	MissExposedBaseline float64 // floor on the exposed fraction of a miss
}

// DefaultConfig returns the paper's processor configuration.
func DefaultConfig() Config {
	return Config{
		IssueWidth:          8,
		BranchPenalty:       15,
		L2HitLatency:        15,
		L2ExtraTagCycles:    0,
		WOCRearrangeCycles:  0,
		L2HitExposedFrac:    0.3,
		MemLatency:          400,
		DRAMBanks:           32,
		BankBusy:            40,
		BusCycles:           16,
		MSHREntries:         32,
		MissExposedBaseline: 0.15,
	}
}

// DistillConfig returns the timing for a processor with a distill
// cache: one extra tag cycle on every L2 access and two extra cycles of
// word rearrangement on WOC hits (Section 7.4).
func DistillConfig() Config {
	c := DefaultConfig()
	c.L2ExtraTagCycles = 1
	c.WOCRearrangeCycles = 2
	return c
}

// Validate checks the parameters, the DRAM ones through dram's own
// check.
func (c Config) Validate() error {
	if c.IssueWidth <= 0 || c.MemLatency <= 0 || c.DRAMBanks <= 0 || c.MSHREntries <= 0 {
		return fmt.Errorf("cpu: non-positive core parameter: %+v", c)
	}
	if c.BranchPenalty < 0 || c.L2HitLatency < 0 || c.L2ExtraTagCycles < 0 || c.WOCRearrangeCycles < 0 {
		return fmt.Errorf("cpu: negative latency parameter: %+v", c)
	}
	if !(c.L2HitExposedFrac >= 0 && c.L2HitExposedFrac <= 1) || !(c.MissExposedBaseline >= 0 && c.MissExposedBaseline <= 1) {
		return fmt.Errorf("cpu: exposure fractions out of [0,1]: %+v", c)
	}
	return c.memoryConfig().Validate()
}

// Result reports a timing run.
type Result struct {
	Instructions uint64
	Cycles       float64
	Accesses     uint64
	MissStall    float64 // cycles attributed to L2 misses
	HitStall     float64 // cycles attributed to exposed L2 hit latency
	FrontStall   float64 // branch misprediction + L1I miss cycles
	BaseCycles   float64 // issue-limited work
}

// IPC returns instructions per cycle.
func (r Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Instructions) / r.Cycles
}

// Model runs a workload through a memory hierarchy and accounts cycles.
type Model struct {
	cfg Config
	mem *dram.Memory
}

// New builds a timing model; panics on invalid config.
func New(cfg Config) *Model {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Model{cfg: cfg, mem: dram.New(cfg.memoryConfig())}
}

// memoryConfig assembles the dram parameters from the Table-1 fields.
func (c Config) memoryConfig() dram.Config {
	return dram.Config{
		Banks:          c.DRAMBanks,
		AccessLatency:  c.MemLatency,
		BankBusy:       c.BankBusy,
		BusCycles:      c.BusCycles,
		MaxOutstanding: c.MSHREntries,
	}
}

// MemoryStats exposes the DRAM model's counters (bank conflicts, MSHR
// stalls) for diagnostics.
func (m *Model) MemoryStats() dram.Stats { return m.mem.Stats() }

// Run drives up to n accesses of the stream through the system,
// charging cycles per the profile's rates. The profile supplies the
// non-memory CPI, branch behaviour, instruction-cache pressure, and
// memory-level parallelism.
func (m *Model) Run(sys *hierarchy.System, prof *workload.Profile, st trace.Stream, n int) Result {
	var r Result
	cfg := m.cfg

	// Branch mispredictions are simulated mechanistically: the Table-1
	// gshare/PAs hybrid predicts a synthetic branch stream whose mix of
	// predictable and random branches is derived from the profile's
	// misprediction rate (see branchStream).
	bs := newBranchStream(prof)
	baseCPI := prof.BaseCPI
	if min := 1 / float64(cfg.IssueWidth); baseCPI < min {
		baseCPI = min
	}

	mlp := prof.MLP
	if mlp < 1 {
		mlp = 1
	}
	if mlp > float64(cfg.MSHREntries) {
		mlp = float64(cfg.MSHREntries)
	}

	cycle := 0.0
	for done := 0; n <= 0 || done < n; done++ {
		a, ok := st.Next()
		if !ok {
			break
		}
		r.Accesses++
		r.Instructions += uint64(a.Instret)
		inst := float64(a.Instret)
		base := inst * baseCPI
		front := float64(bs.run(a.Instret)) * float64(cfg.BranchPenalty)
		r.BaseCycles += base
		r.FrontStall += front
		cycle += base + front

		class := sys.Do(a)
		if a.Kind == mem.IFetch {
			// Front-end stalls are fully exposed: fetch cannot proceed
			// past a missing instruction line.
			var stall float64
			switch class {
			case hierarchy.L2Miss:
				stall = m.missStall(cycle, a.Line(), 1)
			default:
				stall = float64(cfg.L2HitLatency + cfg.L2ExtraTagCycles)
			}
			r.FrontStall += stall
			cycle += stall
			continue
		}
		switch class {
		case hierarchy.L1Hit:
			// Fully pipelined.
		case hierarchy.L2Hit:
			stall := float64(cfg.L2HitLatency+cfg.L2ExtraTagCycles) * cfg.L2HitExposedFrac
			r.HitStall += stall
			cycle += stall
		case hierarchy.L2WOCHit:
			stall := float64(cfg.L2HitLatency+cfg.L2ExtraTagCycles+cfg.WOCRearrangeCycles) * cfg.L2HitExposedFrac
			r.HitStall += stall
			cycle += stall
		case hierarchy.L2Miss:
			stall := m.missStall(cycle, a.Line(), mlp)
			r.MissStall += stall
			cycle += stall
		}
	}
	r.Cycles = cycle
	return r
}

// missStall models one memory access through the dram package (bank
// conflicts, MSHR back-pressure, bus occupancy); the exposed stall is
// the total latency divided by the workload's MLP (overlapped misses)
// but never below the baseline exposure floor.
func (m *Model) missStall(now float64, la mem.LineAddr, mlp float64) float64 {
	latency := m.mem.Access(now, la) - now
	exposed := latency / mlp
	if floor := latency * m.cfg.MissExposedBaseline; exposed < floor {
		exposed = floor
	}
	return exposed
}

// branchSites is how many static branch sites the synthetic stream
// spreads its branches over.
const branchSites = 256

// Bit positions in a site's byte: its class, fixed when the stream is
// built, and its visit-count parity.
const (
	siteRandom = iota // data-dependent: a fresh random outcome
	siteLoop          // alternates with the visit-count parity
	siteBiased        // always taken
	siteParity        // set after an odd number of visits
)

// bit returns bit i of v as 0 or 1.
func bit(v uint8, i int) uint64 { return uint64(v >> i & 1) }

// branchStream synthesizes the conditional-branch stream implied by a
// profile's rates and drives the hybrid predictor with it. Branch sites
// split into three populations: strongly biased (taken), loop-like
// alternating patterns (predictable from local history), and
// data-dependent branches with random outcomes. The random share is
// sized so the emergent misprediction rate tracks the profile's
// configured rate.
type branchStream struct {
	pred    *branch.Predictor
	acc     float64 // fractional branches owed
	perInst float64
	rng     uint64
	sites   [branchSites]uint8 // one class bit plus the parity bit
}

func newBranchStream(prof *workload.Profile) *branchStream {
	randFrac := 2 * prof.MispredictRate
	if randFrac > 1 {
		randFrac = 1
	}
	b := &branchStream{
		pred:    branch.New(branch.DefaultConfig()),
		perInst: prof.BranchPerKInst / 1000,
		rng:     prof.Seed | 1,
	}
	for s := range b.sites {
		switch {
		case float64(s) < randFrac*branchSites:
			b.sites[s] = 1 << siteRandom
		case s%8 == 0:
			// Loop branch: a per-site alternating pattern, learnable
			// from the PAs side's local history after warmup.
			b.sites[s] = 1 << siteLoop
		default:
			b.sites[s] = 1 << siteBiased
		}
	}
	return b
}

// run advances the stream by instret instructions and returns the number
// of mispredicted branches. Each branch draws its site, and a
// data-dependent site draws its outcome too. The second draw is always
// computed but committed to the generator only for a data-dependent
// site, and the outcome is selected with bit arithmetic, so the host
// never branches on a random outcome.
//
//ldis:noalloc
func (b *branchStream) run(instret uint32) int {
	b.acc += float64(instret) * b.perInst
	miss := 0
	for b.acc >= 1 {
		b.acc--
		x1 := mem.XorShift(b.rng)
		site := x1 * mem.XorShiftMul & (branchSites - 1)
		x2 := mem.XorShift(x1)

		cls := b.sites[site] ^ 1<<siteParity
		b.sites[site] = cls
		random := bit(cls, siteRandom)
		b.rng = x1 ^ (x1^x2)&-random

		outcome := x2*mem.XorShiftMul>>33&1 ^ 1
		taken := random&outcome | bit(cls, siteLoop)&bit(cls, siteParity) | bit(cls, siteBiased)
		pc := mem.Addr(0x700000 + site*4)
		if b.pred.PredictAndUpdate(pc, taken != 0) {
			miss++
		}
	}
	return miss
}
