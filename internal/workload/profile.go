package workload

import (
	"fmt"
	"sort"

	"ldis/internal/mem"
	"ldis/internal/trace"
	"ldis/internal/values"
)

// Profile is a complete synthetic benchmark: an access pattern plus the
// scalar rates the CPU timing model needs. One Profile corresponds to
// one benchmark row in the paper's tables.
type Profile struct {
	Name string
	Seed uint64

	// BaseLine is the first line of the benchmark's address region.
	BaseLine mem.LineAddr

	// Pattern is the data access pattern.
	Pattern VisitorSpec

	// MemRefsPerKInst is the number of data references per 1000
	// instructions; it spaces the Instret gaps in the trace.
	MemRefsPerKInst float64

	// StoreFrac is the fraction of data references that are stores.
	StoreFrac float64

	// ValueMix drives the compression experiments (Section 8).
	ValueMix values.Mix

	// CPU-side rates for the execution-driven IPC model (Section 7.4).
	BaseCPI        float64 // non-memory CPI (issue/dependency limits)
	BranchPerKInst float64 // conditional branches per 1000 instructions
	MispredictRate float64 // fraction of branches mispredicted
	MLP            float64 // average overlappable L2 misses (>=1)
	L1IMPKI        float64 // instruction-cache misses per 1000 instructions

	// CodeLines is the instruction footprint (in 64B lines) that the
	// L1I-miss stream cycles over. The stream itself is emitted as
	// IFetch accesses at L1IMPKI per 1000 instructions — the paper's
	// unified L2 serves them but never distills instruction lines
	// (Section 4). Zero defaults to 256kB of code.

	CodeLines int

	// PaperMPKI and PaperWordsUsed record the paper's published values
	// (Table 2 and Table 6 at 1MB) for calibration and EXPERIMENTS.md.
	PaperMPKI      float64
	PaperWordsUsed float64
}

// Validate checks the profile for obviously broken parameters.
func (p *Profile) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("workload: profile without a name")
	}
	if p.Pattern == nil {
		return fmt.Errorf("workload: profile %s has no pattern", p.Name)
	}
	if err := validateSpec(p.Pattern); err != nil {
		return fmt.Errorf("workload: profile %s: %w", p.Name, err)
	}
	if p.MemRefsPerKInst <= 0 {
		return fmt.Errorf("workload: profile %s needs MemRefsPerKInst > 0", p.Name)
	}
	if p.StoreFrac < 0 || p.StoreFrac > 1 {
		return fmt.Errorf("workload: profile %s has StoreFrac %v", p.Name, p.StoreFrac)
	}
	if p.MLP < 1 && p.MLP != 0 {
		return fmt.Errorf("workload: profile %s has MLP %v < 1", p.Name, p.MLP)
	}
	if p.L1IMPKI < 0 {
		return fmt.Errorf("workload: profile %s has negative L1IMPKI", p.Name)
	}
	if p.CodeLines < 0 || p.CodeLines > MB(2) {
		return fmt.Errorf("workload: profile %s CodeLines %d out of [0, 2MB]", p.Name, p.CodeLines)
	}
	return nil
}

// codeLines returns the instruction footprint, defaulting to 256kB.
func (p *Profile) codeLines() int {
	if p.CodeLines > 0 {
		return p.CodeLines
	}
	return MB(0.25)
}

// codeBase places the code region near the top of the profile's 64MB
// address window, clear of every data component.
func (p *Profile) codeBase() mem.LineAddr {
	return p.BaseLine + mem.LineAddr(MB(62))
}

// Stream returns a fresh deterministic access stream for the profile.
// Successive calls return identical streams.
func (p *Profile) Stream() trace.Stream {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	return &profileStream{
		prof:    p,
		visitor: p.Pattern.build(p.Seed, p.BaseLine),
		gap:     1000 / p.MemRefsPerKInst,
		rng:     splitmix64(p.Seed ^ 0x57ea),
	}
}

// Trace materializes n accesses of the profile's stream.
func (p *Profile) Trace(n int) []mem.Access {
	return trace.Collect(p.Stream(), n)
}

// Values returns the deterministic memory-content model for the profile.
func (p *Profile) Values() *values.Model {
	return values.NewModel(p.Seed^0xda7a, p.ValueMix)
}

// profileStream expands line visits into word accesses, paces Instret so
// the configured references-per-kilo-instruction rate holds, and marks a
// StoreFrac fraction of accesses as writes.
type profileStream struct {
	prof    *Profile
	visitor visitor
	pending visit
	idx     int
	gap     float64 // instructions per access
	gapAcc  float64
	rng     uint64

	// Instruction-fetch state: ifetchAcc accumulates expected L1I
	// misses (L1IMPKI per 1000 instructions); when it crosses 1, the
	// next access emitted is an instruction fetch cycling over the code
	// region.
	ifetchAcc float64
	codePos   int
}

// Next emits the stream's next access. This is the workload side of
// the simulation hot path: one call per simulated access, so it must
// stay allocation-free.
//
//ldis:noalloc
func (s *profileStream) Next() (mem.Access, bool) {
	if s.ifetchAcc >= 1 {
		s.ifetchAcc--
		line := s.prof.codeBase() + mem.LineAddr(s.codePos)
		s.codePos++
		if s.codePos >= s.prof.codeLines() {
			s.codePos = 0
		}
		a := line.WordAddr(0)
		return mem.Access{Addr: a, PC: a, Kind: mem.IFetch}, true
	}
	if s.idx >= len(s.pending.words) {
		//ldis:alloc-ok interface dispatch; every next implementation carries its own //ldis:noalloc annotation below
		s.pending = s.visitor.next()
		s.idx = 0
		if len(s.pending.words) == 0 {
			// Defensive: a visit must touch at least one word.
			s.pending.words = firstWordOnly
		}
	}
	w := s.pending.words[s.idx]
	s.idx++

	s.gapAcc += s.gap
	instret := uint32(s.gapAcc)
	s.gapAcc -= float64(instret)
	s.ifetchAcc += float64(instret) * s.prof.L1IMPKI / 1000

	s.rng = splitmix64(s.rng)
	kind := mem.Load
	if float64(s.rng>>11)/(1<<53) < s.prof.StoreFrac {
		kind = mem.Store
	}
	return mem.Access{
		Addr:    s.pending.line.WordAddr(w),
		PC:      s.pending.pc,
		Kind:    kind,
		Instret: instret,
	}, true
}

// NextBatch implements trace.BatchStream natively: the batched
// pipeline calls the concrete Next in a loop, so the per-access
// interface dispatch of the scalar Stream path disappears.
//
//ldis:noalloc
func (s *profileStream) NextBatch(dst []mem.Access) int {
	for i := range dst {
		a, ok := s.Next()
		if !ok {
			return i
		}
		dst[i] = a
	}
	return len(dst)
}

// registry of named profiles, populated in benchmarks.go.
var registry = map[string]*Profile{}

func register(p *Profile) *Profile {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	if _, dup := registry[p.Name]; dup {
		panic(fmt.Sprintf("workload: duplicate profile %q", p.Name))
	}
	registry[p.Name] = p
	return p
}

// ByName returns the named profile, or an error listing what exists.
func ByName(name string) (*Profile, error) {
	p, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("workload: unknown benchmark %q (have %v)", name, Names())
	}
	return p, nil
}

// Names lists all registered profiles in sorted order.
func Names() []string {
	names := make([]string, 0, len(registry))
	//ldis:nondet-ok key collection only; the slice is sorted immediately below
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
