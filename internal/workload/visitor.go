package workload

import (
	"fmt"
	"math"

	"ldis/internal/mem"
)

// A visit is one touch of a line: the words accessed (in order) and the
// PC of the instruction stream region issuing it. words is a shared,
// read-only list (a maskWords subslice or a two-phase list); consumers
// never mutate it.
type visit struct {
	line  mem.LineAddr
	words []int
	pc    mem.Addr
}

// visitor produces an endless sequence of line visits. Implementations
// are deterministic given their construction seed.
type visitor interface {
	next() visit
}

// VisitorSpec describes an access pattern; build instantiates it against
// a seed and region base. Specs are plain data so profiles can be
// declared as literals.
type VisitorSpec interface {
	build(seed uint64, base mem.LineAddr) visitor
}

// burstState tracks, per visitor, which portion of a line's mask each
// visit touches. With Burst >= 8 a visit touches the whole mask; smaller
// bursts rotate through the mask across visits, modelling references
// that discover a line's words gradually (this is what makes footprints
// change at deeper recency positions in Figure 2).
type burstState struct {
	seed   uint64
	counts countCDF
	style  MaskStyle
	burst  int
	// visitCount rotates the burst window per line without per-line
	// storage: the rotation is derived from a global counter so repeated
	// visits see different windows.
	visitCount uint64
}

func newBurstState(seed uint64, d WordCountDist, style MaskStyle, burst int) burstState {
	return burstState{seed: seed, counts: d.cdf(), style: style, burst: burst}
}

// wordsOf returns the words a visit to line touches, as a subslice of
// the shared read-only maskWords table.
func (b *burstState) wordsOf(line mem.LineAddr) []int {
	ws := maskWords[maskFor(b.seed, line, &b.counts, b.style)]
	n := len(ws) / 2
	b.visitCount++
	if b.burst <= 0 || b.burst >= n {
		return ws[:n:n]
	}
	// Rotate a window of size burst through the mask, advancing with
	// each visit so successive visits to a line touch fresh words.
	start := int((b.visitCount ^ splitmix64(uint64(line))) % uint64(n))
	return ws[start : start+b.burst : start+b.burst]
}

// ---------------------------------------------------------------------
// Tiered working set
// ---------------------------------------------------------------------

// Tier is one nested level of a tiered working set: Frac of the visits
// go to the first Lines lines of the region. Tiers should be ordered
// hottest (smallest) first; any residual probability falls through to
// the last tier.
type Tier struct {
	Frac  float64
	Lines int
}

// TierSpec models a skewed working set (the common shape of the SPEC
// integer benchmarks): a hierarchy of nested hot sets. Cache-size
// sensitivity comes from tier sizes straddling the cache capacities
// under study.
type TierSpec struct {
	Tiers []Tier
	Words WordCountDist
	Style MaskStyle
	Burst int // words touched per visit; 0 or >=8 means the whole mask
	PCs   int // distinct PC values attributed to visits (min 1)
}

func (s TierSpec) build(seed uint64, base mem.LineAddr) visitor {
	if len(s.Tiers) == 0 {
		panic("workload: TierSpec needs at least one tier")
	}
	return &tierVisitor{
		spec: s,
		base: base,
		bs:   newBurstState(seed, s.Words, s.Style, s.Burst),
		rng:  splitmix64(seed ^ 0x7115),
	}
}

type tierVisitor struct {
	spec TierSpec
	base mem.LineAddr
	bs   burstState
	rng  uint64
}

func (v *tierVisitor) nextU64() uint64 {
	v.rng = splitmix64(v.rng)
	return v.rng
}

//ldis:noalloc
func (v *tierVisitor) next() visit {
	u := float64(v.nextU64()>>11) / (1 << 53)
	tier := v.spec.Tiers[len(v.spec.Tiers)-1]
	acc := 0.0
	for _, t := range v.spec.Tiers {
		acc += t.Frac
		if u < acc {
			tier = t
			break
		}
	}
	n := tier.Lines
	if n < 1 {
		n = 1
	}
	line := v.base + mem.LineAddr(v.nextU64()%uint64(n))
	pcs := v.spec.PCs
	if pcs < 1 {
		pcs = 1
	}
	pc := mem.Addr(0x400000) + mem.Addr(splitmix64(uint64(line))%uint64(pcs))*4
	return visit{line: line, words: v.bs.wordsOf(line), pc: pc}
}

// ---------------------------------------------------------------------
// Cyclic scan
// ---------------------------------------------------------------------

// ScanSpec models streaming/array codes: a sequential pass over Lines
// lines repeated cyclically (thrashing an LRU cache whenever the region
// exceeds capacity). Stride skips lines, modelling large-element
// traversal.
type ScanSpec struct {
	Lines  int
	Stride int // in lines; 0 means 1
	Words  WordCountDist
	Style  MaskStyle
	Burst  int
	PCs    int
}

func (s ScanSpec) build(seed uint64, base mem.LineAddr) visitor {
	if s.Lines <= 0 {
		panic("workload: ScanSpec needs Lines > 0")
	}
	stride := s.Stride
	if stride <= 0 {
		stride = 1
	}
	return &scanVisitor{
		spec:   s,
		stride: stride,
		base:   base,
		bs:     newBurstState(seed, s.Words, s.Style, s.Burst),
	}
}

type scanVisitor struct {
	spec   ScanSpec
	stride int
	base   mem.LineAddr
	pos    int
	lap    uint64
	bs     burstState
}

//ldis:noalloc
func (v *scanVisitor) next() visit {
	line := v.base + mem.LineAddr(v.pos)
	v.pos += v.stride
	if v.pos >= v.spec.Lines {
		v.pos = 0
		v.lap++
	}
	pcs := v.spec.PCs
	if pcs < 1 {
		pcs = 1
	}
	pc := mem.Addr(0x500000) + mem.Addr(splitmix64(uint64(line)>>4)%uint64(pcs))*4
	return visit{line: line, words: v.bs.wordsOf(line), pc: pc}
}

// ---------------------------------------------------------------------
// Two-phase footprint growth (the swim pattern)
// ---------------------------------------------------------------------

// TwoPhaseSpec reproduces the behaviour the paper singles out for swim
// (Section 7.1): a first touch uses one word of a line, and a second
// touch — a reuse distance later — uses all of them. When the second
// touch arrives before eviction the line's footprint becomes full; when
// the cache is too small, lines are evicted showing a single used word,
// which is exactly the situation where distillation backfires (the
// discarded words are referenced soon after, causing hole-misses).
//
// A LongFrac fraction of lines get the long reuse gap (GapLongLines),
// the rest the short gap (GapShortLines). Gaps are measured in lines of
// the scan, i.e. roughly in bytes/64 of reuse distance.
type TwoPhaseSpec struct {
	Lines         int
	GapShortLines int
	GapLongLines  int
	LongFrac      float64
	PCs           int
}

func (s TwoPhaseSpec) build(seed uint64, base mem.LineAddr) visitor {
	if s.Lines <= 0 {
		panic("workload: TwoPhaseSpec needs Lines > 0")
	}
	return &twoPhaseVisitor{spec: s, base: base, seed: seed}
}

type twoPhaseVisitor struct {
	spec  TwoPhaseSpec
	base  mem.LineAddr
	seed  uint64
	pos   int
	phase bool // alternate first-touch / full-touch visits
}

// Shared read-only word lists for the two-phase visitor's two visit
// shapes.
var (
	firstWordOnly = []int{0}
	fullLineWords = []int{0, 1, 2, 3, 4, 5, 6, 7}
)

//ldis:noalloc
func (v *twoPhaseVisitor) next() visit {
	pcs := v.spec.PCs
	if pcs < 1 {
		pcs = 1
	}
	if !v.phase {
		// First touch of line at pos: one word.
		v.phase = true
		line := v.base + mem.LineAddr(v.pos%v.spec.Lines)
		pc := mem.Addr(0x600000)
		return visit{line: line, words: firstWordOnly, pc: pc}
	}
	// Full touch of the line a gap behind.
	v.phase = false
	gap := v.spec.GapShortLines
	lineIdx := v.pos - gap
	h := splitmix64(uint64(v.pos-v.spec.GapLongLines) ^ v.seed)
	if float64(h>>11)/(1<<53) < v.spec.LongFrac {
		gap = v.spec.GapLongLines
		lineIdx = v.pos - gap
	}
	v.pos++
	if lineIdx < 0 {
		lineIdx += v.spec.Lines // wrap during warm-up
	}
	line := v.base + mem.LineAddr(lineIdx%v.spec.Lines)
	pc := mem.Addr(0x600100) + mem.Addr(splitmix64(uint64(line))%uint64(pcs))*4
	return visit{line: line, words: fullLineWords, pc: pc}
}

// ---------------------------------------------------------------------
// Mixtures
// ---------------------------------------------------------------------

// Component weights one sub-pattern of a mixture.
type Component struct {
	Frac float64
	Spec VisitorSpec
	// BaseOffsetLines places this component's region after the previous
	// component regions; if zero the component starts at the profile
	// base plus the cumulative offset chosen by MixSpec.
	RegionLines int
}

// MixSpec interleaves several sub-patterns, each in its own address
// region, chosen per visit with the given probabilities. It models
// programs with distinct phases/data structures (e.g. art's thrashing
// scan plus a hot computation kernel).
type MixSpec struct {
	Components []Component
}

func (s MixSpec) build(seed uint64, base mem.LineAddr) visitor {
	if len(s.Components) == 0 {
		panic("workload: MixSpec needs components")
	}
	mv := &mixVisitor{seed: splitmix64(seed ^ 0xa11ce)}
	offset := mem.LineAddr(0)
	for i, c := range s.Components {
		mv.fracs = append(mv.fracs, c.Frac)
		mv.subs = append(mv.subs, c.Spec.build(splitmix64(seed+uint64(i)*0x9e37), base+offset))
		region := c.RegionLines
		if region <= 0 {
			region = MB(16) // generous default separation
		}
		offset += mem.LineAddr(region)
	}
	return mv
}

type mixVisitor struct {
	fracs []float64
	subs  []visitor
	seed  uint64
}

//ldis:noalloc
func (v *mixVisitor) next() visit {
	v.seed = splitmix64(v.seed)
	u := float64(v.seed>>11) / (1 << 53)
	acc := 0.0
	for i, f := range v.fracs {
		acc += f
		if u < acc {
			//ldis:alloc-ok interface dispatch; every visitor's next carries its own //ldis:noalloc annotation
			return v.subs[i].next()
		}
	}
	//ldis:alloc-ok interface dispatch; every visitor's next carries its own //ldis:noalloc annotation
	return v.subs[len(v.subs)-1].next()
}

// SpecError reports a weight or fraction in a visitor spec that is
// negative, NaN or infinite. Samplers accumulate these values into
// cumulative boundaries, which are only meaningful when every term is
// finite and non-negative.
type SpecError struct {
	Spec  string  // spec type, e.g. "TierSpec"
	Field string  // offending field, e.g. "Words.Weights"
	Index int     // position within Field
	Value float64 // the rejected value
}

func (e *SpecError) Error() string {
	return fmt.Sprintf("%s %s[%d] = %v: want a finite, non-negative value", e.Spec, e.Field, e.Index, e.Value)
}

// checkWeight returns a SpecError unless v is finite and non-negative.
func checkWeight(spec, field string, i int, v float64) error {
	if v >= 0 && !math.IsInf(v, 1) {
		return nil
	}
	return &SpecError{Spec: spec, Field: field, Index: i, Value: v}
}

// checkWords validates a word-count distribution's weights.
func checkWords(spec string, d WordCountDist) error {
	for i, w := range d.Weights {
		if err := checkWeight(spec, "Words.Weights", i, w); err != nil {
			return err
		}
	}
	return nil
}

// validateSpec sanity-checks a spec tree; used by tests and the profile
// registry.
func validateSpec(s VisitorSpec) error {
	switch t := s.(type) {
	case TierSpec:
		if len(t.Tiers) == 0 {
			return fmt.Errorf("TierSpec without tiers")
		}
		for i, tier := range t.Tiers {
			if tier.Lines <= 0 {
				return fmt.Errorf("tier with %d lines", tier.Lines)
			}
			if err := checkWeight("TierSpec", "Tiers.Frac", i, tier.Frac); err != nil {
				return err
			}
		}
		return checkWords("TierSpec", t.Words)
	case ScanSpec:
		if t.Lines <= 0 {
			return fmt.Errorf("ScanSpec with %d lines", t.Lines)
		}
		return checkWords("ScanSpec", t.Words)
	case TwoPhaseSpec:
		if t.Lines <= 0 {
			return fmt.Errorf("TwoPhaseSpec with %d lines", t.Lines)
		}
		if t.GapShortLines < 0 || t.GapLongLines < 0 {
			return fmt.Errorf("TwoPhaseSpec with negative gap")
		}
	case MixSpec:
		if len(t.Components) == 0 {
			return fmt.Errorf("MixSpec without components")
		}
		for i, c := range t.Components {
			if err := checkWeight("MixSpec", "Components.Frac", i, c.Frac); err != nil {
				return err
			}
			if err := validateSpec(c.Spec); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("unknown spec type %T", s)
	}
	return nil
}
