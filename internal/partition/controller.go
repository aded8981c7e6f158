package partition

import (
	"fmt"
	"math"

	"ldis/internal/cache"
	"ldis/internal/mem"
	"ldis/internal/mrc"
	"ldis/internal/obs"
)

// MaxTenants bounds the tenants one controller can manage. It is the
// caches' tenant bound, so every allocation the controller emits is
// enforceable, and lets the per-epoch Decision record use fixed arrays
// instead of allocating.
const MaxTenants = cache.MaxPartitionTenants

// Config parameterizes one Controller.
type Config struct {
	// Tenants is the number of sharers (2..MaxTenants).
	Tenants int
	// TotalWays is the shared cache's associativity being divided.
	TotalWays int
	// WayBytes is the capacity one way represents (sets × 64B); it is
	// also the resolution of the demand curves, so allocations map
	// one-to-one onto curve points.
	WayBytes int
	// EpochAccesses is the epoch length in Observe calls summed across
	// tenants; every epoch ends with one allocation decision.
	EpochAccesses int
	// Policy converts demand curves into allocations.
	Policy Policy
	// MinWays floors every tenant's allocation; 0 means 1 (no tenant is
	// ever starved to zero ways).
	MinWays int
	// Hysteresis is the minimum predicted fractional miss saving a new
	// allocation must offer before it is adopted; 0 means the default
	// 0.02. Repartitioning is not free in hardware (quota drain churns
	// the sets), so allocations within the band stay put.
	Hysteresis float64
	// DecayAlpha scales the curve histograms at each epoch boundary
	// (exponential sliding window); 0 means the default 0.5.
	DecayAlpha float64
	// Shadow additionally runs exact-Mattson engines beside the sampled
	// ones and records, per epoch, the allocation the exact curves
	// would pick — the online-vs-exact validation the partition smoke
	// gate asserts on. A policy that ignores the curves (Static) gets
	// no exact engines: its exact decision is its own split, computed
	// without them, and its epochs still count in Agreement.
	Shadow bool
	// SampleRate is the SHARDS rate of the online engines; 0 means the
	// default 0.1.
	SampleRate float64
	// MaxSamples bounds concurrently tracked lines per online engine
	// (SHARDS fixed-size mode); 0 means the default 16384.
	MaxSamples int
	// Seed perturbs the engines' spatial hashes; each tenant's engine
	// is salted independently from it.
	Seed uint64
	// AccessBudget is the maximum total Observe calls over the
	// controller's lifetime; it sizes only the decision log. The MRC
	// engines do not depend on it: a fixed-size SHARDS engine (any
	// SampleRate below 1) allocates its whole MaxSamples sample in
	// mrc.New, about 950 KB at the default 16K, and only an exact
	// engine (SampleRate 1, or a Shadow engine) grows with its
	// tenant's live lines.
	AccessBudget int
	// Obs, when non-nil, receives the epoch/rebalance counters and the
	// rebalance span timings for the owning grid cell.
	Obs *obs.Cell
}

func (c Config) minWays() int {
	if c.MinWays == 0 {
		return 1
	}
	return c.MinWays
}

func (c Config) hysteresis() float64 {
	if c.Hysteresis == 0 {
		return 0.02
	}
	return c.Hysteresis
}

func (c Config) decayAlpha() float64 {
	if c.DecayAlpha == 0 {
		return 0.5
	}
	return c.DecayAlpha
}

func (c Config) sampleRate() float64 {
	if c.SampleRate == 0 {
		return 0.1
	}
	return c.SampleRate
}

func (c Config) maxSamples() int {
	if c.MaxSamples == 0 {
		return 16 << 10
	}
	return c.MaxSamples
}

func (c Config) validate() error {
	if c.Tenants < 2 || c.Tenants > MaxTenants {
		return fmt.Errorf("partition: %d tenants outside [2, %d]", c.Tenants, MaxTenants)
	}
	if c.MinWays < 0 {
		return fmt.Errorf("partition: negative minimum ways %d", c.MinWays)
	}
	if c.TotalWays > cache.MaxPartitionWays {
		return fmt.Errorf("partition: %d ways above the caches' partition bound %d", c.TotalWays, cache.MaxPartitionWays)
	}
	if c.TotalWays < c.Tenants*c.minWays() {
		return fmt.Errorf("partition: %d ways cannot grant %d tenants %d each", c.TotalWays, c.Tenants, c.minWays())
	}
	if c.WayBytes < mem.LineSize {
		return fmt.Errorf("partition: way capacity %dB below the line size", c.WayBytes)
	}
	if c.EpochAccesses <= 0 {
		return fmt.Errorf("partition: non-positive epoch length %d", c.EpochAccesses)
	}
	if c.Policy == nil {
		return fmt.Errorf("partition: nil policy")
	}
	if !(c.Hysteresis >= 0) || math.IsInf(c.Hysteresis, 1) {
		return fmt.Errorf("partition: hysteresis %g is not a finite non-negative fraction", c.Hysteresis)
	}
	if !(c.DecayAlpha >= 0 && c.DecayAlpha <= 1) {
		return fmt.Errorf("partition: decay %g outside [0, 1]", c.DecayAlpha)
	}
	if c.AccessBudget <= 0 {
		return fmt.Errorf("partition: non-positive access budget %d", c.AccessBudget)
	}
	return nil
}

// Decision records one epoch boundary: what the policy proposed from
// the online curves, what is in force after hysteresis, and (under
// Shadow) what the exact curves would have picked. Fixed arrays keep
// the record allocation-free; entries beyond the tenant count are zero.
type Decision struct {
	Epoch int
	// Proposed is the policy's allocation from the online (sampled)
	// curves; Adopted is the allocation in force afterwards.
	Proposed [MaxTenants]uint8
	Adopted  [MaxTenants]uint8
	// Exact is the policy's allocation from the shadow exact curves
	// (valid only when the controller runs with Shadow).
	Exact [MaxTenants]uint8
	// LineAlloc and WordAlloc are the lookahead allocations at each
	// grain — the per-epoch evidence of where distillation changes the
	// decision.
	LineAlloc [MaxTenants]uint8
	WordAlloc [MaxTenants]uint8
	// Changed reports whether Proposed cleared the hysteresis band and
	// was adopted.
	Changed bool
	// AgreeWithin1 reports whether Proposed and Exact agree within one
	// way on every tenant (valid under Shadow).
	AgreeWithin1 bool
	// GrainsDiffer reports whether LineAlloc and WordAlloc differ.
	GrainsDiffer bool
	// PredictedSaving is the fractional miss reduction Proposed
	// promised over keeping the current allocation.
	PredictedSaving float64
}

// Controller drives the epoch loop: Observe feeds tenant accesses
// through the curve engines; every EpochAccesses accesses it re-runs
// the policy and, past hysteresis, adopts a new allocation. All state
// is preallocated at construction — the per-epoch decision path does
// not allocate (pinned by AllocsPerRun) — and nothing here uses
// goroutines, maps, or the wall clock, so controllers are
// deterministic at any scheduling.
type Controller struct {
	cfg     Config
	n       int
	engines []*mrc.Engine // online SHARDS-sampled, one per tenant
	exact   []*mrc.Engine // shadow exact engines (nil without Shadow or under Static)

	alloc     []int // allocation in force
	epochRefs []float64
	seen      int
	epoch     int

	rebalances   int
	shadowEpochs int
	agreeEpochs  int
	grainDiffers int

	decisions []Decision

	// Per-epoch scratch, preallocated: miss-ratio and demand vectors
	// (length TotalWays+1 each) and proposal slices.
	lineRatios, wordRatios [][]float64
	lineDemand, wordDemand [][]float64
	exactDemand            [][]float64
	proposed, exactProp    []int
	lineProp, wordProp     []int

	spans         *obs.Spans
	obsEpochs     *obs.Counter
	obsRebalances *obs.Counter
	obsAgree      *obs.Counter
}

// NewController builds a controller with the initial allocation set to
// the equal split.
func NewController(cfg Config) (*Controller, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	n := cfg.Tenants
	c := &Controller{
		cfg:       cfg,
		n:         n,
		engines:   make([]*mrc.Engine, n),
		alloc:     make([]int, n),
		epochRefs: make([]float64, n),
		decisions: make([]Decision, 0, cfg.AccessBudget/cfg.EpochAccesses+2),
		proposed:  make([]int, n),
		lineProp:  make([]int, n),
		wordProp:  make([]int, n),
	}
	ecfg := mrc.Config{
		MaxBytes:        cfg.TotalWays * cfg.WayBytes,
		ResolutionBytes: cfg.WayBytes,
		SampleRate:      cfg.sampleRate(),
	}
	if ecfg.SampleRate < 1 {
		// Fixed-size SHARDS only applies below rate 1; an exact online
		// engine (SampleRate ≥ 1, used by tests) takes no sample cap.
		ecfg.MaxSamples = cfg.maxSamples()
	}
	// The budget sizes only the decision log above. A fixed-size engine
	// allocates its whole sample here (about 950 KB at the default 16K
	// samples) however the tenants' streams interleave; an exact one
	// grows with its tenant's live lines.
	for t := 0; t < n; t++ {
		ecfg.Seed = cfg.Seed + uint64(t)*0x9e3779b97f4a7c15
		eng, err := mrc.New(ecfg)
		if err != nil {
			return nil, err
		}
		c.engines[t] = eng
	}
	// Static ignores the curves, so its shadow decision needs no exact
	// engines: Allocate on the unfilled exactDemand returns its split.
	if _, static := cfg.Policy.(Static); cfg.Shadow && !static {
		c.exact = make([]*mrc.Engine, n)
		xcfg := mrc.Config{MaxBytes: ecfg.MaxBytes, ResolutionBytes: ecfg.ResolutionBytes}
		for t := 0; t < n; t++ {
			eng, err := mrc.New(xcfg)
			if err != nil {
				return nil, err
			}
			c.exact[t] = eng
		}
	}
	if cfg.Shadow {
		c.exactDemand = makeVectors(n, cfg.TotalWays+1)
		c.exactProp = make([]int, n)
	}
	c.lineRatios = makeVectors(n, cfg.TotalWays+1)
	c.wordRatios = makeVectors(n, cfg.TotalWays+1)
	c.lineDemand = makeVectors(n, cfg.TotalWays+1)
	c.wordDemand = makeVectors(n, cfg.TotalWays+1)
	equalSplit(cfg.TotalWays, c.alloc)
	c.spans = cfg.Obs.Spans()
	c.obsEpochs = cfg.Obs.Counter("partition_epochs")
	c.obsRebalances = cfg.Obs.Counter("partition_rebalances")
	c.obsAgree = cfg.Obs.Counter("partition_agree_epochs")
	return c, nil
}

// makeVectors carves n float64 vectors of the given width out of one
// backing array.
func makeVectors(n, width int) [][]float64 {
	backing := make([]float64, n*width)
	out := make([][]float64, n)
	for i := range out {
		out[i] = backing[i*width : (i+1)*width : (i+1)*width]
	}
	return out
}

// Observe feeds one data access by the given tenant through its curve
// engines and advances the epoch clock. It returns true when this
// access closed an epoch whose decision changed the allocation — the
// caller's cue to re-read Alloc and push new quotas into the enforced
// caches.
func (c *Controller) Observe(tenant int, line mem.LineAddr, word int) bool {
	c.engines[tenant].Access(line, word)
	if c.exact != nil {
		c.exact[tenant].Access(line, word)
	}
	c.epochRefs[tenant]++
	c.seen++
	if c.seen >= c.cfg.EpochAccesses {
		return c.endEpoch()
	}
	return false
}

// endEpoch runs one allocation decision: fill both grains' miss-ratio
// vectors, scale them by the epoch's per-tenant reference counts into
// expected-miss demands, run the policy, and adopt its proposal iff it
// differs and clears the hysteresis band. Under Shadow the policy
// re-runs on the exact curves for the agreement metric (on unfilled
// vectors for a policy that ignores them), and every engine decays so
// the next epoch sees a recency-weighted window.
func (c *Controller) endEpoch() bool {
	tok := c.spans.Begin(obs.StageRebalance)
	c.epoch++
	min := c.cfg.minWays()
	for t := 0; t < c.n; t++ {
		c.engines[t].FillLineMissRatios(c.lineRatios[t], c.cfg.WayBytes)
		c.engines[t].FillWordMissRatios(c.wordRatios[t], c.cfg.WayBytes)
		refs := c.epochRefs[t]
		for w := range c.lineDemand[t] {
			c.lineDemand[t][w] = c.lineRatios[t][w] * refs
			c.wordDemand[t][w] = c.wordRatios[t][w] * refs
		}
	}
	demands := c.lineDemand
	if c.cfg.Policy.Grain() == GrainWord {
		demands = c.wordDemand
	}
	c.cfg.Policy.Allocate(demands, c.cfg.TotalWays, min, c.proposed)
	lookahead(c.lineDemand, c.cfg.TotalWays, min, c.lineProp)
	lookahead(c.wordDemand, c.cfg.TotalWays, min, c.wordProp)

	keep, move := 0.0, 0.0
	differs := false
	for t := 0; t < c.n; t++ {
		keep += demands[t][c.alloc[t]]
		move += demands[t][c.proposed[t]]
		if c.proposed[t] != c.alloc[t] {
			differs = true
		}
	}
	saving := 0.0
	if keep > 0 {
		saving = (keep - move) / keep
	}
	changed := differs && saving >= c.cfg.hysteresis()

	d := Decision{Epoch: c.epoch, PredictedSaving: saving, Changed: changed}
	for t := 0; t < c.n; t++ {
		d.Proposed[t] = uint8(c.proposed[t])
		d.LineAlloc[t] = uint8(c.lineProp[t])
		d.WordAlloc[t] = uint8(c.wordProp[t])
		if c.lineProp[t] != c.wordProp[t] {
			d.GrainsDiffer = true
		}
	}
	if d.GrainsDiffer {
		c.grainDiffers++
	}
	if changed {
		copy(c.alloc, c.proposed)
		c.rebalances++
		c.obsRebalances.Inc()
	}
	for t := 0; t < c.n; t++ {
		d.Adopted[t] = uint8(c.alloc[t])
	}

	if c.cfg.Shadow {
		for t, eng := range c.exact {
			if c.cfg.Policy.Grain() == GrainWord {
				eng.FillWordMissRatios(c.exactDemand[t], c.cfg.WayBytes)
			} else {
				eng.FillLineMissRatios(c.exactDemand[t], c.cfg.WayBytes)
			}
			refs := c.epochRefs[t]
			for w := range c.exactDemand[t] {
				c.exactDemand[t][w] *= refs
			}
		}
		c.cfg.Policy.Allocate(c.exactDemand, c.cfg.TotalWays, min, c.exactProp)
		agree := true
		for t := 0; t < c.n; t++ {
			d.Exact[t] = uint8(c.exactProp[t])
			if diff := c.exactProp[t] - c.proposed[t]; diff > 1 || diff < -1 {
				agree = false
			}
		}
		d.AgreeWithin1 = agree
		c.shadowEpochs++
		if agree {
			c.agreeEpochs++
			c.obsAgree.Inc()
		}
	}

	if len(c.decisions) == cap(c.decisions) {
		panic("partition: decision log overflow; size Config.AccessBudget with the full trace length")
	}
	c.decisions = append(c.decisions, d)

	alpha := c.cfg.decayAlpha()
	for t := 0; t < c.n; t++ {
		c.engines[t].DecayCounts(alpha)
		if c.exact != nil {
			c.exact[t].DecayCounts(alpha)
		}
		c.epochRefs[t] = 0
	}
	c.seen = 0
	c.obsEpochs.Inc()
	c.spans.End(obs.StageRebalance, tok)
	return changed
}

// Alloc returns the allocation currently in force (live slice; callers
// must not modify it).
func (c *Controller) Alloc() []int { return c.alloc }

// Decisions returns every epoch decision so far (live slice).
func (c *Controller) Decisions() []Decision { return c.decisions }

// Epochs returns how many epoch decisions have run.
func (c *Controller) Epochs() int { return c.epoch }

// Rebalances returns how many decisions changed the allocation.
func (c *Controller) Rebalances() int { return c.rebalances }

// Agreement returns the shadow validation tally: epochs where the
// online proposal matched the exact one within one way on every
// tenant, over the epochs validated (zero-zero without Shadow).
func (c *Controller) Agreement() (agree, total int) {
	return c.agreeEpochs, c.shadowEpochs
}

// GrainDisagreements returns how many epochs picked different
// allocations at line vs word grain — where distillation changed the
// decision.
func (c *Controller) GrainDisagreements() int { return c.grainDiffers }

// Curves returns the named line- and word-grain curves of one tenant's
// online engine (the decayed sliding-window view at the current
// moment).
func (c *Controller) Curves(tenant int, name string) (line, word mrc.Curve) {
	return c.engines[tenant].LineCurve(name + " line"), c.engines[tenant].WordCurve(name + " word")
}
