package partition

import (
	"fmt"
	"math"
	"math/bits"
	"reflect"
	"testing"

	"ldis/internal/cache"
	"ldis/internal/mem"
)

func TestEqualSplit(t *testing.T) {
	cases := []struct {
		ways int
		n    int
		want []int
	}{
		{16, 2, []int{8, 8}},
		{16, 3, []int{6, 5, 5}},
		{7, 4, []int{2, 2, 2, 1}},
	}
	for _, tc := range cases {
		out := make([]int, tc.n)
		equalSplit(tc.ways, out)
		for i, w := range tc.want {
			if out[i] != w {
				t.Errorf("equalSplit(%d, n=%d) = %v, want %v", tc.ways, tc.n, out, tc.want)
				break
			}
		}
	}
}

func TestStaticShares(t *testing.T) {
	out := make([]int, 3)
	Static{}.Allocate(nil, 10, 1, out)
	if out[0]+out[1]+out[2] != 10 {
		t.Fatalf("equal static allocation %v does not sum to 10", out)
	}
	Static{Shares: []int{7, 2, 1}}.Allocate(nil, 10, 1, out)
	if out[0] != 7 || out[1] != 2 || out[2] != 1 {
		t.Fatalf("fixed static allocation %v, want [7 2 1]", out)
	}
}

// flatCurve returns a demand curve with constant misses (no benefit
// from extra ways); cliffCurve drops all misses once `knee` ways are
// granted.
func flatCurve(ways int, misses float64) []float64 {
	d := make([]float64, ways+1)
	for i := range d {
		d[i] = misses
	}
	return d
}

func cliffCurve(ways, knee int, misses float64) []float64 {
	d := make([]float64, ways+1)
	for i := range d {
		if i < knee {
			d[i] = misses
		}
	}
	return d
}

func TestLookaheadPrefersUtility(t *testing.T) {
	// Tenant 0 stops missing entirely at 6 ways; tenant 1 gains nothing
	// from capacity. Lookahead must push tenant 0 to its knee and leave
	// tenant 1 at the floor.
	const ways = 8
	demands := [][]float64{cliffCurve(ways, 6, 1000), flatCurve(ways, 1000)}
	out := make([]int, 2)
	lookahead(demands, ways, 1, out)
	if out[0] < 6 {
		t.Errorf("lookahead granted tenant 0 only %d ways, want >= its knee 6 (alloc %v)", out[0], out)
	}
	if out[0]+out[1] != ways {
		t.Errorf("allocation %v does not sum to %d", out, ways)
	}
	if out[1] < 1 {
		t.Errorf("tenant 1 starved below the floor: %v", out)
	}
}

func TestLookaheadSeesPastFlatRegions(t *testing.T) {
	// The curve is flat until a cliff at 5 ways: one-way-at-a-time
	// marginal utility would see zero gain everywhere and split the
	// ways arbitrarily; lookahead's multi-way blocks see the cliff.
	const ways = 8
	demands := [][]float64{cliffCurve(ways, 5, 100), flatCurve(ways, 100)}
	out := make([]int, 2)
	lookahead(demands, ways, 1, out)
	if out[0] < 5 {
		t.Errorf("lookahead missed the distant cliff: alloc %v, want tenant 0 >= 5", out)
	}
}

func TestLookaheadDeterministicTies(t *testing.T) {
	// Identical curves: ties must break identically on every run.
	const ways = 9
	demands := [][]float64{cliffCurve(ways, 3, 10), cliffCurve(ways, 3, 10), cliffCurve(ways, 3, 10)}
	first := make([]int, 3)
	lookahead(demands, ways, 1, first)
	sum := 0
	for _, w := range first {
		sum += w
	}
	if sum != ways {
		t.Fatalf("tie allocation %v does not sum to %d", first, ways)
	}
	out := make([]int, 3)
	for i := 0; i < 10; i++ {
		lookahead(demands, ways, 1, out)
		for t2 := range out {
			if out[t2] != first[t2] {
				t.Fatalf("run %d allocation %v differs from first %v", i, out, first)
			}
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range PolicyNames {
		p, ok := ByName(name)
		if !ok || p.Name() != name {
			t.Errorf("ByName(%q) = %v, %v", name, p, ok)
		}
	}
	if _, ok := ByName("nope"); ok {
		t.Error("ByName accepted an unknown policy")
	}
}

func TestScaleAlloc(t *testing.T) {
	cases := []struct {
		alloc  []int
		target int
		min    int
		want   []int
	}{
		{[]int{8, 8}, 12, 1, []int{6, 6}},
		{[]int{12, 4}, 12, 1, []int{9, 3}},      // exact 3:1 proportions
		{[]int{16, 0}, 4, 1, []int{3, 1}},       // zero share still gets the floor
		{[]int{0, 0, 0}, 6, 1, []int{2, 2, 2}},  // zero total degrades to equal
		{[]int{4, 4, 8}, 4, 1, []int{1, 1, 2}},  // heavy compression keeps proportions
		{[]int{15, 1}, 16, 1, []int{15, 1}},     // identity when sizes match
		{[]int{5, 5, 6}, 16, 1, []int{5, 5, 6}}, // identity across remainders
	}
	for _, tc := range cases {
		out := make([]int, len(tc.alloc))
		ScaleAlloc(tc.alloc, tc.target, tc.min, out)
		sum := 0
		for i, w := range out {
			sum += w
			if w < tc.min {
				t.Errorf("ScaleAlloc(%v, %d) = %v: tenant %d below floor %d", tc.alloc, tc.target, out, i, tc.min)
			}
		}
		if sum != tc.target {
			t.Errorf("ScaleAlloc(%v, %d) = %v: sums to %d", tc.alloc, tc.target, out, sum)
		}
		for i := range tc.want {
			if out[i] != tc.want[i] {
				t.Errorf("ScaleAlloc(%v, %d) = %v, want %v", tc.alloc, tc.target, out, tc.want)
				break
			}
		}
	}
}

func TestWayMasksDisjointCover(t *testing.T) {
	alloc := []int{10, 4, 2}
	out := make([]uint64, 3)
	WayMasks(alloc, 4, out)
	var union uint64
	for i, m := range out {
		if m == 0 {
			t.Fatalf("tenant %d got an empty mask: %v", i, out)
		}
		if union&m != 0 {
			t.Fatalf("masks overlap: %v", out)
		}
		union |= m
	}
	if union != (1<<4)-1 {
		t.Fatalf("masks %v do not cover all 4 ways", out)
	}
	// The dominant tenant keeps the most ways after compression.
	if bits.OnesCount64(out[0]) < bits.OnesCount64(out[1]) {
		t.Fatalf("mask compression lost the demand ordering: %v", out)
	}
}

func TestWayMasksMoreTenantsThanWays(t *testing.T) {
	alloc := []int{4, 4, 4, 4, 4}
	out := make([]uint64, 5)
	WayMasks(alloc, 2, out)
	for i, m := range out {
		if bits.OnesCount64(m) != 1 {
			t.Fatalf("tenant %d mask %b not a single shared way: %v", i, m, out)
		}
		if m != 1<<uint(i%2) {
			t.Fatalf("round-robin sharing broken: %v", out)
		}
	}
}

// drive feeds each tenant a cyclic working set of the given line count
// (full-line word usage unless words[t] restricts it) for total
// accesses, round-robin across tenants.
func drive(c *Controller, lines []int, words []int, total int) {
	n := len(lines)
	pos := make([]int, n)
	for i := 0; i < total; i++ {
		t := i % n
		line := mem.LineAddr(uint64(t)<<32 | uint64(pos[t]%lines[t]))
		w := pos[t] % mem.WordsPerLine
		if words != nil && words[t] > 0 {
			w = pos[t] % words[t]
		}
		c.Observe(t, line, w)
		pos[t]++
	}
}

func testConfig(policy Policy) Config {
	return Config{
		Tenants:       2,
		TotalWays:     8,
		WayBytes:      1024, // 16 lines per way
		EpochAccesses: 2048,
		Policy:        policy,
		SampleRate:    1, // exact online engines: deterministic small-N tests
		AccessBudget:  1 << 16,
	}
}

func TestControllerRebalances(t *testing.T) {
	cfg := testConfig(UCP{})
	c, err := NewController(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Tenant 0 cycles 96 lines (6 ways of reuse), tenant 1 cycles 16
	// (1 way): utility partitioning must move ways from 1 to 0.
	drive(c, []int{96, 16}, nil, 1<<14)
	if c.Epochs() == 0 {
		t.Fatal("no epochs elapsed")
	}
	if c.Rebalances() == 0 {
		t.Fatal("skewed demand never triggered a rebalance")
	}
	alloc := c.Alloc()
	if alloc[0] <= alloc[1] {
		t.Fatalf("allocation %v did not favor the large working set", alloc)
	}
	if alloc[0]+alloc[1] != cfg.TotalWays {
		t.Fatalf("allocation %v does not sum to %d ways", alloc, cfg.TotalWays)
	}
	// Every logged decision must conserve ways too.
	for _, d := range c.Decisions() {
		if int(d.Adopted[0])+int(d.Adopted[1]) != cfg.TotalWays {
			t.Fatalf("epoch %d adopted %v ways", d.Epoch, d.Adopted)
		}
	}
}

func TestControllerHysteresisHolds(t *testing.T) {
	cfg := testConfig(UCP{})
	// The skewed streams offer a near-total predicted saving (the large
	// tenant stops missing entirely once it fits), so any band below 1
	// is cleared legitimately; a band above 1 is unclearable.
	cfg.Hysteresis = 1.1
	c, err := NewController(cfg)
	if err != nil {
		t.Fatal(err)
	}
	drive(c, []int{96, 16}, nil, 1<<14)
	if c.Epochs() == 0 {
		t.Fatal("no epochs elapsed")
	}
	if c.Rebalances() != 0 {
		t.Fatalf("%d rebalances adopted through a 0.99 hysteresis band", c.Rebalances())
	}
	a := c.Alloc()
	if a[0] != 4 || a[1] != 4 {
		t.Fatalf("allocation drifted to %v despite hysteresis", a)
	}
	// The decisions still record what the policy wanted.
	last := c.Decisions()[len(c.Decisions())-1]
	if last.Proposed[0] <= last.Proposed[1] {
		t.Fatalf("proposal %v did not favor the large working set", last.Proposed)
	}
}

func TestControllerShadowAgrees(t *testing.T) {
	cfg := testConfig(UCP{})
	cfg.Shadow = true
	// Online engines are exact here (SampleRate 1), so the shadow
	// comparison must agree perfectly.
	c, err := NewController(cfg)
	if err != nil {
		t.Fatal(err)
	}
	drive(c, []int{96, 16}, nil, 1<<14)
	agree, total := c.Agreement()
	if total != c.Epochs() {
		t.Fatalf("validated %d epochs of %d", total, c.Epochs())
	}
	if agree != total {
		t.Fatalf("exact online engines disagreed with exact shadow: %d/%d", agree, total)
	}
}

func TestControllerGrainsDiffer(t *testing.T) {
	// Tenant 0 cycles 96 lines but only ever touches word 0: at line
	// grain it needs 6 of the 8 ways (and, with the nearer cliff, wins
	// the contested ways from tenant 1's 111-line set, whose cliff at 7
	// ways is more expensive to reach). At word grain tenant 0's
	// distilled footprint fits in one way, so the same lookahead hands
	// the ways to tenant 1 instead. The per-epoch log must show the
	// grains disagreeing, and the word-grain policy must adopt the
	// tenant-1-heavy split.
	cfg := testConfig(LDISAware{})
	c, err := NewController(cfg)
	if err != nil {
		t.Fatal(err)
	}
	drive(c, []int{96, 111}, []int{1, 0}, 1<<14)
	if c.GrainDisagreements() == 0 {
		t.Fatal("word-sparse tenant never changed the word-grain allocation")
	}
	alloc := c.Alloc()
	if alloc[1] <= alloc[0] {
		t.Fatalf("word-grain policy allocation %v did not favor the full-word tenant", alloc)
	}
}

func TestControllerSampledTracksExact(t *testing.T) {
	// Default SHARDS sampling with a realistic seed must land within
	// one way of the exact allocation on most epochs — the property the
	// partition smoke gate asserts at experiment scale.
	cfg := testConfig(UCP{})
	cfg.SampleRate = 0.25
	cfg.Shadow = true
	cfg.Seed = 42
	c, err := NewController(cfg)
	if err != nil {
		t.Fatal(err)
	}
	drive(c, []int{96, 16}, nil, 1<<15)
	agree, total := c.Agreement()
	if total == 0 {
		t.Fatal("no validated epochs")
	}
	if float64(agree) < 0.9*float64(total) {
		t.Fatalf("sampled allocation agreed with exact on only %d/%d epochs", agree, total)
	}
}

// curveStatic is Static under another type, so the controller cannot
// tell that it ignores the curves and builds its exact engines.
type curveStatic struct{ Static }

// TestStaticShadowNeedsNoEngines checks that a Shadow controller under
// Static, which builds no exact engines, records exactly what it
// records with them: every decision, the agreement tally, the grain
// disagreements and each tenant's curves.
func TestStaticShadowNeedsNoEngines(t *testing.T) {
	mixes := []struct {
		lines, words, shares []int
	}{
		{[]int{96, 111}, []int{1, 0}, []int{5, 3}},
		{[]int{96, 16, 48, 111}, []int{1, 0, 2, 0}, []int{3, 2, 2, 1}},
	}
	for _, mix := range mixes {
		for _, shares := range [][]int{nil, mix.shares} {
			for _, rate := range []float64{1, 0.25} {
				name := fmt.Sprintf("%d-tenants/shares=%v/rate=%g", len(mix.lines), shares, rate)
				var ctrls [2]*Controller
				for i, policy := range []Policy{Static{Shares: shares}, curveStatic{Static{Shares: shares}}} {
					cfg := testConfig(policy)
					cfg.Tenants = len(mix.lines)
					cfg.SampleRate = rate
					cfg.Seed = 42
					cfg.Shadow = true
					c, err := NewController(cfg)
					if err != nil {
						t.Fatal(err)
					}
					drive(c, mix.lines, mix.words, 1<<14)
					ctrls[i] = c
				}
				plain, engines := ctrls[0], ctrls[1]
				if len(plain.exact) != 0 || len(engines.exact) != len(mix.lines) {
					t.Fatalf("%s: %d exact engines under Static, %d under its wrapper; want 0 and %d",
						name, len(plain.exact), len(engines.exact), len(mix.lines))
				}
				pd, ed := plain.Decisions(), engines.Decisions()
				if len(pd) == 0 || len(pd) != len(ed) {
					t.Fatalf("%s: %d decisions without exact engines, %d with", name, len(pd), len(ed))
				}
				for i := range pd {
					if pd[i] != ed[i] {
						t.Fatalf("%s: epoch %d decision %+v without exact engines, %+v with", name, pd[i].Epoch, pd[i], ed[i])
					}
				}
				pa, pt := plain.Agreement()
				ea, et := engines.Agreement()
				if pa != ea || pt != et || pt != plain.Epochs() {
					t.Errorf("%s: agreement %d/%d without exact engines, %d/%d with, over %d epochs", name, pa, pt, ea, et, plain.Epochs())
				}
				if pg, eg := plain.GrainDisagreements(), engines.GrainDisagreements(); pg != eg {
					t.Errorf("%s: %d grain disagreements without exact engines, %d with", name, pg, eg)
				}
				for tn := range mix.lines {
					pl, pw := plain.Curves(tn, "t")
					el, ew := engines.Curves(tn, "t")
					if !reflect.DeepEqual(pl, el) || !reflect.DeepEqual(pw, ew) {
						t.Errorf("%s: tenant %d curves differ without exact engines", name, tn)
					}
				}
			}
		}
	}
}

func TestConfigValidation(t *testing.T) {
	base := testConfig(UCP{})
	bad := []func(*Config){
		func(c *Config) { c.Tenants = 1 },
		func(c *Config) { c.Tenants = MaxTenants + 1 },
		func(c *Config) { c.TotalWays = 1 },
		func(c *Config) { c.TotalWays = cache.MaxPartitionWays + 1 },
		func(c *Config) { c.WayBytes = 32 },
		func(c *Config) { c.EpochAccesses = 0 },
		func(c *Config) { c.Policy = nil },
		func(c *Config) { c.Hysteresis = -0.5 },
		func(c *Config) { c.DecayAlpha = 1.5 },
		func(c *Config) { c.DecayAlpha = math.NaN() },
		func(c *Config) { c.Hysteresis = math.NaN() },
		func(c *Config) { c.Hysteresis = math.Inf(1) },
		func(c *Config) { c.MinWays = -1 },
		func(c *Config) { c.AccessBudget = 0 },
	}
	for i, mutate := range bad {
		cfg := base
		mutate(&cfg)
		if _, err := NewController(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	if _, err := NewController(base); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

// TestEpochDecisionAllocs pins the controller's per-epoch decision
// path: once constructed, a full epoch of Observe calls — including
// the endEpoch boundary with curve fills, both policy runs, hysteresis
// and the decision append — performs zero heap allocations.
func TestEpochDecisionAllocs(t *testing.T) {
	cfg := testConfig(UCP{})
	cfg.EpochAccesses = 256
	cfg.Shadow = true
	c, err := NewController(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Warm one epoch so the engines' tables reach steady state.
	drive(c, []int{96, 16}, nil, cfg.EpochAccesses)
	pos := 0
	avg := testing.AllocsPerRun(20, func() {
		for i := 0; i < cfg.EpochAccesses; i++ {
			tn := i % 2
			lines := 96
			if tn == 1 {
				lines = 16
			}
			c.Observe(tn, mem.LineAddr(uint64(tn)<<32|uint64(pos%lines)), pos%mem.WordsPerLine)
			pos++
		}
	})
	if avg != 0 {
		t.Errorf("epoch decision path allocates %.2f times per epoch, want 0", avg)
	}
}
