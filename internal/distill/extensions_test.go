package distill

import (
	"math"
	"testing"

	"ldis/internal/mem"
	"ldis/internal/mrc"
)

func TestConfigExtensionValidation(t *testing.T) {
	bad := []Config{
		func() Config { c := tinyConfig(); c.StaticThreshold = -1; return c }(),
		func() Config { c := tinyConfig(); c.StaticThreshold = 9; return c }(),
		func() Config {
			c := tinyConfig()
			c.StaticThreshold = 2
			c.MedianThreshold = true
			return c
		}(),
		func() Config { c := tinyConfig(); c.FootprintNoise = -0.1; return c }(),
		func() Config { c := tinyConfig(); c.FootprintNoise = 1.5; return c }(),
		func() Config { c := tinyConfig(); c.FootprintNoise = math.NaN(); return c }(),
		func() Config { c := tinyConfig(); c.CopyBack = &CopyBackConfig{MaxSamples: -1}; return c }(),
		func() Config {
			c := tinyConfig()
			c.CopyBack = &CopyBackConfig{MaxSamples: mrc.MaxSamplesLimit + 1}
			return c
		}(),
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d should fail: %+v", i, c)
		}
	}
}

func TestStaticThresholdFilters(t *testing.T) {
	cfg := tinyConfig()
	cfg.StaticThreshold = 2
	d := New(cfg)
	lines := setLines(9)
	// 3 words used -> filtered out.
	d.Access(lines[0], 0, false)
	d.Access(lines[0], 1, false)
	d.Access(lines[0], 2, false)
	for _, l := range lines[1:4] {
		d.Access(l, 0, false)
	}
	if got := d.Present(lines[0]); got != "" {
		t.Errorf("3-word line in %q under K=2", got)
	}
	if d.Stats().ThresholdSkips != 1 {
		t.Errorf("ThresholdSkips = %d", d.Stats().ThresholdSkips)
	}
	// 2 words used -> admitted.
	d.Access(lines[4], 0, false)
	d.Access(lines[4], 1, false)
	for _, l := range lines[5:8] {
		d.Access(l, 0, false)
	}
	if got := d.Present(lines[4]); got != "woc" {
		t.Errorf("2-word line in %q under K=2", got)
	}
}

func TestWOCLRUKeepsRecentlyHitLines(t *testing.T) {
	cfg := tinyConfig()
	cfg.WOCLRU = true
	d := New(cfg)
	lines := setLines(16)
	// Distill lines[0] and lines[1] (1 word each) into the WOC.
	d.Access(lines[0], 0, false)
	d.Access(lines[1], 0, false)
	for _, l := range lines[2:5] {
		d.Access(l, 0, false)
	}
	if d.Present(lines[0]) != "woc" || d.Present(lines[1]) != "woc" {
		t.Skip("prerequisite distillation did not land both lines in WOC")
	}
	// Touch lines[0] in the WOC: it becomes the most recently used.
	d.Access(lines[0], 0, false)
	// Distill a full 8-slot line: with one way holding {0,1} and... the
	// LRU policy must prefer evicting regions with the oldest lines.
	// Fill the LOC with a line that used all 8 words, then push it out.
	for w := 0; w < 8; w++ {
		d.Access(lines[5], w, false)
	}
	for _, l := range lines[6:9] {
		d.Access(l, 0, false)
	}
	// lines[5] (8 slots) displaced one whole WOC way; the way holding
	// the most-recently-used lines[0] must survive if the other way was
	// older or empty.
	if d.Present(lines[0]) != "woc" {
		t.Logf("note: lines[0] displaced; acceptable only if it shared the chosen way")
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestWOCLRUAgainstRandomSimilarMisses(t *testing.T) {
	// The paper's footnote 4: random replacement performs similarly to
	// LRU in the WOC. Run the same pseudo-random workload under both
	// policies and require the miss counts to be within 15%.
	run := func(lru bool) uint64 {
		cfg := Config{
			Name: "p", SizeBytes: 64 * 8 * mem.LineSize, Ways: 8, WOCWays: 2,
			MedianThreshold: true, Seed: 9, WOCLRU: lru,
		}
		d := New(cfg)
		rng := uint64(42)
		next := func() uint64 {
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			return rng
		}
		for i := 0; i < 300000; i++ {
			d.Access(mem.LineAddr(next()%2048), int(next()%3), false)
		}
		return d.Stats().Misses()
	}
	rnd, lru := run(false), run(true)
	lo, hi := float64(rnd)*0.85, float64(rnd)*1.15
	if float64(lru) < lo || float64(lru) > hi {
		t.Errorf("LRU misses %d not within 15%% of random %d", lru, rnd)
	}
}

func TestFootprintNoiseWidensFootprints(t *testing.T) {
	clean := tinyConfig()
	noisy := tinyConfig()
	noisy.FootprintNoise = 1.0 // always add one extra word
	dClean, dNoisy := New(clean), New(noisy)
	rng := uint64(7)
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	for i := 0; i < 50000; i++ {
		la := mem.LineAddr(next() % 64)
		dClean.Access(la, 0, false)
		dNoisy.Access(la, 0, false)
	}
	mc := dClean.Stats().WordsUsedAtEvict.Mean()
	mn := dNoisy.Stats().WordsUsedAtEvict.Mean()
	if mn <= mc {
		t.Errorf("noise did not widen footprints: clean %.2f, noisy %.2f", mc, mn)
	}
	if err := dNoisy.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestAccessInstructionNeverDistills(t *testing.T) {
	d := New(tinyConfig())
	lines := setLines(5)
	// Instruction line enters the LOC.
	if r := d.AccessInstruction(lines[0], 0, false); r.Outcome != LineMiss {
		t.Fatalf("cold ifetch outcome %v", r.Outcome)
	}
	if r := d.AccessInstruction(lines[0], 0, false); r.Outcome != LOCHit {
		t.Fatalf("warm ifetch outcome %v", r.Outcome)
	}
	// Evict it with three data lines: it must vanish, not reach the WOC.
	for _, l := range lines[1:4] {
		d.Access(l, 0, false)
	}
	if got := d.Present(lines[0]); got != "" {
		t.Errorf("instruction line in %q, want gone", got)
	}
	if d.Stats().InstrEvictions != 1 {
		t.Errorf("InstrEvictions = %d", d.Stats().InstrEvictions)
	}
	// Instruction evictions stay out of the footprint statistics.
	if d.Stats().WordsUsedAtEvict.Total() != 0 {
		t.Errorf("instruction eviction polluted words-used histogram: %v", d.Stats().WordsUsedAtEvict)
	}
}

func TestDirtyInstructionLineWritesBack(t *testing.T) {
	// Self-modifying code corner: a dirty instruction line must write
	// back on eviction.
	d := New(tinyConfig())
	lines := setLines(5)
	d.AccessInstruction(lines[0], 0, true)
	before := d.Stats().Writebacks
	for _, l := range lines[1:4] {
		d.Access(l, 0, false)
	}
	if d.Stats().Writebacks != before+1 {
		t.Error("dirty instruction line dropped without writeback")
	}
}

func TestConfigAccessor(t *testing.T) {
	cfg := tinyConfig()
	d := New(cfg)
	if d.Config().Name != cfg.Name || d.Config().WOCWays != cfg.WOCWays {
		t.Errorf("Config() = %+v", d.Config())
	}
	if d.MedianThreshold() != 8 {
		t.Errorf("MT disabled should report threshold 8, got %d", d.MedianThreshold())
	}
	mtCfg := tinyConfig()
	mtCfg.MedianThreshold = true
	if got := New(mtCfg).MedianThreshold(); got != 8 {
		t.Errorf("fresh MT threshold = %d, want permissive 8", got)
	}
}

func TestWOCValidBitsEdges(t *testing.T) {
	d := New(tinyConfig())
	if d.WOCValidBits(0) != 0 {
		t.Error("absent line should report zero WOC bits")
	}
	// In traditional mode the WOC reports nothing.
	cfg := Config{
		Name: "rev", SizeBytes: 8 * 4 * mem.LineSize, Ways: 4, WOCWays: 1,
		Reverter: true, Seed: 3,
	}
	dr := New(cfg)
	for i := 0; i < 300; i++ {
		dr.Sampler().RecordPolicyMiss(0)
	}
	dr.Access(mem.LineAddr(1), 0, false) // follower set 1 switches to trad
	if dr.WOCValidBits(mem.LineAddr(1)) != 0 {
		t.Error("traditional-mode set should have no WOC contents")
	}
}

// TestInstructionOnlyEquivalentToLOCWayLRU is a differential test: with
// only instruction fetches (never distilled, WOC never used), a distill
// cache must behave exactly like a traditional LRU cache with LOCWays
// associativity.
func TestInstructionOnlyEquivalentToLOCWayLRU(t *testing.T) {
	const sets, ways, wocWays = 16, 8, 2
	d := New(Config{Name: "d", SizeBytes: sets * ways * mem.LineSize, Ways: ways, WOCWays: wocWays, Seed: 1})

	// Reference: per-set LRU lists with LOCWays capacity.
	geom, _ := mem.NewGeometry(sets*ways*mem.LineSize, ways)
	ref := make([][]mem.LineAddr, sets)
	refMisses := 0
	refAccess := func(la mem.LineAddr) {
		si := geom.SetIndex(la)
		for i, l := range ref[si] {
			if l == la {
				ref[si] = append([]mem.LineAddr{la}, append(ref[si][:i], ref[si][i+1:]...)...)
				return
			}
		}
		refMisses++
		ref[si] = append([]mem.LineAddr{la}, ref[si]...)
		if len(ref[si]) > ways-wocWays {
			ref[si] = ref[si][:ways-wocWays]
		}
	}

	rng := uint64(77)
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	for i := 0; i < 100000; i++ {
		la := mem.LineAddr(next() % 256)
		d.AccessInstruction(la, int(next()%8), false)
		refAccess(la)
	}
	if got := int(d.Stats().Misses()); got != refMisses {
		t.Errorf("distill instruction-only misses %d != %d of a %d-way LRU reference",
			got, refMisses, ways-wocWays)
	}
	if d.Stats().WOCHits != 0 || d.Stats().HoleMisses != 0 || d.Stats().Distilled != 0 {
		t.Errorf("WOC activity on an instruction-only stream: %+v", d.Stats())
	}
}
