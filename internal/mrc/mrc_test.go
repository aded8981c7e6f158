package mrc

import (
	"math"
	"testing"

	"ldis/internal/mem"
)

func mustNew(t *testing.T, cfg Config) *Engine {
	t.Helper()
	e, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return e
}

// fineConfig resolves at one line per bucket so hand-computed stack
// distances land in predictable buckets.
func fineConfig() Config {
	return Config{MaxBytes: 64 * mem.LineSize, ResolutionBytes: mem.LineSize}
}

func TestConfigValidation(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"resolution below line", Config{ResolutionBytes: 8}},
		{"max below resolution", Config{MaxBytes: 64, ResolutionBytes: 128}},
		{"rate above one", Config{SampleRate: 1.5}},
		{"negative rate", Config{SampleRate: -0.1}},
		{"negative max samples", Config{MaxSamples: -1}},
		{"fixed-size without sampling", Config{MaxSamples: 10}},
		{"NaN rate", Config{SampleRate: math.NaN()}},
		{"rate rounding to zero lines", Config{SampleRate: 1e-30}},
		{"max samples above the limit", Config{SampleRate: 0.5, MaxSamples: MaxSamplesLimit + 1}},
	}
	for _, tc := range cases {
		if err := tc.cfg.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid config %+v", tc.name, tc.cfg)
		}
		if _, err := New(tc.cfg); err == nil {
			t.Errorf("%s: New accepted invalid config %+v", tc.name, tc.cfg)
		}
	}
	if err := (Config{}).Validate(); err != nil {
		t.Errorf("Validate rejected defaults: %v", err)
	}
	if _, err := New(Config{}); err != nil {
		t.Errorf("defaults rejected: %v", err)
	}
	if err := (Config{SampleRate: 0.5, MaxSamples: MaxSamplesLimit}).Validate(); err != nil {
		t.Errorf("Validate rejected max samples at the limit: %v", err)
	}
}

// TestExactLineDistances drives a hand-checked trace through the exact
// engine. Trace (line addresses): A B C A. The reuse of A has two
// distinct lines (B, C) stacked above it, so its inclusive line-grain
// distance is 3 lines = 192 bytes: a hit at >=3 lines of capacity, a
// miss below.
func TestExactLineDistances(t *testing.T) {
	e := mustNew(t, fineConfig())
	for _, l := range []mem.LineAddr{10, 11, 12, 10} {
		e.Access(l, 0)
	}
	c := e.LineCurve("line")
	if got := c.Refs; got != 4 {
		t.Fatalf("refs = %v, want 4", got)
	}
	// 3 cold misses out of 4 refs at every capacity >= 3 lines; the
	// reuse misses additionally at < 3 lines.
	if got := c.MissRatioAt(2 * mem.LineSize); got != 1.0 {
		t.Errorf("MR(2 lines) = %v, want 1 (reuse distance 3 lines misses)", got)
	}
	if got := c.MissRatioAt(3 * mem.LineSize); got != 0.75 {
		t.Errorf("MR(3 lines) = %v, want 0.75 (only the 3 cold misses)", got)
	}
	if got := c.ColdFrac; got != 0.75 {
		t.Errorf("ColdFrac = %v, want 0.75", got)
	}
}

// TestExactImmediateReuse checks the minimum distance: A A has an
// inclusive reuse distance of one line — a hit at any capacity.
func TestExactImmediateReuse(t *testing.T) {
	e := mustNew(t, fineConfig())
	e.Access(7, 0)
	e.Access(7, 0)
	c := e.LineCurve("line")
	if got := c.MissRatioAt(mem.LineSize); got != 0.5 {
		t.Errorf("MR(1 line) = %v, want 0.5 (cold miss + hit)", got)
	}
}

// TestWordGrainWeights checks that the word-grain stack prices each
// line at its pow2-allocated word slots, not the full line. Trace: A
// (1 word), B (1 word), A again. Line-grain distance: 2 lines = 128B.
// Word-grain distance: B costs Pow2WordsFor(1)=1 slot, A itself 1
// slot -> 2 slots = 16 bytes: the distilled stack is 8x denser here.
func TestWordGrainWeights(t *testing.T) {
	e := mustNew(t, Config{MaxBytes: 4096, ResolutionBytes: 64})
	e.Access(1, 0)
	e.Access(2, 3)
	e.Access(1, 0)
	line := e.LineCurve("line")
	word := e.WordCurve("word")
	// At 64B capacity: line grain needs 128B -> miss (3 misses of 3
	// refs); word grain needs 16B -> hit (2 cold of 3).
	if got := line.MissRatioAt(64); got != 1.0 {
		t.Errorf("line MR(64B) = %v, want 1", got)
	}
	if got, want := word.MissRatioAt(64), 2.0/3.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("word MR(64B) = %v, want %v", got, want)
	}
}

// TestWordFootprintGrowth: touching a second word in a line bumps its
// slot cost along the pow2 schedule (1 -> 2 slots), and the reused
// access is charged the post-access footprint.
func TestWordFootprintGrowth(t *testing.T) {
	e := mustNew(t, Config{MaxBytes: 4096, ResolutionBytes: 64})
	e.Access(1, 0) // A word 0: 1 slot
	e.Access(1, 5) // A word 5: footprint 2 -> 2 slots, distance 2*8=16B
	e.Access(2, 0) // B: 1 slot
	e.Access(1, 1) // A word 1: 3 words -> 4 slots; distance = B(1) + A(4) = 5 slots = 40B
	word := e.WordCurve("word")
	// Buckets are 64B wide, so both reuses land in bucket 1: at 64B
	// capacity only the 2 cold misses remain.
	if got, want := word.MissRatioAt(64), 0.5; got != want {
		t.Errorf("word MR(64B) = %v, want %v", got, want)
	}
	// The beyond-max check: line-grain distance of the last access is
	// 2 lines = 128B > 64B... verify via a 64B-max engine that the
	// reuse is an overflow miss there.
	small := mustNew(t, Config{MaxBytes: 64, ResolutionBytes: 64})
	small.Access(1, 0)
	small.Access(2, 0)
	small.Access(1, 0)
	if got := small.LineCurve("line").MissRatioAt(64); got != 1.0 {
		t.Errorf("line MR(64B) = %v, want 1 (distance beyond MaxBytes)", got)
	}
}

// TestResetCounts: warmup accesses shape the stack but not the
// histogram. After reset, a reuse of a warmed line still sees its
// stack depth.
func TestResetCounts(t *testing.T) {
	e := mustNew(t, fineConfig())
	e.Access(1, 0)
	e.Access(2, 0)
	e.ResetCounts()
	e.Access(1, 0) // distance 2 lines, not cold
	c := e.LineCurve("line")
	if c.Refs != 1 {
		t.Fatalf("refs after reset = %v, want 1", c.Refs)
	}
	if got := c.ColdFrac; got != 0 {
		t.Errorf("ColdFrac = %v, want 0 (line warmed before reset)", got)
	}
	if got := c.MissRatioAt(mem.LineSize); got != 1.0 {
		t.Errorf("MR(1 line) = %v, want 1 (distance 2 lines)", got)
	}
	if got := c.MissRatioAt(2 * mem.LineSize); got != 0.0 {
		t.Errorf("MR(2 lines) = %v, want 0", got)
	}
}

// TestDecayCountsRejectsBadFactor: a decay factor outside [0, 1],
// NaN included, panics instead of corrupting every histogram bucket.
func TestDecayCountsRejectsBadFactor(t *testing.T) {
	for _, alpha := range []float64{-0.1, 1.5, math.NaN(), math.Inf(1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("DecayCounts(%v) did not panic", alpha)
				}
			}()
			mustNew(t, Config{}).DecayCounts(alpha)
		}()
	}
}

// TestEmptyCurve: an engine that saw nothing renders an empty curve
// and NaN ratios.
func TestEmptyCurve(t *testing.T) {
	e := mustNew(t, Config{})
	c := e.LineCurve("empty")
	if len(c.Points) != 0 {
		t.Fatalf("empty engine produced %d points", len(c.Points))
	}
	if !math.IsNaN(c.MissRatioAt(1 << 20)) {
		t.Errorf("MissRatioAt on empty curve = %v, want NaN", c.MissRatioAt(1<<20))
	}
}

// TestCurveMonotone: miss ratios never increase with capacity on a
// pseudo-random trace, at both granularities, exact and sampled.
func TestCurveMonotone(t *testing.T) {
	for _, cfg := range []Config{
		{},
		{SampleRate: 0.25, Seed: 42},
		{SampleRate: 0.25, MaxSamples: 64, Seed: 42},
	} {
		e := mustNew(t, cfg)
		x := uint64(1)
		for i := 0; i < 20000; i++ {
			x = mem.SplitMix64(x)
			e.Access(mem.LineAddr(x%4096), int(x>>32)&7)
		}
		for _, c := range []Curve{e.LineCurve("line"), e.WordCurve("word")} {
			if !c.Series().NonIncreasing() {
				t.Errorf("cfg %+v: %s curve not non-increasing", cfg, c.Name)
			}
			for _, p := range c.Points {
				if p.Y < 0 || p.Y > 1 {
					t.Errorf("cfg %+v: %s MR(%g) = %v outside [0,1]", cfg, c.Name, p.X, p.Y)
				}
			}
		}
	}
}

// TestSampledDeterminism: the same seed gives bit-identical curves;
// different seeds sample different subsets.
func TestSampledDeterminism(t *testing.T) {
	run := func(seed uint64) Curve {
		e := mustNew(t, Config{SampleRate: 0.2, MaxSamples: 128, Seed: seed})
		x := uint64(9)
		for i := 0; i < 30000; i++ {
			x = mem.SplitMix64(x)
			e.Access(mem.LineAddr(x%8192), int(x)&7)
		}
		return e.LineCurve("line")
	}
	a, b := run(1), run(1)
	for i := range a.Points {
		if a.Points[i] != b.Points[i] {
			t.Fatalf("same seed diverged at point %d: %+v vs %+v", i, a.Points[i], b.Points[i])
		}
	}
	c := run(2)
	same := true
	for i := range a.Points {
		if a.Points[i] != c.Points[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical sampled curves (gate ignores seed?)")
	}
}

// TestFixedSizeBound: the fixed-size variant never tracks more than
// MaxSamples lines, and its curve still approximates the exact one.
func TestFixedSizeBound(t *testing.T) {
	const maxSamples = 50
	e := mustNew(t, Config{SampleRate: 0.9, MaxSamples: maxSamples, Seed: 3})
	exact := mustNew(t, Config{})
	x := uint64(17)
	for i := 0; i < 20000; i++ {
		x = mem.SplitMix64(x)
		line, word := mem.LineAddr(x%512), int(x>>40)&7
		e.Access(line, word)
		exact.Access(line, word)
		if n := len(e.heap.refs); n > maxSamples {
			t.Fatalf("heap holds %d lines, budget %d", n, maxSamples)
		}
	}
	if e.tab.n != len(e.heap.refs) {
		t.Errorf("table entries %d != heap size %d", e.tab.n, len(e.heap.refs))
	}
	// 512 distinct lines vs a 50-line sample: still expect a rough
	// match (loose bound; the exp-level test asserts the tight one).
	diff := maxAbsDiffAtPoints(t, exact.LineCurve("exact"), e.LineCurve("sampled"))
	if diff > 0.15 {
		t.Errorf("fixed-size curve off by %v from exact (bound 0.15)", diff)
	}
}

// TestSampledScaling: with sampling on a uniform trace, the scaled
// curve approximates the exact one and the expected-misses correction
// keeps ratios over the true reference count.
func TestSampledScaling(t *testing.T) {
	exact := mustNew(t, Config{})
	sampled := mustNew(t, Config{SampleRate: 0.3, Seed: 11})
	x := uint64(5)
	for i := 0; i < 40000; i++ {
		x = mem.SplitMix64(x)
		line, word := mem.LineAddr(x%2048), int(x>>33)&7
		exact.Access(line, word)
		sampled.Access(line, word)
	}
	if sampled.Refs() != 40000 {
		t.Fatalf("sampled engine counted %v refs, want 40000", sampled.Refs())
	}
	if sampled.TrackedRefs() >= sampled.Refs() {
		t.Fatalf("sampling gate tracked everything (%v refs)", sampled.TrackedRefs())
	}
	for _, pair := range [][2]Curve{
		{exact.LineCurve("line"), sampled.LineCurve("line")},
		{exact.WordCurve("word"), sampled.WordCurve("word")},
	} {
		// A uniform random trace is the worst case for SHARDS (error
		// is pure sampling variance); real benchmarks are held to 0.02
		// in internal/exp.
		if diff := maxAbsDiffAtPoints(t, pair[0], pair[1]); diff > 0.05 {
			t.Errorf("%s: sampled curve off by %v (bound 0.05)", pair[0].Name, diff)
		}
	}
}

func maxAbsDiffAtPoints(t *testing.T, a, b Curve) float64 {
	t.Helper()
	if len(a.Points) == 0 || len(b.Points) == 0 {
		t.Fatal("empty curve in comparison")
	}
	max := 0.0
	for i := range a.Points {
		if d := math.Abs(a.Points[i].Y - b.Points[i].Y); d > max {
			max = d
		}
	}
	return max
}

// TestCurrentLineDistanceBytes checks the read-only point query that
// feeds the distill cache's copy-back predictor. Trace A B C: A's
// current inclusive distance is 3 lines, the MRU line's is 1, a line
// never seen is unknown, and querying must not advance the clock.
func TestCurrentLineDistanceBytes(t *testing.T) {
	e := mustNew(t, fineConfig())
	for _, l := range []mem.LineAddr{10, 11, 12} {
		e.Access(l, 0)
	}
	if d, ok := e.CurrentLineDistanceBytes(10); !ok || d != 3*mem.LineSize {
		t.Fatalf("distance(A) = %v, %v; want %d, true", d, ok, 3*mem.LineSize)
	}
	if d, ok := e.CurrentLineDistanceBytes(12); !ok || d != mem.LineSize {
		t.Fatalf("distance(MRU) = %v, %v; want %d, true", d, ok, mem.LineSize)
	}
	if _, ok := e.CurrentLineDistanceBytes(99); ok {
		t.Fatal("unseen line reported a distance")
	}
	// Read-only: the query above must not have perturbed the stack.
	if d, ok := e.CurrentLineDistanceBytes(10); !ok || d != 3*mem.LineSize {
		t.Fatalf("repeat distance(A) = %v, %v; query is not read-only", d, ok)
	}
	e.Access(10, 0)
	if d, ok := e.CurrentLineDistanceBytes(10); !ok || d != mem.LineSize {
		t.Fatalf("distance(A) after retouch = %v, %v; want %d, true", d, ok, mem.LineSize)
	}
}

// TestCurrentLineDistanceSampled checks the sampled engine: unsampled
// lines are unknown (cold), sampled lines answer with the scaled
// distance, and the split is deterministic in the seed.
func TestCurrentLineDistanceSampled(t *testing.T) {
	e := mustNew(t, Config{SampleRate: 0.5, Seed: 7})
	const lines = 256
	for i := 0; i < lines; i++ {
		e.Access(mem.LineAddr(i), 0)
	}
	known, cold := 0, 0
	for i := 0; i < lines; i++ {
		if d, ok := e.CurrentLineDistanceBytes(mem.LineAddr(i)); ok {
			known++
			if d <= 0 {
				t.Fatalf("line %d: non-positive distance %v", i, d)
			}
		} else {
			cold++
		}
	}
	if known == 0 || cold == 0 {
		t.Fatalf("sampling split degenerate: %d known / %d cold", known, cold)
	}
}
