package distill

import (
	"testing"
	"unsafe"

	"ldis/internal/mem"
	"ldis/internal/sampler"
)

// tinyConfig: 4 sets, 4 ways (3 LOC + 1 WOC), no MT, no reverter.
func tinyConfig() Config {
	return Config{
		Name:      "tiny",
		SizeBytes: 4 * 4 * mem.LineSize,
		Ways:      4,
		WOCWays:   1,
		Seed:      7,
	}
}

// setLines returns n distinct lines all mapping to set 0 of a 4-set cache.
func setLines(n int) []mem.LineAddr {
	out := make([]mem.LineAddr, n)
	for i := range out {
		out[i] = mem.LineAddr(i * 4)
	}
	return out
}

func TestConfigValidateErrors(t *testing.T) {
	bad := []Config{
		{Name: "a", SizeBytes: 1 << 20, Ways: 1, WOCWays: 0},
		{Name: "b", SizeBytes: 1 << 20, Ways: 8, WOCWays: 0},
		{Name: "c", SizeBytes: 1 << 20, Ways: 8, WOCWays: 8},
		{Name: "d", SizeBytes: 1<<20 + 64, Ways: 8, WOCWays: 2},
		{Name: "e", SizeBytes: 3 * 8 * 64, Ways: 8, WOCWays: 2},
		{Name: "f", SizeBytes: 256 * 64, Ways: 256, WOCWays: 65},
		{Name: "g", SizeBytes: 256 * 64, Ways: 256, WOCWays: 2},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("%+v should be invalid", c)
		}
	}
}

func TestLineMissThenLOCHit(t *testing.T) {
	d := New(tinyConfig())
	l := mem.LineAddr(0)
	if r := d.Access(l, 0, false); r.Outcome != LineMiss || r.ValidBits != mem.FullFootprint {
		t.Fatalf("first access = %+v", r)
	}
	if r := d.Access(l, 1, false); r.Outcome != LOCHit {
		t.Fatalf("second access = %+v", r)
	}
	if d.Present(l) != "loc" {
		t.Errorf("line in %q", d.Present(l))
	}
	st := d.Stats()
	if st.Accesses != 2 || st.LOCHits != 1 || st.LineMisses != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestDistillationOnLOCEviction(t *testing.T) {
	d := New(tinyConfig())
	lines := setLines(5)
	// Fill the 3 LOC ways; touch two words of the first line.
	d.Access(lines[0], 0, false)
	d.Access(lines[0], 5, false)
	d.Access(lines[1], 0, false)
	d.Access(lines[2], 0, false)
	// Fourth distinct line evicts lines[0] (LRU) into the WOC.
	d.Access(lines[3], 0, false)
	if got := d.Present(lines[0]); got != "woc" {
		t.Fatalf("victim in %q, want woc", got)
	}
	if vb := d.WOCValidBits(lines[0]); vb.Count() != 2 || !vb.Has(0) || !vb.Has(5) {
		t.Errorf("WOC stored words %v", vb)
	}
	if d.Stats().Distilled != 1 {
		t.Errorf("Distilled = %d", d.Stats().Distilled)
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestWOCHit(t *testing.T) {
	d := New(tinyConfig())
	lines := setLines(5)
	d.Access(lines[0], 2, false)
	for _, l := range lines[1:4] {
		d.Access(l, 0, false)
	}
	// lines[0] distilled with word 2; accessing word 2 is a WOC hit.
	r := d.Access(lines[0], 2, false)
	if r.Outcome != WOCHit {
		t.Fatalf("outcome = %v", r.Outcome)
	}
	if r.ValidBits != mem.FootprintOfWord(2) {
		t.Errorf("valid bits = %v", r.ValidBits)
	}
	if d.Stats().WOCHits != 1 {
		t.Errorf("WOCHits = %d", d.Stats().WOCHits)
	}
	// The line stays in the WOC (no promotion on WOC hits).
	if d.Present(lines[0]) != "woc" {
		t.Errorf("line in %q after WOC hit", d.Present(lines[0]))
	}
}

func TestHoleMiss(t *testing.T) {
	d := New(tinyConfig())
	lines := setLines(5)
	d.Access(lines[0], 2, false)
	for _, l := range lines[1:4] {
		d.Access(l, 0, false)
	}
	// Word 6 was distilled away: hole miss, refetch into LOC.
	r := d.Access(lines[0], 6, false)
	if r.Outcome != HoleMiss {
		t.Fatalf("outcome = %v", r.Outcome)
	}
	if r.ValidBits != mem.FullFootprint {
		t.Errorf("hole miss must return the full line, got %v", r.ValidBits)
	}
	if d.Present(lines[0]) != "loc" {
		t.Errorf("line in %q after hole miss, want loc", d.Present(lines[0]))
	}
	if d.Stats().HoleMisses != 1 {
		t.Errorf("HoleMisses = %d", d.Stats().HoleMisses)
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestHoleMissPreservesDirtyWords(t *testing.T) {
	d := New(tinyConfig())
	lines := setLines(5)
	d.Access(lines[0], 2, true) // dirty word 2
	for _, l := range lines[1:4] {
		d.Access(l, 0, false)
	}
	if d.Present(lines[0]) != "woc" {
		t.Fatal("precondition: line distilled")
	}
	// Hole miss on word 6: the dirty word 2 must survive into the LOC
	// copy so it is eventually written back, not lost.
	d.Access(lines[0], 6, false)
	// Evict lines[0] again with three fresh lines; its dirty mask must
	// include word 2, so the eventual WOC copy carries the dirt.
	more := setLines(9)
	for _, l := range more[6:9] {
		d.Access(l, 0, false)
	}
	if d.Present(lines[0]) != "woc" {
		t.Fatal("line should be distilled again")
	}
	// Push it out of the WOC entirely and count the writeback.
	before := d.Stats().Writebacks
	for i := 10; i < 30; i++ {
		d.Access(mem.LineAddr(i*4), 0, false)
	}
	if d.Present(lines[0]) == "woc" {
		t.Skip("line survived WOC churn; dirty propagation not exercised")
	}
	if d.Stats().Writebacks == before {
		t.Error("dirty data silently dropped")
	}
}

func TestWriteInWOCThenEvictWritesBack(t *testing.T) {
	d := New(tinyConfig())
	lines := setLines(5)
	d.Access(lines[0], 2, false)
	for _, l := range lines[1:4] {
		d.Access(l, 0, false)
	}
	// Dirty the WOC copy via a WOC write hit.
	if r := d.Access(lines[0], 2, true); r.Outcome != WOCHit {
		t.Fatalf("outcome = %v", r.Outcome)
	}
	// Churn the WOC until the line is displaced.
	before := d.Stats().Writebacks
	for i := 10; i < 40 && d.Present(lines[0]) == "woc"; i++ {
		d.Access(mem.LineAddr(i*4), 0, false)
	}
	if d.Present(lines[0]) == "woc" {
		t.Skip("line survived WOC churn")
	}
	if d.Stats().Writebacks == before {
		t.Error("dirty WOC line evicted without writeback")
	}
}

func TestMedianThresholdFiltersFatLines(t *testing.T) {
	cfg := tinyConfig()
	cfg.MedianThreshold = true
	d := New(cfg)
	// Drive the median filter directly to a threshold of 1.
	for i := 0; i < medianWindowEvictions; i++ {
		d.mt.record(1)
	}
	if d.MedianThreshold() != 1 {
		t.Fatalf("threshold = %d, want 1", d.MedianThreshold())
	}
	lines := setLines(5)
	// A line with 3 words used must be filtered, not installed.
	d.Access(lines[0], 0, false)
	d.Access(lines[0], 1, false)
	d.Access(lines[0], 2, false)
	for _, l := range lines[1:4] {
		d.Access(l, 0, false)
	}
	if got := d.Present(lines[0]); got != "" {
		t.Errorf("fat line in %q, want evicted", got)
	}
	if d.Stats().ThresholdSkips == 0 {
		t.Error("ThresholdSkips not counted")
	}
	// A 1-word line is admitted. Flush it out of the LOC with three
	// fresh lines (accessing WOC-resident lines would not displace it).
	more := setLines(8)
	d.Access(more[4], 0, false)
	for _, l := range more[5:8] {
		d.Access(l, 0, false)
	}
	if got := d.Present(more[4]); got != "woc" {
		t.Errorf("thin line in %q, want woc", got)
	}
}

func TestMedianFilterWindow(t *testing.T) {
	m := newMedianFilter()
	if m.Threshold() != 8 {
		t.Fatalf("initial threshold = %d", m.Threshold())
	}
	// 60% one-word, 40% eight-word evictions -> median 1.
	for i := 0; i < medianWindowEvictions; i++ {
		if i%5 < 3 {
			m.record(1)
		} else {
			m.record(8)
		}
	}
	if m.Threshold() != 1 {
		t.Errorf("threshold = %d, want 1", m.Threshold())
	}
	// Clamping.
	m.record(0)
	m.record(99)
	if m.counts[0] == 0 || m.counts[7] == 0 {
		t.Error("out-of-range counts not clamped")
	}
}

func TestWritebackFromL1(t *testing.T) {
	d := New(tinyConfig())
	l := mem.LineAddr(0)
	d.Access(l, 0, false)
	// L1D eviction reports words 0 and 3 used, word 3 dirty.
	d.WritebackFromL1(l, mem.FootprintOfWord(0).Or(mem.FootprintOfWord(3)), mem.FootprintOfWord(3))
	// Evict: the distilled line must store both words.
	lines := setLines(4)
	for _, x := range lines[1:4] {
		d.Access(x, 0, false)
	}
	vb := d.WOCValidBits(l)
	if vb.Count() != 2 || !vb.Has(0) || !vb.Has(3) {
		t.Errorf("WOC words = %v, want {0,3}", vb)
	}
}

func TestWritebackFromL1AbsentLine(t *testing.T) {
	d := New(tinyConfig())
	before := d.Stats().Writebacks
	d.WritebackFromL1(mem.LineAddr(123), mem.FullFootprint, mem.FootprintOfWord(1))
	if d.Stats().Writebacks != before+1 {
		t.Error("dirty writeback for absent line must go to memory")
	}
	// Clean notice for an absent line: no writeback.
	d.WritebackFromL1(mem.LineAddr(456), mem.FullFootprint, 0)
	if d.Stats().Writebacks != before+1 {
		t.Error("clean notice must not count as writeback")
	}
}

func TestWritebackFromL1ToWOCCopy(t *testing.T) {
	d := New(tinyConfig())
	lines := setLines(5)
	d.Access(lines[0], 2, false)
	for _, l := range lines[1:4] {
		d.Access(l, 0, false)
	}
	if d.Present(lines[0]) != "woc" {
		t.Fatal("precondition failed")
	}
	// Dirty word 2 (stored in WOC): stays with the WOC copy.
	before := d.Stats().Writebacks
	d.WritebackFromL1(lines[0], mem.FootprintOfWord(2), mem.FootprintOfWord(2))
	if d.Stats().Writebacks != before {
		t.Error("stored dirty word should stay in WOC, not write back")
	}
	// Dirty word 7 (not stored): must write back to memory.
	d.WritebackFromL1(lines[0], mem.FootprintOfWord(7), mem.FootprintOfWord(7))
	if d.Stats().Writebacks != before+1 {
		t.Error("unstored dirty word must write back")
	}
}

func TestReverterDisablesLDISUnderHoleMissStorm(t *testing.T) {
	// 8 sets, leaders every 2nd set. Adversarial pattern: lines get one
	// word touched, evicted, then other words referenced -> hole misses
	// that a traditional cache would have avoided... simplified: make
	// the distill cache lose by always accessing distilled-away words.
	cfg := Config{
		Name: "rev", SizeBytes: 8 * 4 * mem.LineSize, Ways: 4, WOCWays: 1,
		Reverter: true, Seed: 3,
	}
	d := New(cfg)
	if d.Sampler() == nil {
		t.Fatal("sampler missing")
	}
	// Working set of 4 lines per set: fits in 4 traditional ways but
	// not in 3 LOC ways. Rotate touching different words so WOC copies
	// always hole-miss.
	for round := 0; round < 4000; round++ {
		word := round % mem.WordsPerLine
		for i := 0; i < 4; i++ {
			d.Access(mem.LineAddr(i*8), word, false) // set 0 (leader)
			d.Access(mem.LineAddr(i*8+1), word, false)
		}
	}
	if d.Sampler().Enabled() {
		t.Errorf("reverter should have disabled LDIS (PSEL=%d)", d.Sampler().PSEL())
	}
	if d.Stats().ModeSwitches == 0 {
		t.Error("follower sets never switched mode")
	}
	// Follower set 1 now behaves traditionally: 4 lines fit.
	missesBefore := d.Stats().Misses()
	for round := 0; round < 100; round++ {
		for i := 0; i < 4; i++ {
			d.Access(mem.LineAddr(i*8+1), round%8, false)
		}
	}
	if got := d.Stats().Misses() - missesBefore; got != 0 {
		t.Errorf("traditional-mode follower still missing: %d misses", got)
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestLeaderSetsAlwaysDistill(t *testing.T) {
	cfg := Config{
		Name: "lead", SizeBytes: 8 * 4 * mem.LineSize, Ways: 4, WOCWays: 1,
		Reverter: true, Seed: 3,
	}
	d := New(cfg)
	// Force the sampler to disable LDIS.
	for i := 0; i < 300; i++ {
		d.Sampler().RecordPolicyMiss(0)
	}
	if d.Sampler().Enabled() {
		t.Fatal("precondition: disabled")
	}
	// Leader set 0 still distills: fill its 3 LOC ways + overflow.
	lines := []mem.LineAddr{0, 8, 16, 24}
	for _, l := range lines {
		d.Access(l, 0, false)
	}
	if d.Present(lines[0]) != "woc" {
		t.Errorf("leader set victim in %q, want woc", d.Present(lines[0]))
	}
}

func TestModeSwitchRoundTrip(t *testing.T) {
	cfg := Config{
		Name: "rt", SizeBytes: 8 * 4 * mem.LineSize, Ways: 4, WOCWays: 1,
		Reverter: true, Seed: 3,
		SamplerConfig: &sampler.Config{
			NumSets: 8, LeaderSets: 4, ATDWays: 4, PSELBits: 8,
			LowWatermark: 64, HighWatermark: 192,
		},
	}
	d := New(cfg)
	// Follower set 1: fill 4 lines in traditional mode.
	for i := 0; i < 300; i++ {
		d.Sampler().RecordPolicyMiss(0) // disable
	}
	for i := 0; i < 4; i++ {
		d.Access(mem.LineAddr(i*8+1), 0, false)
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Re-enable: thrash the ATD of leader set 0.
	for i := 0; i < 400; i++ {
		d.Sampler().ObserveATD(0, mem.LineAddr(uint64(i)*8))
	}
	if !d.Sampler().Enabled() {
		t.Fatal("sampler should be enabled")
	}
	// Next access to follower set 1 narrows it back; the overflow lines
	// (the LRU-most Ways-LOCWays of the four, all valid) are distilled
	// into the WOC, not evicted traditionally. The access itself hits the
	// MRU line, so no install adds an eviction of its own.
	st := d.Stats()
	before, tradBefore := st.Distilled+st.ThresholdSkips, st.TradEvictions
	if r := d.Access(mem.LineAddr(3*8+1), 0, false); r.Outcome != LOCHit {
		t.Fatalf("MRU line after narrowing: %v, want loc-hit", r.Outcome)
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if st.ModeSwitches < 2 {
		t.Errorf("ModeSwitches = %d, want >= 2", st.ModeSwitches)
	}
	if got, want := st.Distilled+st.ThresholdSkips-before, uint64(cfg.Ways-cfg.LOCWays()); got != want {
		t.Errorf("narrowing distilled or filtered %d lines, want %d", got, want)
	}
	if st.TradEvictions != tradBefore {
		t.Errorf("narrowing evicted %d lines traditionally", st.TradEvictions-tradBefore)
	}
	if d.Present(mem.LineAddr(1)) != "woc" {
		t.Error("LRU-most overflow line not distilled into the WOC")
	}
	// A miss afterwards distills its LOC victim as usual.
	d.Access(mem.LineAddr(100*8+1), 0, false)
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCustomSlotsFunc(t *testing.T) {
	cfg := tinyConfig()
	var sawFP mem.Footprint
	cfg.Slots = func(line mem.LineAddr, used mem.Footprint) int {
		sawFP = used
		return 1 // pretend everything compresses to one slot
	}
	d := New(cfg)
	lines := setLines(5)
	// 4 words used -> would need 4 slots uncompressed.
	d.Access(lines[0], 0, false)
	d.Access(lines[0], 1, false)
	d.Access(lines[0], 2, false)
	d.Access(lines[0], 3, false)
	for _, l := range lines[1:4] {
		d.Access(l, 0, false)
	}
	if sawFP.Count() != 4 {
		t.Errorf("slots func saw footprint %v", sawFP)
	}
	if d.Present(lines[0]) != "woc" {
		t.Fatal("line not distilled")
	}
	// All 4 words retrievable from a single slot (compressed).
	if vb := d.WOCValidBits(lines[0]); vb.Count() != 4 {
		t.Errorf("valid bits = %v", vb)
	}
}

func TestOutcomeStrings(t *testing.T) {
	want := map[Outcome]string{LOCHit: "loc-hit", WOCHit: "woc-hit", HoleMiss: "hole-miss", LineMiss: "line-miss"}
	for o, s := range want {
		if o.String() != s {
			t.Errorf("%d.String() = %q", o, o.String())
		}
	}
	if !HoleMiss.IsMiss() || !LineMiss.IsMiss() || LOCHit.IsMiss() || WOCHit.IsMiss() {
		t.Error("IsMiss classification wrong")
	}
	if Outcome(9).String() == "" {
		t.Error("unknown outcome should render")
	}
}

func TestStatsAggregates(t *testing.T) {
	st := Stats{LOCHits: 3, WOCHits: 2, HoleMisses: 1, LineMisses: 4}
	if st.Hits() != 5 || st.Misses() != 5 {
		t.Errorf("aggregates wrong: %+v", st)
	}
}

// Stress: a pseudo-random access pattern must keep all invariants and
// conserve line residency (a line is never in LOC and WOC at once —
// CheckInvariants covers it).
func TestStressInvariants(t *testing.T) {
	cfg := Config{
		Name: "stress", SizeBytes: 16 * 8 * mem.LineSize, Ways: 8, WOCWays: 2,
		MedianThreshold: true, Reverter: true, Seed: 11,
	}
	d := New(cfg)
	rng := uint64(12345)
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	for i := 0; i < 200000; i++ {
		line := mem.LineAddr(next() % 256)
		word := int(next() % 8)
		write := next()%4 == 0
		d.Access(line, word, write)
		if next()%16 == 0 {
			d.WritebackFromL1(line, mem.Footprint(next()), mem.Footprint(next())&mem.Footprint(next()))
		}
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	if st.Accesses != 200000 {
		t.Errorf("accesses = %d", st.Accesses)
	}
	if st.Hits()+st.Misses() != st.Accesses {
		t.Errorf("hits %d + misses %d != accesses %d", st.Hits(), st.Misses(), st.Accesses)
	}
}

// TestLocEntrySize pins the LOC tag record at 16 bytes, so a field
// that re-pads it fails here.
func TestLocEntrySize(t *testing.T) {
	if got := unsafe.Sizeof(locEntry{}); got != 16 {
		t.Errorf("locEntry is %d bytes, want 16", got)
	}
}
