package sfp

import (
	"testing"

	"ldis/internal/mem"
)

func tinyConfig() Config {
	return Config{
		Name: "t", SizeBytes: 4 * 2 * mem.LineSize, Ways: 2,
		PredictorEntries: 256, TagsPerSet: 6, Seed: 5,
	}
}

func TestDefaultConfig(t *testing.T) {
	c := DefaultConfig()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.TagsPerSet != 22 {
		t.Errorf("TagsPerSet = %d, want 22 (distill parity)", c.TagsPerSet)
	}
	if New(c).PredictorStorageBytes() != 64<<10 {
		t.Errorf("16k-entry predictor should cost 64kB")
	}
}

func TestConfigValidateErrors(t *testing.T) {
	bad := []Config{
		{Name: "a", SizeBytes: 1024, Ways: 0, PredictorEntries: 4, TagsPerSet: 1},
		{Name: "b", SizeBytes: 100, Ways: 2, PredictorEntries: 4, TagsPerSet: 1},
		{Name: "c", SizeBytes: 3 * 2 * 64, Ways: 2, PredictorEntries: 4, TagsPerSet: 1},
		{Name: "d", SizeBytes: 4 * 2 * 64, Ways: 2, PredictorEntries: 0, TagsPerSet: 1},
		{Name: "e", SizeBytes: 4 * 2 * 64, Ways: 2, PredictorEntries: 3, TagsPerSet: 1},
		{Name: "f", SizeBytes: 4 * 2 * 64, Ways: 2, PredictorEntries: 4, TagsPerSet: 0},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("%+v should be invalid", c)
		}
	}
}

func TestColdMissInstallsFullLine(t *testing.T) {
	c := New(tinyConfig())
	hit, valid := c.Access(0, 3, 0x400, false)
	if hit {
		t.Fatal("cold access should miss")
	}
	if valid != mem.FullFootprint {
		t.Errorf("untrained prediction = %v, want full line", valid)
	}
	if hit, _ := c.Access(0, 6, 0x400, false); !hit {
		t.Error("full install should hit on any word")
	}
	if c.Stats().PredictorDefaults == 0 {
		t.Error("default prediction not counted")
	}
}

func TestTrainingNarrowsPrediction(t *testing.T) {
	c := New(tinyConfig())
	pc := mem.Addr(0x400)
	la := mem.LineAddr(0)
	// Residency 1: touch only words 0 and 2.
	c.Access(la, 0, pc, false)
	c.Access(la, 2, pc, false)
	// Evict by filling the set's tag budget with full lines.
	for i := 1; i < 10; i++ {
		c.Access(mem.LineAddr(i*4), 0, mem.Addr(0x900+i*4), false)
	}
	if c.Present(la) {
		t.Skip("line survived churn; training not exercised")
	}
	// Residency 2: the same PC misses on the line again; the predictor
	// should now install only the trained words.
	_, valid := c.Access(la, 0, pc, false)
	if valid == mem.FullFootprint {
		t.Errorf("prediction not narrowed: %v", valid)
	}
	if !valid.Has(0) || !valid.Has(2) {
		t.Errorf("trained words missing from prediction: %v", valid)
	}
}

func TestHoleMissOnFilteredWord(t *testing.T) {
	c := New(tinyConfig())
	pc := mem.Addr(0x400)
	la := mem.LineAddr(0)
	// Train the predictor to word 0 only.
	c.Access(la, 0, pc, false)
	for i := 1; i < 10; i++ {
		c.Access(mem.LineAddr(i*4), 0, mem.Addr(0x900+i*4), false)
	}
	if c.Present(la) {
		t.Skip("line survived churn")
	}
	c.Access(la, 0, pc, false) // re-install with narrow prediction
	if got := c.StoredWords(la); got.Count() == 8 {
		t.Skip("prediction not narrowed; hole path not reachable")
	}
	before := c.Stats().HoleMisses
	hit, valid := c.Access(la, 7, pc, false)
	if hit {
		t.Fatal("access to filtered word should miss")
	}
	if c.Stats().HoleMisses != before+1 {
		t.Error("hole miss not counted")
	}
	if !valid.Has(7) {
		t.Error("refetch must include the demand word")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestTagBudgetEnforced(t *testing.T) {
	cfg := tinyConfig()
	cfg.TagsPerSet = 3
	c := New(cfg)
	// Install many 1-word lines (train first, then reuse PCs).
	for i := 0; i < 20; i++ {
		c.Access(mem.LineAddr(i*4), 0, mem.Addr(0x400), false)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDirtyEvictionWritesBack(t *testing.T) {
	c := New(tinyConfig())
	c.Access(0, 0, 0x400, true) // dirty install
	for i := 1; i < 12; i++ {
		c.Access(mem.LineAddr(i*4), 0, mem.Addr(0x900+i*4), false)
	}
	if c.Present(0) {
		t.Skip("line survived churn")
	}
	if c.Stats().Writebacks == 0 {
		t.Error("dirty line evicted without writeback")
	}
}

func TestWritebackFromL1(t *testing.T) {
	c := New(tinyConfig())
	c.Access(0, 0, 0x400, false)
	before := c.Stats().Writebacks
	// Dirty a stored word: no memory writeback.
	c.WritebackFromL1(0, mem.FootprintOfWord(0), mem.FootprintOfWord(0))
	if c.Stats().Writebacks != before {
		t.Error("stored dirty word should stay")
	}
	// Absent line with dirt: memory writeback.
	c.WritebackFromL1(mem.LineAddr(999), 0, mem.FootprintOfWord(1))
	if c.Stats().Writebacks != before+1 {
		t.Error("absent dirty line must write back")
	}
}

func TestReverterForcesFullInstalls(t *testing.T) {
	cfg := tinyConfig()
	cfg.Reverter = true
	c := New(cfg)
	// Disable the policy.
	for i := 0; i < 300; i++ {
		c.Sampler().RecordPolicyMiss(0)
	}
	if c.Sampler().Enabled() {
		t.Fatal("precondition: disabled")
	}
	// Train a narrow prediction on a follower set (set 1).
	pc := mem.Addr(0x400)
	la := mem.LineAddr(1) // set 1 is a follower (leaders every 2nd set: 0, 2)
	if c.Sampler().IsLeader(la.SetIndex(cfg.Sets())) {
		t.Fatal("test expects a follower set")
	}
	c.Access(la, 0, pc, false)
	if got := c.StoredWords(la); got != mem.FullFootprint {
		t.Errorf("disabled follower installed %v, want full line", got)
	}
}

func TestStressInvariants(t *testing.T) {
	cfg := Config{
		Name: "stress", SizeBytes: 16 * 8 * mem.LineSize, Ways: 8,
		PredictorEntries: 1024, TagsPerSet: 22, Reverter: true, Seed: 11,
	}
	c := New(cfg)
	rng := uint64(999)
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	for i := 0; i < 100000; i++ {
		la := mem.LineAddr(next() % 512)
		word := int(next() % 8)
		pc := mem.Addr(0x1000 + next()%64*4)
		c.Access(la, word, pc, next()%5 == 0)
		if next()%16 == 0 {
			c.WritebackFromL1(la, mem.Footprint(next()), mem.Footprint(next())&mem.Footprint(next()))
		}
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Hits+st.Misses() != st.Accesses {
		t.Errorf("hits %d + misses %d != accesses %d", st.Hits, st.Misses(), st.Accesses)
	}
}

// The steady-state access path, predictor lookups and training
// included, must not allocate.
func TestAccessZeroAllocs(t *testing.T) {
	c := New(Config{Name: "s", SizeBytes: 64 * 8 * mem.LineSize, Ways: 8,
		PredictorEntries: 256, TagsPerSet: 22, Seed: 3})
	access := func() {
		for i := 0; i < 256; i++ {
			c.Access(mem.LineAddr(i%1024), i%8, mem.Addr(0x400+4*(i%97)), i%5 == 0)
		}
	}
	access() // steady state: meta tables at capacity
	if n := testing.AllocsPerRun(500, access); n != 0 {
		t.Errorf("Access allocates %.1f per 256 accesses", n)
	}
}
