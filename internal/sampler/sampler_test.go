package sampler

import (
	"testing"

	"ldis/internal/mem"
)

func TestDefaultConfig(t *testing.T) {
	c := DefaultConfig(2048)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.LeaderSets != 32 || c.ATDWays != 8 || c.LowWatermark != 64 || c.HighWatermark != 192 {
		t.Errorf("paper parameters wrong: %+v", c)
	}
	small := DefaultConfig(8)
	if err := small.Validate(); err != nil {
		t.Fatal(err)
	}
	if small.LeaderSets != 4 {
		t.Errorf("small-cache leaders = %d", small.LeaderSets)
	}
}

func TestConfigValidateErrors(t *testing.T) {
	bad := []Config{
		{NumSets: 0, LeaderSets: 1, ATDWays: 1, PSELBits: 8, HighWatermark: 10},
		{NumSets: 6, LeaderSets: 1, ATDWays: 1, PSELBits: 8, HighWatermark: 10},
		{NumSets: 8, LeaderSets: 0, ATDWays: 1, PSELBits: 8, HighWatermark: 10},
		{NumSets: 8, LeaderSets: 16, ATDWays: 1, PSELBits: 8, HighWatermark: 10},
		{NumSets: 8, LeaderSets: 2, ATDWays: 0, PSELBits: 8, HighWatermark: 10},
		{NumSets: 8, LeaderSets: 2, ATDWays: 1, PSELBits: 0},
		{NumSets: 8, LeaderSets: 2, ATDWays: 1, PSELBits: 8, LowWatermark: 200, HighWatermark: 100},
		{NumSets: 8, LeaderSets: 2, ATDWays: 1, PSELBits: 4, LowWatermark: 2, HighWatermark: 100},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d should fail: %+v", i, c)
		}
	}
}

func TestLeaderSelection(t *testing.T) {
	s := New(Config{NumSets: 64, LeaderSets: 8, ATDWays: 2, PSELBits: 8, LowWatermark: 64, HighWatermark: 192})
	leaders := 0
	for i := 0; i < 64; i++ {
		if s.IsLeader(i) {
			leaders++
		}
	}
	if leaders != 8 {
		t.Errorf("found %d leaders, want 8", leaders)
	}
	if !s.IsLeader(0) || !s.IsLeader(8) || s.IsLeader(1) {
		t.Error("leader spacing wrong")
	}
}

func TestStartsEnabled(t *testing.T) {
	s := New(DefaultConfig(64))
	if !s.Enabled() {
		t.Error("sampler should start enabled")
	}
}

func TestDisablesWhenPolicyLoses(t *testing.T) {
	s := New(DefaultConfig(64))
	// Policy misses in a leader set drive PSEL down below the low
	// watermark -> disabled.
	for i := 0; i < 100; i++ {
		s.RecordPolicyMiss(0)
	}
	if s.Enabled() {
		t.Errorf("policy should be disabled (PSEL=%d)", s.PSEL())
	}
	if s.PolicyMisses != 100 {
		t.Errorf("PolicyMisses = %d", s.PolicyMisses)
	}
}

func TestEnablesWhenTraditionalLoses(t *testing.T) {
	s := New(DefaultConfig(64))
	for i := 0; i < 100; i++ {
		s.RecordPolicyMiss(0)
	}
	if s.Enabled() {
		t.Fatal("precondition: disabled")
	}
	// ATD misses (distinct lines thrash the 8-way ATD set) drive PSEL up.
	for i := 0; i < 300; i++ {
		s.ObserveATD(0, mem.LineAddr(uint64(i)*64))
	}
	if !s.Enabled() {
		t.Errorf("policy should be re-enabled (PSEL=%d)", s.PSEL())
	}
	if s.Flips != 2 {
		t.Errorf("Flips = %d, want 2", s.Flips)
	}
}

func TestHysteresisRetainsDecision(t *testing.T) {
	cfg := DefaultConfig(64)
	s := New(cfg)
	// Drive PSEL just below the high watermark from the middle: stays
	// at its previous (enabled) decision; then from disabled, a value in
	// the dead band must keep it disabled.
	for i := 0; i < 200; i++ {
		s.RecordPolicyMiss(0) // saturate to 0 -> disabled
	}
	if s.Enabled() {
		t.Fatal("should be disabled")
	}
	// Bring PSEL into the dead band (between 64 and 192): still disabled.
	for i := 0; i < 100; i++ {
		s.ObserveATD(0, mem.LineAddr(uint64(i)*64))
	}
	if s.PSEL() <= cfg.LowWatermark || s.PSEL() >= cfg.HighWatermark {
		t.Fatalf("PSEL %d not in dead band", s.PSEL())
	}
	if s.Enabled() {
		t.Error("dead band must retain the previous (disabled) decision")
	}
}

func TestNonLeaderIgnored(t *testing.T) {
	s := New(DefaultConfig(64))
	before := s.PSEL()
	s.RecordPolicyMiss(1)
	s.ObserveATD(1, 0)
	if s.PSEL() != before || s.PolicyMisses != 0 || s.ATDMisses != 0 {
		t.Error("non-leader sets must not affect the sampler")
	}
}

func TestATDModelsLRU(t *testing.T) {
	s := New(Config{NumSets: 8, LeaderSets: 8, ATDWays: 2, PSELBits: 8, LowWatermark: 64, HighWatermark: 192})
	// Lines mapping to set 0: multiples of 8.
	a, b, c := mem.LineAddr(0), mem.LineAddr(8), mem.LineAddr(16)
	s.ObserveATD(0, a) // miss
	s.ObserveATD(0, b) // miss
	s.ObserveATD(0, a) // hit (promotes a)
	s.ObserveATD(0, c) // miss, evicts b
	s.ObserveATD(0, a) // hit
	s.ObserveATD(0, b) // miss again (was evicted)
	if s.ATDMisses != 4 {
		t.Errorf("ATDMisses = %d, want 4", s.ATDMisses)
	}
	// The leader sets share one arena: filling set 1 (lines 1 mod 8)
	// must leave set 0's b and a resident.
	s.ObserveATD(1, 1)  // miss
	s.ObserveATD(1, 9)  // miss
	s.ObserveATD(1, 17) // miss, evicts 1
	s.ObserveATD(0, b)  // hit
	s.ObserveATD(0, a)  // hit
	s.ObserveATD(1, 9)  // hit
	if s.ATDMisses != 7 {
		t.Errorf("ATDMisses = %d after filling a neighbour set, want 7", s.ATDMisses)
	}
}

// TestNewAllocs pins the sampler's construction cost: the leader sets'
// tag lists live in one arena, so New makes a constant handful of
// allocations however many leader sets it shadows.
func TestNewAllocs(t *testing.T) {
	cfg := DefaultConfig(2048)
	if n := testing.AllocsPerRun(20, func() { New(cfg) }); n > 3 {
		t.Errorf("New(DefaultConfig(2048)) makes %v allocations, want at most 3", n)
	}
}

func TestStorageBits(t *testing.T) {
	s := New(DefaultConfig(2048))
	// Paper Table 3: 32 sets * 8 ways * 4B = 1kB for the ATD.
	atdBits := 32 * 8 * 32
	if got := s.StorageBits(); got != atdBits+8 {
		t.Errorf("StorageBits = %d, want %d", got, atdBits+8)
	}
}
