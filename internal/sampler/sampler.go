// Package sampler implements dynamic set sampling (Qureshi et al.,
// ISCA-33 [12]), the machinery behind the paper's reverter circuit
// (Section 5.5): a few leader sets always run the experimental policy
// while an Auxiliary Tag Directory (ATD) models the traditional cache
// for the same sets; an 8-bit PSEL saturating counter compares miss
// counts and, with hysteresis, enables or disables the policy for the
// remaining follower sets.
package sampler

import (
	"fmt"

	"ldis/internal/mem"
	"ldis/internal/stats"
)

// Config parameterizes the sampler. The paper's values: 32 leader sets
// out of 2048, an 8-way LRU ATD, an 8-bit PSEL, disable below 64 and
// enable above 192.
type Config struct {
	NumSets    int
	LeaderSets int
	ATDWays    int
	PSELBits   int
	// LowWatermark disables the policy when PSEL drops below it;
	// HighWatermark enables it when PSEL rises above it. Between the
	// two, the previous decision is retained (hysteresis).
	LowWatermark  uint32
	HighWatermark uint32
}

// DefaultConfig returns the paper's reverter parameters for a cache
// with numSets sets.
func DefaultConfig(numSets int) Config {
	leaders := 32
	if numSets < 64 {
		// Scale down for small test caches: 1 leader per 2 sets, min 1.
		leaders = numSets / 2
		if leaders == 0 {
			leaders = 1
		}
	}
	return Config{
		NumSets:       numSets,
		LeaderSets:    leaders,
		ATDWays:       8,
		PSELBits:      8,
		LowWatermark:  64,
		HighWatermark: 192,
	}
}

// Validate checks the sampler parameters.
func (c Config) Validate() error {
	if c.NumSets <= 0 || c.NumSets&(c.NumSets-1) != 0 {
		return fmt.Errorf("sampler: NumSets %d must be a positive power of two", c.NumSets)
	}
	if c.LeaderSets <= 0 || c.LeaderSets > c.NumSets {
		return fmt.Errorf("sampler: LeaderSets %d out of range (1..%d)", c.LeaderSets, c.NumSets)
	}
	if c.ATDWays <= 0 {
		return fmt.Errorf("sampler: ATDWays must be positive")
	}
	if c.PSELBits <= 0 || c.PSELBits > 31 {
		return fmt.Errorf("sampler: PSELBits %d out of range", c.PSELBits)
	}
	max := uint32(1)<<c.PSELBits - 1
	if c.LowWatermark > c.HighWatermark || c.HighWatermark > max {
		return fmt.Errorf("sampler: watermarks %d/%d invalid for %d-bit PSEL", c.LowWatermark, c.HighWatermark, c.PSELBits)
	}
	return nil
}

type atdEntry struct {
	valid bool
	tag   uint64
}

// Sampler tracks the leader-set ATD and the PSEL decision.
type Sampler struct {
	cfg     Config
	stride  int
	geom    mem.Geometry // the shadowed traditional cache's set mapping, for ATD tags
	psel    *stats.SatCounter
	enabled bool
	atd     []atdEntry // LeaderSets LRU tag lists of ATDWays entries each, MRU-first

	// Counters for observability.
	PolicyMisses uint64 // leader-set misses under the experimental policy
	ATDMisses    uint64 // leader-set misses the traditional cache would take
	Flips        uint64 // enable/disable transitions
}

// New builds a sampler; panics on invalid config.
func New(cfg Config) *Sampler {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	s := &Sampler{
		cfg:     cfg,
		stride:  cfg.NumSets / cfg.LeaderSets,
		psel:    stats.NewSatCounter(uint32(1)<<cfg.PSELBits - 1),
		enabled: true, // the experimental policy starts enabled
		atd:     make([]atdEntry, cfg.LeaderSets*cfg.ATDWays),
	}
	// The ATD shadows a NumSets-set, ATDWays-way traditional cache;
	// Validate accepted both counts.
	s.geom, _ = mem.NewGeometry(cfg.NumSets*cfg.ATDWays*mem.LineSize, cfg.ATDWays)
	return s
}

// IsLeader reports whether setIdx is a leader set. Leaders are evenly
// spaced through the index space.
func (s *Sampler) IsLeader(setIdx int) bool {
	return setIdx%s.stride == 0 && setIdx/s.stride < s.cfg.LeaderSets
}

// leaderIndex maps a leader set index to its ATD slot.
func (s *Sampler) leaderIndex(setIdx int) int { return setIdx / s.stride }

// RecordPolicyMiss notes a miss in a leader set under the experimental
// policy (a distill-cache miss for the reverter). Calls for non-leader
// sets are ignored, so callers can invoke it unconditionally.
func (s *Sampler) RecordPolicyMiss(setIdx int) {
	if !s.IsLeader(setIdx) {
		return
	}
	s.PolicyMisses++
	s.psel.Dec()
	s.decide()
}

// ObserveATD replays the access in the traditional-cache tag directory
// for leader sets; an ATD miss increments PSEL. Non-leader sets are
// ignored.
func (s *Sampler) ObserveATD(setIdx int, line mem.LineAddr) {
	if !s.IsLeader(setIdx) {
		return
	}
	w := s.cfg.ATDWays
	li := s.leaderIndex(setIdx)
	set := s.atd[li*w : (li+1)*w]
	tag := s.geom.Tag(line)
	for pos := range set {
		if set[pos].valid && set[pos].tag == tag {
			e := set[pos]
			copy(set[1:pos+1], set[0:pos])
			set[0] = e
			return
		}
	}
	s.ATDMisses++
	s.psel.Inc()
	s.decide()
	copy(set[1:], set[:len(set)-1])
	set[0] = atdEntry{valid: true, tag: tag}
}

// decide applies the hysteresis rule.
func (s *Sampler) decide() {
	v := s.psel.Value()
	switch {
	case v < s.cfg.LowWatermark:
		if s.enabled {
			s.Flips++
		}
		s.enabled = false
	case v > s.cfg.HighWatermark:
		if !s.enabled {
			s.Flips++
		}
		s.enabled = true
	}
}

// Enabled reports whether the experimental policy should currently be
// applied to follower sets. Leader sets always run the policy.
func (s *Sampler) Enabled() bool { return s.enabled }

// PSEL exposes the current counter value for diagnostics.
func (s *Sampler) PSEL() uint32 { return s.psel.Value() }

// StorageBits returns the hardware cost of the sampler: ATD tag entries
// (the paper charges 4B each, Table 3) plus the PSEL counter.
func (s *Sampler) StorageBits() int {
	return s.cfg.LeaderSets*s.cfg.ATDWays*32 + s.cfg.PSELBits
}
