// Package branch implements the baseline machine's branch predictor
// (paper Table 1): a hybrid of a 64k-entry gshare and a 64k-entry
// per-address (PAs) predictor with a chooser, all built from 2-bit
// saturating counters. The CPU timing model drives it with a synthetic
// branch-outcome stream derived from each workload profile, so
// mispredictions (and their minimum 15-cycle penalty) are produced
// mechanistically rather than charged statistically.
package branch

import (
	"fmt"

	"ldis/internal/mem"
)

// Config sizes the predictor tables. Entries must be powers of two.
type Config struct {
	GshareEntries  int // 64k in the baseline
	PAsEntries     int // 64k pattern-history counters
	PAsHistoryBits int // per-address history length
	ChooserEntries int
}

// DefaultConfig returns the paper's 64k/64k hybrid.
func DefaultConfig() Config {
	return Config{
		GshareEntries:  64 << 10,
		PAsEntries:     64 << 10,
		PAsHistoryBits: 10,
		ChooserEntries: 16 << 10,
	}
}

// Validate checks the table geometry.
func (c Config) Validate() error {
	for _, n := range []int{c.GshareEntries, c.PAsEntries, c.ChooserEntries} {
		if n <= 0 || n&(n-1) != 0 {
			return fmt.Errorf("branch: table size %d must be a positive power of two", n)
		}
	}
	if c.PAsHistoryBits < 1 || c.PAsHistoryBits > 16 {
		return fmt.Errorf("branch: PAs history bits %d out of [1,16]", c.PAsHistoryBits)
	}
	return nil
}

// counter2 is a 2-bit saturating counter: 0,1 predict not-taken; 2,3
// predict taken, so its high bit is its prediction.
type counter2 uint8

// satNext[c<<1|taken] is counter c trained on one outcome: the 2-bit
// saturating update as a table, so a random outcome costs no host
// branch.
var satNext = [8]counter2{0, 1, 0, 2, 1, 3, 2, 3}

// chooserNext[c<<2|disagree<<1|gshareRight] is chooser counter c after
// one branch. The tournament rule trains it toward whichever component
// was right, and only when the two components disagree.
var chooserNext = func() (t [16]counter2) {
	for i := range t {
		c := counter2(i >> 2)
		if i>>1&1 == 0 {
			t[i] = c
		} else {
			t[i] = satNext[c<<1|counter2(i&1)]
		}
	}
	return t
}()

// Stats counts predictor behaviour.
type Stats struct {
	Branches    uint64
	Mispredicts uint64
	GshareUsed  uint64
	PAsUsed     uint64
}

// Rate returns the misprediction rate.
func (s Stats) Rate() float64 {
	if s.Branches == 0 {
		return 0
	}
	return float64(s.Mispredicts) / float64(s.Branches)
}

// Predictor is the gshare/PAs hybrid.
type Predictor struct {
	gshare  []counter2
	pas     []counter2
	pasHist []uint16 // per-address local history
	chooser []counter2
	ghist   uint64

	// Index masks, fixed by the config.
	gMask, pMask, cMask uint64
	histMask            uint16

	branches, mispredicts, gshareUsed uint64
}

// New builds the predictor with all counters weakly taken; panics on
// invalid config.
func New(cfg Config) *Predictor {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	p := &Predictor{
		gshare:   make([]counter2, cfg.GshareEntries),
		pas:      make([]counter2, cfg.PAsEntries),
		pasHist:  make([]uint16, cfg.PAsEntries),
		chooser:  make([]counter2, cfg.ChooserEntries),
		gMask:    uint64(cfg.GshareEntries - 1),
		pMask:    uint64(cfg.PAsEntries - 1),
		cMask:    uint64(cfg.ChooserEntries - 1),
		histMask: uint16(1)<<cfg.PAsHistoryBits - 1,
	}
	for i := range p.gshare {
		p.gshare[i] = 2
	}
	for i := range p.pas {
		p.pas[i] = 2
	}
	for i := range p.chooser {
		p.chooser[i] = 2 // weakly prefer gshare
	}
	return p
}

// Stats returns the cumulative counters. Every branch uses exactly one
// component, so PAsUsed is the branches gshare did not serve.
func (p *Predictor) Stats() Stats {
	return Stats{
		Branches:    p.branches,
		Mispredicts: p.mispredicts,
		GshareUsed:  p.gshareUsed,
		PAsUsed:     p.branches - p.gshareUsed,
	}
}

// PredictAndUpdate runs one branch through the hybrid: both components
// predict, the chooser arbitrates, every structure trains on the actual
// outcome, and the return value reports whether the final prediction
// was wrong. Outcomes are 0/1 integers throughout and every update is a
// table lookup, so the host never branches on a simulated outcome.
//
//ldis:noalloc
func (p *Predictor) PredictAndUpdate(pc mem.Addr, taken bool) (mispredicted bool) {
	t := b2u(taken)
	a := uint64(pc) >> 2
	gi := (a ^ p.ghist) & p.gMask
	hi := a & p.pMask
	ph := (uint64(p.pasHist[hi]&p.histMask)<<6 ^ a) & p.pMask
	ci := a & p.cMask

	g, l, c := p.gshare[gi], p.pas[ph], p.chooser[ci]
	gPred, lPred, useG := g>>1, l>>1, c>>1
	pred := lPred ^ (gPred^lPred)&useG

	p.chooser[ci] = chooserNext[(c<<2|(gPred^lPred)<<1|gPred^t^1)&15]
	p.gshare[gi] = satNext[(g<<1|t)&7]
	p.pas[ph] = satNext[(l<<1|t)&7]
	p.pasHist[hi] = p.pasHist[hi]<<1 | uint16(t)
	p.ghist = p.ghist<<1 | uint64(t)

	miss := pred ^ t
	p.branches++
	p.gshareUsed += uint64(useG)
	p.mispredicts += uint64(miss)
	return miss != 0
}

// b2u returns b as a 0/1 counter2; the compiler lowers it to a
// zero-extension, not a branch.
func b2u(b bool) counter2 {
	if b {
		return 1
	}
	return 0
}
