package branch

import (
	"fmt"
	"testing"

	"ldis/internal/mem"
)

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{GshareEntries: 0, PAsEntries: 4, ChooserEntries: 4, PAsHistoryBits: 4},
		{GshareEntries: 3, PAsEntries: 4, ChooserEntries: 4, PAsHistoryBits: 4},
		{GshareEntries: 4, PAsEntries: 4, ChooserEntries: 4, PAsHistoryBits: 0},
		{GshareEntries: 4, PAsEntries: 4, ChooserEntries: 4, PAsHistoryBits: 20},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("%+v should fail", c)
		}
	}
}

func TestCounterSaturation(t *testing.T) {
	c := satNext[0<<1|0]
	if c != 0 {
		t.Error("should saturate at 0")
	}
	for i := 0; i < 5; i++ {
		c = satNext[c<<1|1]
	}
	if c != 3 || c>>1 != 1 {
		t.Errorf("should saturate at 3, got %d", c)
	}
	// Both tables against the rules written out with branches.
	for c := counter2(0); c < 4; c++ {
		for _, taken := range []bool{false, true} {
			if got, want := satNext[c<<1|b2u(taken)], refUpdate(c, taken); got != want {
				t.Errorf("satNext[%d, %v] = %d, want %d", c, taken, got, want)
			}
		}
		for _, disagree := range []bool{false, true} {
			for _, gRight := range []bool{false, true} {
				want := c
				if disagree {
					want = refUpdate(c, gRight)
				}
				if got := chooserNext[c<<2|b2u(disagree)<<1|b2u(gRight)]; got != want {
					t.Errorf("chooserNext[%d, %v, %v] = %d, want %d", c, disagree, gRight, got, want)
				}
			}
		}
	}
}

func TestAlwaysTakenBranchLearned(t *testing.T) {
	p := New(DefaultConfig())
	pc := mem.Addr(0x400)
	miss := 0
	for i := 0; i < 1000; i++ {
		if p.PredictAndUpdate(pc, true) {
			miss++
		}
	}
	if miss > 2 {
		t.Errorf("always-taken branch mispredicted %d/1000 times", miss)
	}
}

func TestAlternatingBranchLearnedByLocalHistory(t *testing.T) {
	// A strict T/NT alternation defeats 2-bit counters but is perfectly
	// predictable from local history: the PAs side should capture it
	// after warmup.
	p := New(DefaultConfig())
	pc := mem.Addr(0x500)
	missLate := 0
	for i := 0; i < 4000; i++ {
		mis := p.PredictAndUpdate(pc, i%2 == 0)
		if i >= 2000 && mis {
			missLate++
		}
	}
	if rate := float64(missLate) / 2000; rate > 0.05 {
		t.Errorf("alternating branch mispredict rate %.3f after warmup", rate)
	}
}

func TestRandomBranchesMispredictHalf(t *testing.T) {
	// Outcomes must be decorrelated from anything a 16-bit history can
	// key on, so use a strong 64-bit mixer over the iteration index.
	// (A plain xorshift bit stream is actually *learnable* through the
	// global history — the hybrid gets it ~95% right.)
	mix := func(x uint64) uint64 {
		x += 0x9e3779b97f4a7c15
		x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
		x = (x ^ (x >> 27)) * 0x94d049bb133111eb
		return x ^ (x >> 31)
	}
	p := New(DefaultConfig())
	miss := 0
	const n = 20000
	for i := 0; i < n; i++ {
		pc := mem.Addr(0x1000 + mix(uint64(i)^0xabc)%512*4)
		if p.PredictAndUpdate(pc, mix(uint64(i))>>33&1 == 0) {
			miss++
		}
	}
	rate := float64(miss) / n
	if rate < 0.4 || rate > 0.6 {
		t.Errorf("random branches mispredict rate %.3f, want ~0.5", rate)
	}
}

func TestStatsAccumulate(t *testing.T) {
	p := New(DefaultConfig())
	for i := 0; i < 100; i++ {
		p.PredictAndUpdate(0x400, true)
	}
	st := p.Stats()
	if st.Branches != 100 {
		t.Errorf("branches = %d", st.Branches)
	}
	if st.GshareUsed+st.PAsUsed != 100 {
		t.Errorf("component usage %d+%d != 100", st.GshareUsed, st.PAsUsed)
	}
	if st.Rate() < 0 || st.Rate() > 1 {
		t.Errorf("rate = %v", st.Rate())
	}
	if (Stats{}).Rate() != 0 {
		t.Error("empty rate should be 0")
	}
}

// refUpdate is the 2-bit saturating update written out with branches.
func refUpdate(c counter2, taken bool) counter2 {
	if taken {
		if c < 3 {
			return c + 1
		}
		return c
	}
	if c > 0 {
		return c - 1
	}
	return c
}

// refPredictor is the hybrid written the straightforward way: branches
// on every outcome, indices masked from the config on every call, and
// both usage counters kept. Predictor must match it branch by branch.
type refPredictor struct {
	cfg     Config
	gshare  []counter2
	pas     []counter2
	pasHist []uint16
	chooser []counter2
	ghist   uint64
	st      Stats
}

func newRef(cfg Config) *refPredictor {
	p := &refPredictor{
		cfg:     cfg,
		gshare:  make([]counter2, cfg.GshareEntries),
		pas:     make([]counter2, cfg.PAsEntries),
		pasHist: make([]uint16, cfg.PAsEntries),
		chooser: make([]counter2, cfg.ChooserEntries),
	}
	for _, tab := range [][]counter2{p.gshare, p.pas, p.chooser} {
		for i := range tab {
			tab[i] = 2
		}
	}
	return p
}

func (p *refPredictor) PredictAndUpdate(pc mem.Addr, taken bool) (mispredicted bool) {
	gi := int((uint64(pc)>>2 ^ p.ghist) & uint64(p.cfg.GshareEntries-1))
	hi := int(uint64(pc) >> 2 & uint64(p.cfg.PAsEntries-1))
	mask := uint16(1)<<p.cfg.PAsHistoryBits - 1
	ph := int((uint64(p.pasHist[hi]&mask)<<6 ^ uint64(pc)>>2) & uint64(p.cfg.PAsEntries-1))
	ci := int(uint64(pc) >> 2 & uint64(p.cfg.ChooserEntries-1))

	gPred := p.gshare[gi] >= 2
	lPred := p.pas[ph] >= 2

	var pred bool
	if p.chooser[ci] >= 2 {
		pred = gPred
		p.st.GshareUsed++
	} else {
		pred = lPred
		p.st.PAsUsed++
	}
	if gPred != lPred {
		p.chooser[ci] = refUpdate(p.chooser[ci], gPred == taken)
	}
	p.gshare[gi] = refUpdate(p.gshare[gi], taken)
	p.pas[ph] = refUpdate(p.pas[ph], taken)

	var t uint16
	if taken {
		t = 1
	}
	p.pasHist[hi] = p.pasHist[hi]<<1 | t
	p.ghist = p.ghist<<1 | uint64(t)

	p.st.Branches++
	if pred != taken {
		p.st.Mispredicts++
		return true
	}
	return false
}

// diffAgainstRef feeds both predictors the same branches and fails at
// the first branch where the return value or any counter differs.
func diffAgainstRef(t *testing.T, cfg Config, pcs []mem.Addr, outcomes []bool) {
	t.Helper()
	p, ref := New(cfg), newRef(cfg)
	for i, pc := range pcs {
		got, want := p.PredictAndUpdate(pc, outcomes[i]), ref.PredictAndUpdate(pc, outcomes[i])
		if got != want || p.Stats() != ref.st {
			t.Fatalf("%+v branch %d (pc %#x, taken %v): mispredicted %v, stats %+v; reference %v, %+v",
				cfg, i, pc, outcomes[i], got, p.Stats(), want, ref.st)
		}
	}
}

// splitmix64 is a seeded generator for the reference streams.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

func TestPredictorMatchesReference(t *testing.T) {
	configs := map[string]Config{
		"default": DefaultConfig(),
		"small":   {GshareEntries: 1 << 10, PAsEntries: 1 << 10, PAsHistoryBits: 4, ChooserEntries: 256},
	}
	// Each stream mixes the populations the CPU model synthesizes:
	// always-taken sites, alternating sites and random sites, over a PC
	// range wide enough to alias in the small tables.
	for name, cfg := range configs {
		for seed := uint64(1); seed <= 3; seed++ {
			const n = 50_000
			pcs, outcomes := make([]mem.Addr, n), make([]bool, n)
			visits := map[mem.Addr]int{}
			for i := range pcs {
				r := splitmix64(seed<<32 | uint64(i))
				pc := mem.Addr(0x400000 + r%4096*4)
				visits[pc]++
				switch r >> 60 {
				case 0, 1, 2, 3:
					outcomes[i] = r>>33&1 == 0
				case 4, 5:
					outcomes[i] = visits[pc]%2 != 0
				default:
					outcomes[i] = true
				}
				pcs[i] = pc
			}
			t.Run(fmt.Sprintf("%s/seed%d", name, seed), func(t *testing.T) { diffAgainstRef(t, cfg, pcs, outcomes) })
		}
	}
}

// FuzzPredictorMatchesReference derives a table geometry from the first
// two bytes and a branch stream from the rest: each byte pair is one
// branch, its PC from the first byte and its outcome from the second
// byte's low bit.
func FuzzPredictorMatchesReference(f *testing.F) {
	f.Add([]byte{0x00, 0x00, 1, 1, 1, 1, 1, 0, 1, 1})
	f.Add([]byte{0x35, 0x9c, 4, 1, 4, 0, 4, 1, 4, 0, 8, 1, 8, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		cfg := Config{
			GshareEntries:  1 << (data[0] & 7),
			PAsEntries:     1 << (data[0] >> 3 & 7),
			ChooserEntries: 1 << (data[1] & 7),
			PAsHistoryBits: 1 + int(data[1]>>3)%16,
		}
		var pcs []mem.Addr
		var outcomes []bool
		for i := 2; i+1 < len(data); i += 2 {
			pcs = append(pcs, mem.Addr(data[i])<<2)
			outcomes = append(outcomes, data[i+1]&1 != 0)
		}
		diffAgainstRef(t, cfg, pcs, outcomes)
	})
}
