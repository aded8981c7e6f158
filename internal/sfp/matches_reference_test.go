package sfp_test

import (
	"fmt"
	"slices"
	"testing"

	"ldis/internal/exp"
	"ldis/internal/hierarchy"
	"ldis/internal/mem"
	"ldis/internal/sampler"
	"ldis/internal/sfp"
	"ldis/internal/workload"
)

// twin drives sfp.Cache and the reference cache with the same calls
// and fails at the first call whose outcome, returned valid mask or
// Stats differ, or after which the called set's lines sit in different
// places or hold different words. It is a hierarchy.L2, so a System's
// L1D produces the calls exactly as in a simulation.
type twin struct {
	tb       testing.TB
	c        *sfp.Cache
	r        *refCache
	calls    int
	got, ref []sfp.PlacedLine // reused set listings
}

func newTwin(tb testing.TB, cfg sfp.Config) *twin {
	return &twin{tb: tb, c: sfp.New(cfg), r: newRef(cfg)}
}

func (w *twin) Access(la mem.LineAddr, word int, pc mem.Addr, write bool) (hierarchy.Class, mem.Footprint) {
	hit, valid := w.c.Access(la, word, pc, write)
	refHit, refValid := w.r.access(la, word, pc, write)
	if hit != refHit || valid != refValid {
		w.tb.Fatalf("call %d: Access(%v, word %d, pc %#x, write %v) = %v %v, reference %v %v",
			w.calls, la, word, pc, write, hit, valid, refHit, refValid)
	}
	w.check(la)
	if hit {
		return hierarchy.L2Hit, valid
	}
	return hierarchy.L2Miss, valid
}

// AccessInstr: SFP predicts instruction fetches like data, as
// hierarchy.SFPL2 does.
func (w *twin) AccessInstr(la mem.LineAddr, pc mem.Addr) (hierarchy.Class, mem.Footprint) {
	return w.Access(la, 0, pc, false)
}

func (w *twin) WritebackFromL1(la mem.LineAddr, fp, dirty mem.Footprint) {
	w.c.WritebackFromL1(la, fp, dirty)
	w.r.writebackFromL1(la, fp, dirty)
	w.check(la)
}

func (w *twin) Misses() uint64   { return w.c.Stats().Misses() }
func (w *twin) Accesses() uint64 { return w.c.Stats().Accesses }

// check compares the counters, the line's stored words and the called
// set's lines after every call, and the reverter's state and the
// cache's invariants every 4096 calls and at the end (verify).
func (w *twin) check(la mem.LineAddr) {
	w.calls++
	if got, want := *w.c.Stats(), w.r.st; got != want {
		w.tb.Fatalf("call %d: stats\n got %+v\nwant %+v", w.calls, got, want)
	}
	if got, want := w.c.StoredWords(la), w.r.stored(la); got != want {
		w.tb.Fatalf("call %d: %v stores %v, reference %v", w.calls, la, got, want)
	}
	w.got, w.ref = sfp.SetLines(w.c, la, w.got), w.r.setLines(la, w.ref)
	if !slices.Equal(w.got, w.ref) {
		w.tb.Fatalf("call %d: lines of %v's set\n got %+v\nwant %+v", w.calls, la, w.got, w.ref)
	}
	if w.calls%4096 == 0 {
		w.verify()
	}
}

func (w *twin) verify() {
	if smp := w.c.Sampler(); smp != nil && (int(smp.PSEL()) != w.r.psel || smp.Enabled() != w.r.enabled) {
		w.tb.Fatalf("call %d: PSEL %d enabled %v, reference %d %v", w.calls, smp.PSEL(), smp.Enabled(), w.r.psel, w.r.enabled)
	}
	if err := w.c.CheckInvariants(); err != nil {
		w.tb.Fatalf("call %d: %v", w.calls, err)
	}
}

// keyConfig is the SFP configuration an experiment key builds for a
// benchmark.
func keyConfig(t *testing.T, key, bench string) sfp.Config {
	t.Helper()
	sys, err := exp.Build(key, bench, nil)
	if err != nil {
		t.Fatal(err)
	}
	return sfp.ConfigOf(sys.L2.(*hierarchy.SFPL2).C)
}

// tinyRefConfig is a 256-set, 4-way cache with a tag budget of 3,
// below the 4 full lines a set can hold, so the budget evicts whatever
// the predictor installs; a 64-entry predictor that aliases; and a
// reverter with a 4-bit PSEL and a narrow band, so follower sets switch
// between predicted and full installs within a run.
func tinyRefConfig(seed uint64) sfp.Config {
	return sfp.Config{
		Name: "tiny", SizeBytes: 256 * 4 * mem.LineSize, Ways: 4,
		PredictorEntries: 64, TagsPerSet: 3, Reverter: true, Seed: seed,
		SamplerConfig: &sampler.Config{NumSets: 256, LeaderSets: 16, ATDWays: 4, PSELBits: 4, LowWatermark: 6, HighWatermark: 9},
	}
}

// TestSFPMatchesReference runs every bundled benchmark through an L1D
// over sfp.Cache and over the reference, for sfp-16k, sfp-64k and the
// tiny configuration: the first 100k accesses, and 1M for swim. swim
// is the one benchmark whose lines change PC between touches (its
// two-phase pattern), and its first lap over its 4MB region takes most
// of 1M accesses, so only a longer run reaches hole misses whose
// refetch is predicted under a PC other than the installing one. The
// runs together must reach every path: predictor hits, evictions,
// hole misses, dirty writebacks and reverter-forced full installs.
func TestSFPMatchesReference(t *testing.T) {
	var total sfp.Stats
	fullFollowers := 0
	for _, bench := range workload.Names() {
		prof, err := workload.ByName(bench)
		if err != nil {
			t.Fatal(err)
		}
		n := 100_000
		switch {
		case bench == "swim":
			n = 1_000_000
		case testing.Short():
			n = 20_000
		}
		for _, tc := range []struct {
			name string
			cfg  sfp.Config
		}{
			{"sfp-16k", keyConfig(t, "sfp-16k", bench)},
			{"sfp-64k", keyConfig(t, "sfp-64k", bench)},
			{"tiny", tinyRefConfig(prof.Seed)},
		} {
			t.Run(fmt.Sprintf("%s/%s", bench, tc.name), func(t *testing.T) {
				w := newTwin(t, tc.cfg)
				if got := hierarchy.NewSystem(w).Run(prof.Stream(), n); got != n {
					t.Fatalf("ran %d accesses, want %d", got, n)
				}
				w.verify()
				st := w.c.Stats()
				total.PredictorHits += st.PredictorHits
				total.Evictions += st.Evictions
				total.HoleMisses += st.HoleMisses
				total.Writebacks += st.Writebacks
				fullFollowers += w.r.fullFollowers
			})
		}
	}
	if total.PredictorHits == 0 || total.Evictions == 0 || total.HoleMisses == 0 || total.Writebacks == 0 || fullFollowers == 0 {
		t.Errorf("coverage: predictor hits %d, evictions %d, hole misses %d, writebacks %d, forced full installs %d",
			total.PredictorHits, total.Evictions, total.HoleMisses, total.Writebacks, fullFollowers)
	}
}

// TestSFPMatchesReferenceRandomCalls drives the tiny configuration
// with seeded random calls the bundled benchmarks never make: each
// access takes one of 8 PCs regardless of its line, and one call in 8
// is an L1D writeback with random used and dirty words.
func TestSFPMatchesReferenceRandomCalls(t *testing.T) {
	w := newTwin(t, tinyRefConfig(7))
	rng := uint64(12345)
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	for range 200_000 {
		la := mem.LineAddr(next() % 4096)
		if next()%8 == 0 {
			w.WritebackFromL1(la, mem.Footprint(next()), mem.Footprint(next())&mem.Footprint(next()))
			continue
		}
		w.Access(la, int(next()%8), mem.Addr(0x1000+next()%8*4), next()%4 == 0)
	}
	w.verify()
	if w.r.otherPC == 0 {
		t.Error("no hole miss refetched under another PC")
	}
}
