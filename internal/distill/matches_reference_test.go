package distill_test

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"ldis/internal/distill"
	"ldis/internal/exp"
	"ldis/internal/hierarchy"
	"ldis/internal/mem"
	"ldis/internal/sampler"
	"ldis/internal/workload"
)

// twin drives distill.Cache and the reference cache with the same
// calls and fails at the first call whose outcome, returned valid bits
// or Stats differ, or after which the called set's WOC lines sit in
// different places or hold different words. It is a hierarchy.L2, so a System's L1D produces
// the calls exactly as in a simulation.
type twin struct {
	tb       testing.TB
	c        *distill.Cache
	r        *refCache
	calls    int
	got, ref []distill.WOCLine // reused WOC listings
}

func newTwin(tb testing.TB, cfg distill.Config) *twin {
	return &twin{tb: tb, c: distill.New(cfg), r: newRef(cfg)}
}

func (w *twin) access(la mem.LineAddr, word int, write, instr bool) distill.AccessResult {
	var got distill.AccessResult
	if instr {
		got = w.c.AccessInstruction(la, word, write)
	} else {
		got = w.c.Access(la, word, write)
	}
	want := w.r.access(la, word, write, instr)
	if got != want {
		w.tb.Fatalf("call %d: access(%v, word %d, write %v, instr %v) = %v %v, reference %v %v",
			w.calls, la, word, write, instr, got.Outcome, got.ValidBits, want.Outcome, want.ValidBits)
	}
	w.check(la)
	return got
}

func (w *twin) writeback(la mem.LineAddr, fp, dirty mem.Footprint) {
	w.c.WritebackFromL1(la, fp, dirty)
	w.r.writebackFromL1(la, fp, dirty)
	w.check(la)
}

// check compares the counters and the called set's WOC after every
// call, and the histograms and the reverter's state every 4096 calls
// and at the end (verify).
func (w *twin) check(la mem.LineAddr) {
	w.calls++
	got, want := *w.c.Stats(), w.r.st
	got.WordsUsedAtEvict, got.FPChangePos = nil, nil
	want.WordsUsedAtEvict, want.FPChangePos = nil, nil
	if got != want {
		w.tb.Fatalf("call %d: stats\n got %+v\nwant %+v", w.calls, got, want)
	}
	w.got, w.ref = distill.WOCSet(w.c, la, w.got), w.r.wocSet(la, w.ref)
	if !slices.Equal(w.got, w.ref) {
		w.tb.Fatalf("call %d: WOC of %v's set\n got %+v\nwant %+v", w.calls, la, w.got, w.ref)
	}
	if w.calls%4096 == 0 {
		w.verify()
	}
}

func (w *twin) verify() {
	st := w.c.Stats()
	for _, h := range []struct {
		name      string
		got, want interface{ Count(int) uint64 }
		n         int
	}{
		{"words used at evict", st.WordsUsedAtEvict, w.r.st.WordsUsedAtEvict, st.WordsUsedAtEvict.Len()},
		{"fp-change position", st.FPChangePos, w.r.st.FPChangePos, st.FPChangePos.Len()},
	} {
		for i := 0; i < h.n; i++ {
			if h.got.Count(i) != h.want.Count(i) {
				w.tb.Fatalf("call %d: %s bucket %d = %d, reference %d", w.calls, h.name, i, h.got.Count(i), h.want.Count(i))
			}
		}
	}
	if smp := w.c.Sampler(); smp != nil && (int(smp.PSEL()) != w.r.psel || smp.Enabled() != w.r.enabled) {
		w.tb.Fatalf("call %d: PSEL %d enabled %v, reference %d %v", w.calls, smp.PSEL(), smp.Enabled(), w.r.psel, w.r.enabled)
	}
	if w.c.MedianThreshold() != w.r.threshold {
		w.tb.Fatalf("call %d: threshold %d, reference %d", w.calls, w.c.MedianThreshold(), w.r.threshold)
	}
	if err := w.c.CheckInvariants(); err != nil {
		w.tb.Fatalf("call %d: %v", w.calls, err)
	}
}

// wocSet lists the reference's WOC lines in la's set in position order,
// each from its head entry and the entries that follow with its tag,
// appending to out[:0].
func (r *refCache) wocSet(la mem.LineAddr, out []distill.WOCLine) []distill.WOCLine {
	s := &r.sets[uint64(la)%uint64(len(r.sets))]
	out = out[:0]
	for pos, h := range s.woc {
		if !h.valid || !h.head {
			continue
		}
		l := distill.WOCLine{Line: h.line, Pos: pos}
		for i := pos; i < len(s.woc) && s.woc[i].valid && s.woc[i].line == h.line && (i == pos || !s.woc[i].head); i++ {
			l.Slots++
			l.Words |= s.woc[i].words
			l.Dirty |= s.woc[i].dirty
		}
		out = append(out, l)
	}
	return out
}

func class(r distill.AccessResult) hierarchy.Class {
	switch r.Outcome {
	case distill.LOCHit:
		return hierarchy.L2Hit
	case distill.WOCHit:
		return hierarchy.L2WOCHit
	}
	return hierarchy.L2Miss
}

func (w *twin) Access(la mem.LineAddr, word int, _ mem.Addr, write bool) (hierarchy.Class, mem.Footprint) {
	r := w.access(la, word, write, false)
	return class(r), r.ValidBits
}

func (w *twin) AccessInstr(la mem.LineAddr, _ mem.Addr) (hierarchy.Class, mem.Footprint) {
	r := w.access(la, 0, false, true)
	return class(r), r.ValidBits
}

func (w *twin) WritebackFromL1(la mem.LineAddr, fp, dirty mem.Footprint) { w.writeback(la, fp, dirty) }
func (w *twin) Misses() uint64                                           { return w.c.Stats().Misses() }
func (w *twin) Accesses() uint64                                         { return w.c.Stats().Accesses }

// keyConfig is the distill configuration an experiment key builds for
// a benchmark.
func keyConfig(t *testing.T, key, bench string) distill.Config {
	t.Helper()
	sys, err := exp.Build(key, bench, nil)
	if err != nil {
		t.Fatal(err)
	}
	return sys.L2.(*hierarchy.DistillL2).C.Config()
}

// shrink scales a configuration down to 64kB (128 sets), so that 50k
// accesses fill the WOC and, with the reverter, switch follower sets;
// at 1MB the WOC rarely fills that early.
func shrink(cfg distill.Config) distill.Config {
	cfg.SizeBytes = 64 << 10
	if cfg.Reverter {
		sc := *cfg.SamplerConfig
		sc.NumSets = cfg.Sets()
		cfg.SamplerConfig = &sc
	}
	return cfg
}

// TestDistillMatchesReference runs every bundled benchmark's first 50k
// accesses through an L1D over the distill cache and over the
// reference, for LDIS-Base, LDIS-Base with WOC-LRU replacement,
// LDIS-MT-RC and FAC (whose Slots hook both caches call), each at its
// key's size and shrunk to 64kB.
func TestDistillMatchesReference(t *testing.T) {
	n := 50_000
	if testing.Short() {
		n = 10_000
	}
	for _, bench := range workload.Names() {
		prof, err := workload.ByName(bench)
		if err != nil {
			t.Fatal(err)
		}
		lru := keyConfig(t, "ldis-base-2", bench)
		lru.WOCLRU = true
		for _, tc := range []struct {
			name string
			cfg  distill.Config
		}{
			{"ldis-base-2", keyConfig(t, "ldis-base-2", bench)},
			{"ldis-base-2+woc-lru", lru},
			{"ldis-mt-rc-2", keyConfig(t, "ldis-mt-rc-2", bench)},
			{"fac-3", keyConfig(t, "fac-3", bench)},
		} {
			for _, cfg := range []distill.Config{tc.cfg, shrink(tc.cfg)} {
				t.Run(fmt.Sprintf("%s/%s/%dkB", bench, tc.name, cfg.SizeBytes>>10), func(t *testing.T) {
					w := newTwin(t, cfg)
					if got := hierarchy.NewSystem(w).Run(prof.Stream(), n); got != n {
						t.Fatalf("ran %d accesses, want %d", got, n)
					}
					w.verify()
				})
			}
		}
	}
}

// fuzzConfig decodes a fuzz input's first byte into a small distill
// cache: 8 sets of 4 ways, one or two WOC ways, and the median
// threshold, a static threshold, the reverter (with a 4-bit PSEL and a
// narrow band so it flips both ways within an input), WOC-LRU and a
// Slots hook that halves the slot count, each selected by one bit.
func fuzzConfig(b byte) distill.Config {
	cfg := distill.Config{Name: "fuzz", SizeBytes: 8 * 4 * mem.LineSize, Ways: 4, WOCWays: 1 + int(b&1), Seed: 3}
	switch {
	case b&2 != 0:
		cfg.MedianThreshold = true
	case b&4 != 0:
		cfg.StaticThreshold = 2
	}
	if b&8 != 0 {
		cfg.Reverter = true
		cfg.SamplerConfig = &sampler.Config{NumSets: 8, LeaderSets: 2, ATDWays: 4, PSELBits: 4, LowWatermark: 6, HighWatermark: 9}
	}
	cfg.WOCLRU = b&16 != 0
	if b&32 != 0 {
		cfg.Slots = func(_ mem.LineAddr, used mem.Footprint) int { return max(mem.Pow2WordsFor(used.Count())/2, 1) }
	}
	return cfg
}

// runFuzzInput decodes and runs one input: byte 0 is the config, byte 1
// the number of rounds (1 to 64) the op body replays, and each
// following byte pair an op. The op's first byte holds the word (bits
// 0-2), the kind (bits 3-4: read, write, instruction fetch, L1D
// writeback) and, for a writeback, whether the word is dirty (bit 5);
// the second byte picks one of 256 lines, shifted by 37 lines a round.
func runFuzzInput(tb testing.TB, data []byte) *twin {
	if len(data) < 4 {
		return nil
	}
	w := newTwin(tb, fuzzConfig(data[0]))
	body := data[2 : 2+(len(data)-2)/2*2]
	for round := 0; round <= int(data[1]%64); round++ {
		for i := 0; i < len(body); i += 2 {
			op, word := body[i], int(body[i]&7)
			la := mem.LineAddr((int(body[i+1]) + 37*round) % 256)
			switch op >> 3 & 3 {
			case 0, 1:
				w.access(la, word, op>>3&3 == 1, false)
			case 2:
				w.access(la, word, false, true)
			case 3:
				var dirty mem.Footprint
				if op&32 != 0 {
					dirty = mem.FootprintOfWord(word)
				}
				w.writeback(la, mem.FootprintOfWord(word)|mem.FootprintOfWord((word+3)%8), dirty)
			}
		}
	}
	w.verify()
	return w
}

// FuzzDistillMatchesReference drives random call sequences through a
// small distill cache and the reference. The committed corpus
// (testdata/fuzz/FuzzDistillMatchesReference) holds inputs that fill
// the WOC, cross the median threshold's 4096-eviction window, switch
// follower sets both ways and distill dirty words;
// TestDistillReferenceCorpus keeps it doing so.
func FuzzDistillMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) { runFuzzInput(t, data) })
}

// TestDistillReferenceCorpus runs the committed fuzz corpus and
// requires it to cover what the seeds were written for: a WOC install
// with no free position, a line distilled with dirty words, a median
// recomputed below 8 that filters victims, and follower sets switching
// into traditional mode and back.
func TestDistillReferenceCorpus(t *testing.T) {
	files, err := filepath.Glob("testdata/fuzz/FuzzDistillMatchesReference/*")
	if err != nil || len(files) == 0 {
		t.Fatalf("no corpus: %v", err)
	}
	var full, dirty, median, switches bool
	for _, name := range files {
		raw, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		lit, ok := strings.CutPrefix(strings.TrimSpace(string(raw)), "go test fuzz v1\n[]byte(")
		data, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
		if !ok || err != nil {
			t.Fatalf("%s: not a one-[]byte corpus file: %v", name, err)
		}
		w := runFuzzInput(t, []byte(data))
		st := w.c.Stats()
		full = full || st.WOCEvictions > 0
		dirty = dirty || w.r.dirtyInstalls > 0
		median = median || (w.c.MedianThreshold() < mem.WordsPerLine && st.ThresholdSkips > 0)
		switches = switches || (w.c.Sampler() != nil && w.c.Sampler().Flips >= 2 && st.ModeSwitches >= 2)
	}
	if !full || !dirty || !median || !switches {
		t.Errorf("corpus coverage: full WOC %v, dirty distilled words %v, median window %v, mode switches both ways %v",
			full, dirty, median, switches)
	}
}
