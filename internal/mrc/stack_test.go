package mrc

import (
	"testing"

	"ldis/internal/mem"
)

// naiveStack is the O(M) reference for Engine: an explicit LRU list
// (most recent first) under the same SHARDS gate, fixed-size eviction
// rule and histogram bucketing, with none of the Fenwick tree, running
// totals, clock compaction or hash table.
type naiveStack struct {
	cfg       Config
	buckets   int
	threshold uint64
	invR      float64
	lines     []naiveLine

	histLine, histWord []float64
	cold, refs         float64
}

type naiveLine struct {
	key, hash uint64
	fp        mem.Footprint
}

func newNaiveStack(cfg Config) *naiveStack {
	cfg = cfg.withDefaults()
	n := &naiveStack{cfg: cfg, buckets: cfg.MaxBytes / cfg.ResolutionBytes, threshold: ^uint64(0), invR: 1}
	if cfg.SampleRate < 1 {
		n.threshold = uint64(cfg.SampleRate * twoPow64)
		n.invR = twoPow64 / float64(n.threshold)
	}
	n.histLine = make([]float64, n.buckets+2)
	n.histWord = make([]float64, n.buckets+2)
	return n
}

func (n *naiveStack) gate(key uint64) (hash uint64, ok bool) {
	if n.cfg.SampleRate >= 1 {
		return 0, true
	}
	hash = mem.SplitMix64(key ^ n.cfg.Seed)
	return hash, hash < n.threshold
}

func (n *naiveStack) find(key uint64) int {
	for i := range n.lines {
		if n.lines[i].key == key {
			return i
		}
	}
	return -1
}

func (n *naiveStack) record(hist []float64, d float64) {
	b := 1
	for float64(b*n.cfg.ResolutionBytes) < d && b <= n.buckets {
		b++
	}
	hist[b] += n.invR
}

// access mirrors Engine.touch followed by its histogram recording.
func (n *naiveStack) access(line mem.LineAddr, word int) (dLine, dWord float64, reuse bool) {
	n.refs++
	key := uint64(line)
	hash, ok := n.gate(key)
	if !ok {
		return 0, 0, false
	}
	if i := n.find(key); i >= 0 {
		above := 0
		for _, l := range n.lines[:i] {
			above += mem.Pow2WordsFor(l.fp.Count())
		}
		hit := n.lines[i]
		hit.fp = hit.fp.Set(word)
		dLine = float64(i+1) * mem.LineSize * n.invR
		dWord = float64(above+mem.Pow2WordsFor(hit.fp.Count())) * mem.WordSize * n.invR
		n.record(n.histLine, dLine)
		n.record(n.histWord, dWord)
		copy(n.lines[1:i+1], n.lines[:i])
		n.lines[0] = hit
		return dLine, dWord, true
	}
	n.cold += n.invR
	n.lines = append([]naiveLine{{key: key, hash: hash, fp: mem.FootprintOfWord(word)}}, n.lines...)
	for n.cfg.MaxSamples > 0 && len(n.lines) > n.cfg.MaxSamples {
		// Evict the maximum (hash, key) line, lower the threshold to its
		// hash, and drop everything the lowered gate now rejects.
		top := n.lines[0]
		for _, l := range n.lines[1:] {
			if l.hash > top.hash || (l.hash == top.hash && l.key > top.key) {
				top = l
			}
		}
		n.threshold = top.hash
		n.invR = twoPow64 / float64(n.threshold)
		kept := n.lines[:0]
		for _, l := range n.lines {
			if l.hash < n.threshold {
				kept = append(kept, l)
			}
		}
		n.lines = kept
	}
	return 0, 0, false
}

func (n *naiveStack) distance(line mem.LineAddr) (float64, bool) {
	key := uint64(line)
	if _, ok := n.gate(key); !ok {
		return 0, false
	}
	i := n.find(key)
	if i < 0 {
		return 0, false
	}
	return float64(i+1) * mem.LineSize * n.invR, true
}

func (n *naiveStack) decay(alpha float64) {
	for i := range n.histLine {
		n.histLine[i] *= alpha
		n.histWord[i] *= alpha
	}
	n.cold *= alpha
	n.refs *= alpha
}

// stackOp is one step of a differential run: an access, a read-only
// distance query, or a histogram decay.
type stackOp struct {
	kind byte
	line mem.LineAddr
	word int
}

const (
	opAccess byte = iota
	opQuery
	opDecay
)

// diffAgainstStack drives an engine whose tree starts at the given
// capacity (0 = the default) and the naive stack through ops, failing
// on the first access whose inclusive line- or word-grain distance
// differs, and on any difference in the filled miss-ratio curves. It
// returns how many reuses re-touched the top of the stack: those that
// left the clock and the tree as they were.
func diffAgainstStack(tb testing.TB, cfg Config, capacity int, ops []stackOp) (topRetouches int) {
	tb.Helper()
	e, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	if capacity > 0 {
		e.fw = newFenwick(capacity)
	}
	ref := newNaiveStack(cfg)
	for i, op := range ops {
		switch op.kind {
		case opDecay:
			e.DecayCounts(0.5)
			ref.decay(0.5)
		case opQuery:
			got, gotOK := e.CurrentLineDistanceBytes(op.line)
			want, wantOK := ref.distance(op.line)
			if got != want || gotOK != wantOK {
				tb.Fatalf("op %d: distance(%d) = %v, %v; naive stack %v, %v", i, op.line, got, gotOK, want, wantOK)
			}
		default:
			now, tree := e.now, len(e.fw.tree)
			dLine, dWord, reuse := e.touch(op.line, op.word)
			if reuse && e.now == now && len(e.fw.tree) == tree {
				topRetouches++
			}
			if reuse {
				e.record(e.histLine, dLine)
				e.record(e.histWord, dWord)
			}
			wLine, wWord, wReuse := ref.access(op.line, op.word)
			if dLine != wLine || dWord != wWord || reuse != wReuse {
				tb.Fatalf("op %d: access(%d, %d) = (%v, %v, %v); naive stack (%v, %v, %v)",
					i, op.line, op.word, dLine, dWord, reuse, wLine, wWord, wReuse)
			}
		}
	}
	if e.tab.n != len(ref.lines) {
		tb.Fatalf("engine tracks %d lines, naive stack %d", e.tab.n, len(ref.lines))
	}
	shadow := &Engine{cfg: e.cfg, buckets: e.buckets, histLine: ref.histLine, histWord: ref.histWord, cold: ref.cold, refs: ref.refs}
	const points = 33
	step := e.cfg.MaxBytes / (points - 1)
	got, want := make([]float64, points), make([]float64, points)
	for _, fill := range []struct {
		name       string
		eng, naive func([]float64, int)
	}{
		{"line", e.FillLineMissRatios, shadow.FillLineMissRatios},
		{"word", e.FillWordMissRatios, shadow.FillWordMissRatios},
	} {
		fill.eng(got, step)
		fill.naive(want, step)
		for i := range got {
			if got[i] != want[i] {
				tb.Fatalf("%s miss ratio at %dB = %v, naive stack %v", fill.name, i*step, got[i], want[i])
			}
		}
	}
	return topRetouches
}

// phasedOps builds a stream whose working set changes size from phase
// to phase, so the engine's tree both grows and compacts in place,
// with distance queries and decays interleaved.
func phasedOps(n int, seed uint64) []stackOp {
	sizes := []uint64{24, 700, 90, 1100, 8}
	ops := make([]stackOp, 0, n)
	x := seed
	for i := 0; len(ops) < n; i++ {
		x = mem.SplitMix64(x)
		ws := sizes[(i/4000)%len(sizes)]
		line := mem.LineAddr(x % ws)
		if x>>60 == 0 {
			line = mem.LineAddr(x>>8) % 1500 // occasional far reuse
		}
		switch {
		case i%5000 == 4999:
			ops = append(ops, stackOp{kind: opDecay})
		case i%7 == 3:
			ops = append(ops, stackOp{kind: opQuery, line: line})
		default:
			ops = append(ops, stackOp{kind: opAccess, line: line, word: int(x>>32) & 7})
		}
	}
	return ops
}

// TestEngineMatchesNaiveStack checks every access's inclusive
// line-grain and word-grain distance, every interleaved distance
// query, and the final curves against an O(M) LRU list, over streams
// long enough to cross many clock compactions, in exact, fixed-rate
// and fixed-size modes, at the default tree capacity and at a tiny one
// that compacts every few accesses. Each mode must re-touch the top of
// the stack often enough that the oracle checks that path too.
func TestEngineMatchesNaiveStack(t *testing.T) {
	const accesses = 60_000
	ops := phasedOps(accesses, 3)
	for _, tc := range []struct {
		name    string
		cfg     Config
		minTops int
	}{
		{"exact", Config{MaxBytes: 64 << 10, ResolutionBytes: 512}, 1000},
		{"fixed-rate", Config{MaxBytes: 64 << 10, ResolutionBytes: 512, SampleRate: 0.5, Seed: 5}, 1000},
		{"fixed-size", Config{MaxBytes: 64 << 10, ResolutionBytes: 512, SampleRate: 0.5, MaxSamples: 150, Seed: 5}, 500},
	} {
		for _, capacity := range []int{0, 4} {
			tops := diffAgainstStack(t, tc.cfg, capacity, ops)
			if tops < tc.minTops {
				t.Errorf("%s, capacity %d: %d top-of-stack re-touches, want at least %d", tc.name, capacity, tops, tc.minTops)
			}
		}
	}
}

// TestFixedSizeEvictsNewTop: in fixed-size mode pushSample can evict
// the line it has just inserted, which leaves no live line at the
// clock's position. The next access to the line below it must take
// the full reuse path and still see a distance of one line; the access
// after that re-touches the top in place.
func TestFixedSizeEvictsNewTop(t *testing.T) {
	cfg := Config{MaxBytes: 4096, ResolutionBytes: 64, SampleRate: 0.75, MaxSamples: 2, Seed: 11}
	threshold := uint64(cfg.SampleRate * twoPow64)
	hash := func(l mem.LineAddr) uint64 { return mem.SplitMix64(uint64(l) ^ cfg.Seed) }
	// Two tracked lines, then a third whose hash tops both: inserting it
	// overflows the two-line sample and evicts it at once.
	var lines []mem.LineAddr
	for l := mem.LineAddr(0); len(lines) < 3; l++ {
		if h := hash(l); h < threshold && (len(lines) < 2 || h > max(hash(lines[0]), hash(lines[1]))) {
			lines = append(lines, l)
		}
	}
	a, b, c := lines[0], lines[1], lines[2]
	e := mustNew(t, cfg)
	e.Access(a, 0)
	e.Access(b, 0)
	e.Access(c, 0)
	if e.tab.find(uint64(c)) >= 0 || int(e.tab.pos[e.tab.find(uint64(b))]) == e.now {
		t.Fatalf("line %d was not evicted on insert, or line %d still sits at the clock", c, b)
	}
	for i, word := range []int{1, 2} {
		now := e.now
		dLine, _, reuse := e.touch(b, word)
		if want := mem.LineSize * e.invR; !reuse || dLine != want {
			t.Errorf("re-touch %d of line %d: distance %v (reuse %v), want %v", i, b, dLine, reuse, want)
		}
		if ticked := e.now != now; ticked != (i == 0) {
			t.Errorf("re-touch %d of line %d: clock ticked = %v, want %v", i, b, ticked, i == 0)
		}
	}
	diffAgainstStack(t, cfg, 0, []stackOp{
		{line: a}, {line: b}, {line: c}, {line: b, word: 1}, {line: b, word: 2},
		{kind: opQuery, line: c}, {kind: opQuery, line: a}, {line: a, word: 3},
	})
}

// TestSampleTableStaysBounded: in fixed-size mode the line table holds
// only the live sample — evicted lines leave no dead entries behind —
// on a stream far wider than the sample (the partition controller's
// online-engine configuration).
func TestSampleTableStaysBounded(t *testing.T) {
	const maxSamples = 16 << 10
	e := mustNew(t, Config{SampleRate: 0.5, MaxSamples: maxSamples, Seed: 9})
	x := uint64(21)
	for i := 0; i < 1_000_000; i++ {
		x = mem.SplitMix64(x)
		e.Access(mem.LineAddr(x%(512<<10)), int(x>>40)&7)
		if e.tab.n > 2*maxSamples {
			t.Fatalf("access %d: table holds %d entries for a %d-line sample", i, e.tab.n, maxSamples)
		}
	}
	if e.tab.n != len(e.heap.refs) {
		t.Errorf("table entries %d != live samples %d", e.tab.n, len(e.heap.refs))
	}
}

// FuzzEngineMatchesStack decodes the input into a configuration and a
// (line, word) stream with interleaved queries and decays, and checks
// the engine against the naive stack. The first byte picks the
// sampling mode and a small initial tree capacity so short inputs
// still cross compactions; each following byte pair is one op.
func FuzzEngineMatchesStack(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 1, 1, 2, 3, 0xFE, 1, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		cfg := Config{MaxBytes: 8 << 10, ResolutionBytes: 64, Seed: uint64(data[0])}
		switch data[0] % 3 {
		case 1:
			cfg.SampleRate = 0.5
		case 2:
			cfg.SampleRate, cfg.MaxSamples = 0.75, 1+int(data[0]>>4)
		}
		capacity := 1 << (data[0] >> 2 & 3)
		var ops []stackOp
		for i := 1; i+1 < len(data) && len(ops) < 4096; i += 2 {
			line := mem.LineAddr(data[i] & 63)
			switch data[i+1] {
			case 0xFF:
				ops = append(ops, stackOp{kind: opDecay})
			case 0xFE:
				ops = append(ops, stackOp{kind: opQuery, line: line})
			default:
				ops = append(ops, stackOp{kind: opAccess, line: line, word: int(data[i+1] & 7)})
			}
		}
		diffAgainstStack(t, cfg, capacity, ops)
	})
}
