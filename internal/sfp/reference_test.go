package sfp_test

// The reference SFP cache: the spatial footprint predictor of the
// paper's Section 9 (after Kumar & Wilkerson), written from its text
// with a map of per-line state, a plain predictor table, a plain LRU
// victim scan and the reverter of Section 5.5, and no packed records or
// side tables.
//
// A miss installs only the words the predictor names for (miss PC,
// line), plus the demand word, at an aligned power-of-two position of
// the set's word entries with the same tag budget as the distill
// cache. The predictor learns a line's footprint when the line leaves:
// on eviction, and on a hole miss (an access to a word it filtered
// out), which also refetches the line under the demand PC. Lines leave
// in LRU order until a free position of the new line's size exists and
// the tag budget holds; the free position is drawn at random.

import (
	"slices"

	"ldis/internal/mem"
	"ldis/internal/sfp"
)

// refLine is one resident line: its stored and dirty words, the words
// used during this residency, the PC that installed it, its last use
// and the word entries it occupies, [pos, pos+slots).
type refLine struct {
	words, dirty, observed mem.Footprint
	pc                     mem.Addr
	stamp                  uint64
	pos, slots             int
}

// refPred is one footprint history table entry: an alias-filter tag
// and the footprint last learned for its (PC, line).
type refPred struct {
	valid bool
	tag   uint8
	fp    mem.Footprint
}

type refCache struct {
	cfg   sfp.Config
	nsets int
	lines map[mem.LineAddr]*refLine
	// owner[set][entry] is the line holding that word entry, or noLine.
	owner [][]mem.LineAddr
	table []refPred
	st    sfp.Stats
	rng   uint64
	clock uint64

	// Coverage: installs the disabled reverter forced to a full line,
	// and hole misses by a PC other than the one that installed the
	// line.
	fullFollowers, otherPC int

	// Reverter: a plain LRU tag directory per leader set and the
	// saturating PSEL counter.
	reverter bool
	atd      map[int][]mem.LineAddr
	leaders  int
	stride   int
	atdWays  int
	pselMax  int
	low      int
	high     int
	psel     int
	enabled  bool
}

const noLine = mem.LineAddr(^uint64(0))

func newRef(cfg sfp.Config) *refCache {
	r := &refCache{
		cfg: cfg, nsets: cfg.Sets(), lines: map[mem.LineAddr]*refLine{},
		table: make([]refPred, cfg.PredictorEntries), rng: cfg.Seed | 1, enabled: true,
	}
	r.owner = make([][]mem.LineAddr, r.nsets)
	for i := range r.owner {
		r.owner[i] = slices.Repeat([]mem.LineAddr{noLine}, cfg.Ways*mem.WordsPerLine)
	}
	if cfg.Reverter {
		sc := *cfg.SamplerConfig
		r.reverter, r.atd = true, map[int][]mem.LineAddr{}
		r.leaders, r.stride, r.atdWays = sc.LeaderSets, sc.NumSets/sc.LeaderSets, sc.ATDWays
		r.pselMax = 1<<sc.PSELBits - 1
		r.low, r.high, r.psel = int(sc.LowWatermark), int(sc.HighWatermark), (r.pselMax+1)/2
	}
	return r
}

// next is the cache's seeded xorshift64* generator: one draw per
// install, as sfp.Cache makes.
func (r *refCache) next() uint64 {
	x := r.rng
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.rng = x
	return x * 0x2545f4914f6cdd1d
}

// predSlot hashes (PC, line) with splitmix64's finalizer: the low
// bits index the table, bits 48-55 are the alias-filter tag.
func (r *refCache) predSlot(pc mem.Addr, la mem.LineAddr) (*refPred, uint8) {
	h := uint64(pc)>>2 ^ uint64(la)<<17 + 0x9e3779b97f4a7c15
	h = (h ^ h>>30) * 0xbf58476d1ce4e5b9
	h = (h ^ h>>27) * 0x94d049bb133111eb
	h ^= h >> 31
	return &r.table[h%uint64(len(r.table))], uint8(h >> 48)
}

// predict returns the learned footprint, or the whole line for a cold
// or aliased entry.
func (r *refCache) predict(pc mem.Addr, la mem.LineAddr) mem.Footprint {
	e, tag := r.predSlot(pc, la)
	if e.valid && e.tag == tag && e.fp != 0 {
		r.st.PredictorHits++
		return e.fp
	}
	r.st.PredictorDefaults++
	return mem.FullFootprint
}

func (r *refCache) train(pc mem.Addr, la mem.LineAddr, used mem.Footprint) {
	if used != 0 {
		e, tag := r.predSlot(pc, la)
		*e = refPred{valid: true, tag: tag, fp: used}
	}
}

func (r *refCache) isLeader(si int) bool {
	return r.reverter && si%r.stride == 0 && si/r.stride < r.leaders
}

func (r *refCache) access(la mem.LineAddr, word int, pc mem.Addr, write bool) (bool, mem.Footprint) {
	r.st.Accesses++
	si := int(uint64(la) % uint64(r.nsets))
	leader := r.isLeader(si)
	if leader {
		r.observeATD(si, la)
	}
	// Followers of a disabled SFP install whole lines.
	full := r.reverter && !leader && !r.enabled
	if l := r.lines[la]; l != nil {
		if l.words.Has(word) {
			r.st.Hits++
			r.clock++
			l.observed, l.stamp = l.observed.Set(word), r.clock
			if write {
				l.dirty = l.dirty.Set(word)
			}
			return true, l.words
		}
		r.st.HoleMisses++
		if l.pc != pc {
			r.otherPC++
		}
		if leader {
			r.moveP(-1)
		}
		r.remove(si, la)
		if l.dirty != 0 {
			r.st.Writebacks++
		}
		r.train(l.pc, la, l.observed.Set(word))
		return false, r.install(si, la, word, pc, write, full)
	}
	r.st.LineMisses++
	if leader {
		r.moveP(-1)
	}
	return false, r.install(si, la, word, pc, write, full)
}

func (r *refCache) install(si int, la mem.LineAddr, word int, pc mem.Addr, write, full bool) mem.Footprint {
	fp := mem.FullFootprint
	if full {
		r.fullFollowers++
	} else {
		fp = r.predict(pc, la).Set(word)
	}
	slots := 1
	for slots < fp.Count() {
		slots *= 2
	}
	for {
		free, n := r.freePositions(si, slots)
		if n == 0 || len(free) > 0 && n < r.cfg.TagsPerSet {
			pos := free[r.next()%uint64(len(free))]
			l := &refLine{words: fp, observed: mem.FootprintOfWord(word), pc: pc, pos: pos, slots: slots}
			if write {
				l.dirty = mem.FootprintOfWord(word)
			}
			r.clock++
			l.stamp = r.clock
			r.lines[la] = l
			for i := pos; i < pos+slots; i++ {
				r.owner[si][i] = la
			}
			return fp
		}
		r.evictLRU(si)
	}
}

// freePositions lists set si's aligned positions of the given size
// with no word entry in use, way by way and start by start, and counts
// the set's resident lines.
func (r *refCache) freePositions(si, slots int) (free []int, lines int) {
	own := r.owner[si]
	for pos := 0; pos < len(own); pos += slots {
		if !slices.ContainsFunc(own[pos:pos+slots], func(o mem.LineAddr) bool { return o != noLine }) {
			free = append(free, pos)
		}
	}
	for pos, o := range own {
		if o != noLine && r.lines[o].pos == pos {
			lines++
		}
	}
	return free, lines
}

// evictLRU evicts set si's least recently used line: its dirty words
// go to memory and its observed footprint trains the predictor.
func (r *refCache) evictLRU(si int) {
	victim := noLine
	for pos, o := range r.owner[si] {
		if o != noLine && r.lines[o].pos == pos && (victim == noLine || r.lines[o].stamp < r.lines[victim].stamp) {
			victim = o
		}
	}
	l := r.lines[victim]
	r.remove(si, victim)
	r.st.Evictions++
	if l.dirty != 0 {
		r.st.Writebacks++
	}
	r.train(l.pc, victim, l.observed)
}

func (r *refCache) remove(si int, la mem.LineAddr) {
	l := r.lines[la]
	for i := l.pos; i < l.pos+l.slots; i++ {
		r.owner[si][i] = noLine
	}
	delete(r.lines, la)
}

// writebackFromL1: the L1D's used words train the residency and its
// dirty stored words stay; dirty words the line does not store (or of
// an absent line) go to memory.
func (r *refCache) writebackFromL1(la mem.LineAddr, used, dirty mem.Footprint) {
	used |= dirty
	if l := r.lines[la]; l != nil {
		l.observed |= used & l.words
		l.dirty |= dirty & l.words
		dirty &^= l.words
	}
	if dirty != 0 {
		r.st.Writebacks++
	}
}

// observeATD runs a leader set's access through its LRU tag directory
// of the traditional cache; a directory miss raises PSEL.
func (r *refCache) observeATD(si int, la mem.LineAddr) {
	d := r.atd[si]
	i := slices.Index(d, la)
	if i < 0 {
		r.moveP(+1)
		if len(d) < r.atdWays {
			d = append(d, la)
		}
		i = len(d) - 1
	}
	copy(d[1:i+1], d[:i])
	d[0] = la
	r.atd[si] = d
}

// moveP steps PSEL with saturation and applies the watermarks: the
// traditional cache missing raises it, the SFP missing lowers it.
func (r *refCache) moveP(d int) {
	r.psel = min(max(r.psel+d, 0), r.pselMax)
	if r.psel < r.low {
		r.enabled = false
	} else if r.psel > r.high {
		r.enabled = true
	}
}

// setLines lists the reference's lines of la's set in position order,
// appending to out[:0].
func (r *refCache) setLines(la mem.LineAddr, out []sfp.PlacedLine) []sfp.PlacedLine {
	out = out[:0]
	for pos, o := range r.owner[uint64(la)%uint64(r.nsets)] {
		if l := r.lines[o]; o != noLine && l.pos == pos {
			out = append(out, sfp.PlacedLine{Line: o, Pos: pos, Slots: l.slots, Words: l.words, Dirty: l.dirty})
		}
	}
	return out
}

// stored returns la's stored words, 0 when absent.
func (r *refCache) stored(la mem.LineAddr) mem.Footprint {
	if l := r.lines[la]; l != nil {
		return l.words
	}
	return 0
}
