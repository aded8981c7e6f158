package distill_test

// The reference distill cache: the paper's organization (Sections 4
// and 5) written from its text with plain per-set slices, and no packed
// records, fast paths or memos.

import (
	"slices"

	"ldis/internal/distill"
	"ldis/internal/mem"
	"ldis/internal/sampler"
	"ldis/internal/stats"
)

// refLOCLine is one line-organized way: the line, its footprint (words
// used) and dirty words, whether it holds instructions (never distilled)
// and the largest recency position its footprint changed at (Figure 2).
type refLOCLine struct {
	line      mem.LineAddr
	instr     bool
	fp, dirty mem.Footprint
	fpPos     int
}

// refWord is one 8B WOC word entry with its own tag (the line), valid
// and head bits. words are the line's words stored here: one, several
// when a Slots hook compresses, none in the power-of-two padding. The
// head keeps lastUse for the WOC-LRU variant.
type refWord struct {
	valid, head  bool
	line         mem.LineAddr
	words, dirty mem.Footprint
	lastUse      uint64
}

type refSet struct {
	loc  []refLOCLine // MRU first
	woc  []refWord    // WOCWays*8 entries, way-major
	trad bool         // reverter fallback: a Ways-way LRU cache, WOC empty
}

type refCache struct {
	cfg           distill.Config
	sets          []refSet
	st            distill.Stats
	rng, clock    uint64
	dirtyInstalls int // distilled lines carrying dirty words (corpus coverage)

	// Median threshold (Section 5.4): one counter per used-word count,
	// the median recomputed every 4096 LOC evictions.
	counts               [mem.WordsPerLine]int
	evictions, threshold int

	// Reverter (Section 5.5): a plain LRU tag directory per leader set
	// and the saturating PSEL counter.
	sc      sampler.Config
	atd     map[int][]mem.LineAddr
	psel    int
	enabled bool
}

func newRef(cfg distill.Config) *refCache {
	r := &refCache{cfg: cfg, rng: cfg.Seed | 1, threshold: mem.WordsPerLine, enabled: true}
	r.sets = make([]refSet, cfg.Sets())
	for i := range r.sets {
		r.sets[i].woc = make([]refWord, cfg.WOCEntries())
	}
	r.st.WordsUsedAtEvict = stats.NewHistogram("", mem.WordsPerLine+1)
	r.st.FPChangePos = stats.NewHistogram("", cfg.Ways)
	if cfg.Reverter {
		r.sc, r.atd, r.psel = *cfg.SamplerConfig, map[int][]mem.LineAddr{}, 1<<(cfg.SamplerConfig.PSELBits-1)
	}
	return r
}

// next is the cache's seeded xorshift64* generator: the reference draws
// one value per random WOC placement, as distill.Cache does.
func (r *refCache) next() uint64 {
	x := r.rng
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.rng = x
	return x * 0x2545f4914f6cdd1d
}

// isLeader: the leader sets are spread NumSets/LeaderSets apart.
func (r *refCache) isLeader(si int) bool {
	stride := r.sc.NumSets / max(r.sc.LeaderSets, 1)
	return r.cfg.Reverter && si%stride == 0 && si/stride < r.sc.LeaderSets
}

func (s *refSet) findLOC(la mem.LineAddr) int {
	return slices.IndexFunc(s.loc, func(e refLOCLine) bool { return e.line == la })
}

// wocLine gathers a WOC line from its word entries: the head's index
// (-1 when absent) and the stored words.
func (s *refSet) wocLine(la mem.LineAddr) (head int, words mem.Footprint) {
	head = -1
	for i, w := range s.woc {
		if w.valid && w.line == la {
			if w.head {
				head = i
			}
			words |= w.words
		}
	}
	return head, words
}

// wocRemove invalidates every entry of the line, returning its dirty
// words.
func (s *refSet) wocRemove(la mem.LineAddr) mem.Footprint {
	var dirty mem.Footprint
	for i := range s.woc {
		if s.woc[i].valid && s.woc[i].line == la {
			dirty |= s.woc[i].dirty
			s.woc[i] = refWord{}
		}
	}
	return dirty
}

func (r *refCache) access(la mem.LineAddr, word int, write, instr bool) distill.AccessResult {
	r.st.Accesses++
	si := int(uint64(la) % uint64(len(r.sets)))
	s, leader := &r.sets[si], r.isLeader(si)
	if r.cfg.Reverter {
		if leader {
			r.observeATD(si, la)
		} else if s.trad != !r.enabled {
			r.switchMode(s, !r.enabled)
		}
	}
	if i := s.findLOC(la); i >= 0 {
		e := s.loc[i]
		if !e.fp.Has(word) {
			e.fp, e.fpPos = e.fp.Set(word), max(e.fpPos, i)
		}
		if write {
			e.dirty = e.dirty.Set(word)
		}
		copy(s.loc[1:i+1], s.loc[:i])
		s.loc[0] = e
		r.st.LOCHits++
		return distill.AccessResult{Outcome: distill.LOCHit, ValidBits: mem.FullFootprint}
	}
	outcome, merged := distill.LineMiss, mem.Footprint(0)
	if head, words := s.wocLine(la); !s.trad && head >= 0 {
		if words.Has(word) {
			for i := range s.woc {
				if e := &s.woc[i]; write && e.valid && e.line == la && e.words.Has(word) {
					e.dirty = e.dirty.Set(word)
				}
			}
			r.clock++
			s.woc[head].lastUse = r.clock
			r.st.WOCHits++
			return distill.AccessResult{Outcome: distill.WOCHit, ValidBits: words}
		}
		// A hole miss: the WOC copy goes, its dirty words ride along
		// into the refetched LOC line.
		outcome, merged = distill.HoleMiss, s.wocRemove(la)
		r.st.HoleMisses++
	} else {
		r.st.LineMisses++
	}
	if leader {
		r.moveP(-1)
	}
	r.installLOC(s, la, word, write, instr, merged)
	return distill.AccessResult{Outcome: outcome, ValidBits: mem.FullFootprint}
}

// installLOC fills the line as MRU, first evicting the LRU line of a
// full LOC. merged carries the dirty words of a hole-missed WOC copy.
func (r *refCache) installLOC(s *refSet, la mem.LineAddr, word int, write, instr bool, merged mem.Footprint) {
	if n := len(s.loc); n == r.cfg.Ways || !s.trad && n == r.cfg.LOCWays() {
		r.evictLRU(s)
	}
	e := refLOCLine{line: la, instr: instr, fp: mem.FootprintOfWord(word) | merged, dirty: merged}
	if write {
		e.dirty = e.dirty.Set(word)
	}
	s.loc = append([]refLOCLine{e}, s.loc...)
}

func (r *refCache) writeback(dirty mem.Footprint) {
	if dirty != 0 {
		r.st.Writebacks++
	}
}

func (r *refCache) evictLRU(s *refSet) {
	v := s.loc[len(s.loc)-1]
	s.loc = s.loc[:len(s.loc)-1]
	r.evictLOC(s, v)
}

// evictLOC distills a LOC victim: instruction lines and lines of a
// traditional-mode set leave whole; data lines pass the threshold and
// their used words enter the WOC.
func (r *refCache) evictLOC(s *refSet, v refLOCLine) {
	if v.instr {
		r.st.InstrEvictions++
		r.writeback(v.dirty)
		return
	}
	used := v.fp.Count()
	r.st.WordsUsedAtEvict.Add(used)
	r.st.FPChangePos.Add(v.fpPos)
	switch {
	case s.trad:
		r.st.TradEvictions++
	case !r.admit(used):
		r.st.ThresholdSkips++
	default:
		slots := 1
		for slots < used {
			slots *= 2
		}
		if r.cfg.Slots != nil {
			slots = r.cfg.Slots(v.line, v.fp)
		}
		r.st.Distilled++
		r.wocInstall(s, v.line, v.fp, v.dirty, slots)
		return
	}
	r.writeback(v.dirty)
}

func (r *refCache) admit(used int) bool {
	switch {
	case r.cfg.MedianThreshold:
		ok := used <= r.threshold
		r.counts[max(used, 1)-1]++
		if r.evictions++; r.evictions == 4096 {
			// The median: add counters from one word up until they
			// reach half the evictions.
			cum := 0
			for k := range r.counts {
				if cum += r.counts[k]; 2*cum >= r.evictions {
					r.threshold = k + 1
					break
				}
			}
			r.counts, r.evictions = [mem.WordsPerLine]int{}, 0
		}
		return ok
	case r.cfg.StaticThreshold > 0:
		return used <= r.cfg.StaticThreshold
	}
	return true
}

// wocInstall packs a line's used words at a power-of-two aligned
// position (Section 5.3), evicting every line whose head lies in it.
func (r *refCache) wocInstall(s *refSet, la mem.LineAddr, words, dirty mem.Footprint, slots int) {
	r.clock++
	if dirty != 0 {
		r.dirtyInstalls++
	}
	pos := r.position(s, slots)
	for i := pos; i < pos+slots; i++ {
		if s.woc[i].valid && s.woc[i].head {
			r.st.WOCEvictions++
			r.writeback(s.wocRemove(s.woc[i].line))
		}
	}
	for w, rank := 0, 0; w < mem.WordsPerLine; w++ {
		if bit := mem.FootprintOfWord(w); words&bit != 0 {
			e := &s.woc[pos+rank%slots]
			e.words, e.dirty, rank = e.words|bit, e.dirty|dirty&bit, rank+1
		}
	}
	for i := pos; i < pos+slots; i++ {
		s.woc[i].valid, s.woc[i].line = true, la
	}
	s.woc[pos].head, s.woc[pos].lastUse = true, r.clock
}

// candidates lists the aligned positions a line of the given size may
// take, way by way and start by start: the wholly invalid ones, and
// the partly valid ones whose first entry is invalid or a head.
func (r *refCache) candidates(s *refSet, slots int) (free, eligible []int) {
	for pos := 0; pos < len(s.woc); pos += slots {
		used := slices.ContainsFunc(s.woc[pos:pos+slots], func(w refWord) bool { return w.valid })
		switch {
		case !used:
			free = append(free, pos)
		case !s.woc[pos].valid || s.woc[pos].head:
			eligible = append(eligible, pos)
		}
	}
	return free, eligible
}

// position picks where a line of the given size goes. Free positions
// come first: a random one (one draw), or the first for WOC-LRU.
// Otherwise random replacement draws an eligible position and WOC-LRU
// takes the one whose most recently used line is least recent.
func (r *refCache) position(s *refSet, slots int) int {
	free, eligible := r.candidates(s, slots)
	switch {
	case len(free) > 0 && r.cfg.WOCLRU:
		return free[0]
	case len(free) > 0:
		return free[r.next()%uint64(len(free))]
	case !r.cfg.WOCLRU:
		return eligible[r.next()%uint64(len(eligible))]
	}
	best, bestAge := -1, uint64(0)
	for _, pos := range eligible {
		var age uint64
		for i := pos; i < pos+slots; i++ {
			if s.woc[i].valid && s.woc[i].head {
				age = max(age, s.woc[i].lastUse)
			}
		}
		if best < 0 || age < bestAge {
			best, bestAge = pos, age
		}
	}
	return best
}

// switchMode moves a follower set between distill and traditional
// mode: entering traditional mode drops the WOC, writing back dirty
// lines, and widens the LOC to every way; leaving it distills the LOC
// lines beyond LOCWays, LRU-most first.
func (r *refCache) switchMode(s *refSet, trad bool) {
	r.st.ModeSwitches++
	if trad {
		for i := range s.woc {
			if s.woc[i].valid && s.woc[i].head {
				r.writeback(s.wocRemove(s.woc[i].line))
			}
		}
		s.trad = true
		return
	}
	s.trad = false
	for len(s.loc) > r.cfg.LOCWays() {
		r.evictLRU(s)
	}
}

func (r *refCache) observeATD(si int, la mem.LineAddr) {
	d := r.atd[si]
	i := slices.Index(d, la)
	if i < 0 {
		r.moveP(+1)
		if len(d) < r.sc.ATDWays {
			d = append(d, la)
		}
		i = len(d) - 1
	}
	copy(d[1:i+1], d[:i])
	d[0] = la
	r.atd[si] = d
}

// moveP steps PSEL with saturation and applies the watermarks: the
// traditional cache missing raises it, the distill policy missing
// lowers it.
func (r *refCache) moveP(d int) {
	r.psel = min(max(r.psel+d, 0), 1<<r.sc.PSELBits-1)
	if r.psel < int(r.sc.LowWatermark) {
		r.enabled = false
	} else if r.psel > int(r.sc.HighWatermark) {
		r.enabled = true
	}
}

func (r *refCache) writebackFromL1(la mem.LineAddr, fp, dirty mem.Footprint) {
	fp |= dirty
	s := &r.sets[uint64(la)%uint64(len(r.sets))]
	if i := s.findLOC(la); i >= 0 {
		e := &s.loc[i]
		if merged := e.fp | fp; merged != e.fp {
			e.fp, e.fpPos = merged, max(e.fpPos, i)
		}
		e.dirty |= dirty
		return
	}
	if head, words := s.wocLine(la); !s.trad && head >= 0 {
		for i := range s.woc {
			if e := &s.woc[i]; e.valid && e.line == la {
				e.dirty |= dirty & e.words
			}
		}
		dirty &^= words
	}
	r.writeback(dirty)
}
