package distill

import (
	"fmt"

	"ldis/internal/cache"
	"ldis/internal/mem"
	"ldis/internal/obs"
	"ldis/internal/sampler"
	"ldis/internal/stats"
	"ldis/internal/wordstore"
)

// Outcome classifies a distill-cache access (paper Section 5.2).
type Outcome uint8

const (
	// LOCHit: the line is in the line-organized ways.
	LOCHit Outcome = iota
	// WOCHit: line hit and word hit in the word-organized ways.
	WOCHit
	// HoleMiss: line hit in the WOC but the requested word was
	// distilled away; the WOC copy is invalidated and the line refetched.
	HoleMiss
	// LineMiss: the line is in neither structure.
	LineMiss
)

// String implements fmt.Stringer.
func (o Outcome) String() string {
	switch o {
	case LOCHit:
		return "loc-hit"
	case WOCHit:
		return "woc-hit"
	case HoleMiss:
		return "hole-miss"
	case LineMiss:
		return "line-miss"
	default:
		return fmt.Sprintf("Outcome(%d)", uint8(o))
	}
}

// IsMiss reports whether the outcome required a memory fetch.
func (o Outcome) IsMiss() bool { return o == HoleMiss || o == LineMiss }

// AccessResult is what the L1 receives: the outcome and the valid-word
// mask of the returned line (partial only for WOC hits, Section 4.2).
type AccessResult struct {
	Outcome   Outcome
	ValidBits mem.Footprint
}

// Stats aggregates distill-cache behaviour; the four outcome counters
// are the paper's Figure 7 breakdown.
type Stats struct {
	Accesses   uint64
	LOCHits    uint64
	WOCHits    uint64
	HoleMisses uint64
	LineMisses uint64

	Writebacks uint64 // dirty data leaving the cache toward memory

	Distilled      uint64 // LOC victims whose words entered the WOC
	ThresholdSkips uint64 // LOC victims filtered out by MT
	TradEvictions  uint64 // LOC victims evicted while a set ran traditional
	InstrEvictions uint64 // instruction-line victims (never distilled)
	WOCEvictions   uint64 // WOC lines displaced by installs
	ModeSwitches   uint64 // follower sets toggling distill/traditional

	// Touche aggregates the compressed-tag filter's counters
	// (lookups, alias safe misses, alias/superblock evictions) when
	// Config.Touche is set; zero otherwise.
	Touche wordstore.ToucheStats

	// Clean copy-back outcomes (Config.CopyBack): every clean L1
	// victim absent from both structures lands in exactly one bucket.
	CopyBacks    uint64 // predicted near: used words installed into the WOC
	CopyBackFar  uint64 // predicted reuse distance beyond the window
	CopyBackCold uint64 // no prediction: unsampled, evicted from the sample, or never seen

	// WordsUsedAtEvict histograms the footprint popcount of LOC
	// victims (Figure 1 / Table 6 for the distill cache).
	WordsUsedAtEvict *stats.Histogram
	// FPChangePos histograms the maximum recency position at
	// footprint-change of LOC victims (Figure 2).
	FPChangePos *stats.Histogram
}

// Misses returns the total miss count.
func (s *Stats) Misses() uint64 { return s.HoleMisses + s.LineMisses }

// Hits returns the total hit count.
func (s *Stats) Hits() uint64 { return s.LOCHits + s.WOCHits }

// Cache is the distill cache.
type Cache struct {
	cfg  Config
	geom mem.Geometry
	// loc holds every set's LOC, Ways lines a set (set si's starts at
	// si*Ways), so the traditional-mode widening stays in place; in
	// distill mode a set's ways past LOCWays are invalid.
	loc cache.Set
	// trad marks the sets the reverter has switched to traditional
	// mode, where the LOC has all Ways ways and the WOC is empty.
	trad []bool
	woc  wordstore.Store
	smp  *sampler.Sampler
	mt   *medianFilter
	st   Stats
	rng  uint64
	tick uint64 // WOC recency clock; the store keeps stamps only under Config.WOCLRU

	// touche, when non-nil, is the compressed superblock tag filter the
	// WOC lookup and install paths route through (Config.Touche).
	touche *wordstore.ToucheTags
	// cb, when non-nil, is the clean copy-back reuse predictor
	// (Config.CopyBack).
	cb *copyBack

	// Way-partition state (zero when unpartitioned): per-tenant LOC way
	// quotas, enforced at victim selection by the cache package's rule,
	// and per-tenant WOC way masks threaded into the distilled-line
	// installs. See SetPartition.
	locQuota cache.Quotas
	wocMask  []uint64

	// Observability handles, registered once at construction; all nil
	// (and therefore no-ops) when the config carries no obs cell. They
	// sit on the miss/evict paths only — the LOC hit path is untouched.
	obsSpans           *obs.Spans
	obsDistilled       *obs.Counter
	obsThresholdSkips  *obs.Counter
	obsHoleMisses      *obs.Counter
	obsWOCEvictions    *obs.Counter
	obsModeSwitches    *obs.Counter
	obsToucheAliasMiss *obs.Counter
	obsCopyBacks       *obs.Counter
	obsCopyBackRejects *obs.Counter
}

// New builds a distill cache; panics on invalid config.
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	c := &Cache{cfg: cfg, rng: cfg.Seed | 1}
	c.geom, _ = mem.NewGeometry(cfg.SizeBytes, cfg.Ways) // Validate accepted it
	numSets := c.geom.Sets()
	c.loc = make(cache.Set, numSets*cfg.Ways)
	c.trad = make([]bool, numSets)
	c.woc = wordstore.NewStore(cfg.WOCWays, numSets, cfg.WOCLRU)
	if cfg.Reverter {
		sc := sampler.DefaultConfig(cfg.Sets())
		if cfg.SamplerConfig != nil {
			sc = *cfg.SamplerConfig
		}
		c.smp = sampler.New(sc)
	}
	if cfg.MedianThreshold {
		c.mt = newMedianFilter()
	}
	if cfg.Touche != nil {
		c.touche = wordstore.NewToucheTags(*cfg.Touche, cfg.WOCWays)
		// Route the filter's counters into this cache's Stats so shard
		// merging folds them like every other counter.
		c.touche.Stats = &c.st.Touche
	}
	if cfg.CopyBack != nil {
		c.cb = newCopyBack(*cfg.CopyBack, cfg.SizeBytes)
	}
	c.st.WordsUsedAtEvict = stats.NewHistogram(cfg.Name+" words used", mem.WordsPerLine+1)
	c.st.FPChangePos = stats.NewHistogram(cfg.Name+" fp-change pos", cfg.Ways)
	c.obsSpans = cfg.Obs.Spans()
	c.obsDistilled = cfg.Obs.Counter("distill_lines_distilled")
	c.obsThresholdSkips = cfg.Obs.Counter("distill_threshold_skips")
	c.obsHoleMisses = cfg.Obs.Counter("distill_hole_misses")
	c.obsWOCEvictions = cfg.Obs.Counter("distill_woc_evictions")
	c.obsModeSwitches = cfg.Obs.Counter("distill_mode_switches")
	c.obsToucheAliasMiss = cfg.Obs.Counter("distill_touche_alias_misses")
	c.obsCopyBacks = cfg.Obs.Counter("distill_copybacks")
	c.obsCopyBackRejects = cfg.Obs.Counter("distill_copyback_rejects")
	c.woc.ObsInstallSlots = cfg.Obs.Histogram("woc_install_slots", []uint64{1, 2, 4})
	return c
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns the live statistics.
func (c *Cache) Stats() *Stats { return &c.st }

// Sampler exposes the reverter's sampler (nil when disabled).
func (c *Cache) Sampler() *sampler.Sampler { return c.smp }

// MedianThreshold returns the current distillation threshold K, or 8
// when MT filtering is disabled.
func (c *Cache) MedianThreshold() int {
	if c.mt == nil {
		return mem.WordsPerLine
	}
	return c.mt.Threshold()
}

// Access performs a complete demand data access for one word,
// including the fill on a miss (the timing of the memory fetch is
// modelled separately by the CPU simulator). The returned ValidBits
// tell the L1D which words of the line it receives.
//
//ldis:noalloc
func (c *Cache) Access(la mem.LineAddr, word int, write bool) AccessResult {
	return c.access(la, word, write, false, 0)
}

// AccessTenant is Access tagged with the requesting tenant: hits are
// never restricted, but LOC victim selection respects the quotas
// installed by SetPartition and the victim's distilled words go to the
// tenant's own WOC ways. Without a partition installed it is Access.
//
//ldis:noalloc
func (c *Cache) AccessTenant(la mem.LineAddr, word int, write bool, tenant int) AccessResult {
	return c.access(la, word, write, false, tenant)
}

// AccessInstruction performs an instruction-fetch access. Instruction
// lines live in the LOC like any line but are never distilled into the
// WOC on eviction — the paper performs LDIS only for data lines
// (Section 4).
//
//ldis:noalloc
func (c *Cache) AccessInstruction(la mem.LineAddr, word int, write bool) AccessResult {
	return c.access(la, word, write, true, 0)
}

func (c *Cache) access(la mem.LineAddr, word int, write, instr bool, tenant int) AccessResult {
	c.st.Accesses++
	if c.cb != nil {
		c.cb.eng.Access(la, word)
	}
	si := c.geom.SetIndex(la)
	leader := false
	if c.smp != nil {
		leader = c.smp.IsLeader(si)
		c.smp.ObserveATD(si, la)
		if !leader {
			// Followers lazily adopt the sampler's decision.
			if wantTrad := !c.smp.Enabled(); wantTrad != c.trad[si] {
				c.switchMode(si, wantTrad)
			}
		}
	}
	tag := c.geom.Tag(la)
	if c.locSet(si).Access(mem.KeyOf(tag), word, write) {
		c.st.LOCHits++
		return AccessResult{Outcome: LOCHit, ValidBits: mem.FullFootprint}
	}

	// WOC lookup (inactive in traditional mode).
	if !c.trad[si] {
		tok := c.obsSpans.Begin(obs.StageWOCLookup)
		var idx int
		if c.touche != nil {
			aliases := c.st.Touche.AliasSafeMisses
			idx = c.touche.Find(&c.woc, si, tag)
			if c.st.Touche.AliasSafeMisses != aliases {
				c.obsToucheAliasMiss.Inc()
			}
		} else {
			idx = c.woc.Find(si, tag)
		}
		c.obsSpans.End(obs.StageWOCLookup, tok)
		if idx >= 0 {
			wl := &c.woc.Lines(si)[idx]
			if wl.Words.Has(word) {
				if write {
					wl.Dirty = wl.Dirty.Set(word)
				}
				c.tick++
				c.woc.Touch(si, idx, c.tick)
				c.st.WOCHits++
				return AccessResult{Outcome: WOCHit, ValidBits: wl.Words}
			}
			// Hole miss: invalidate the WOC copy, keep its dirty words,
			// refetch from memory, install in the LOC (Section 5.2).
			removed := c.woc.RemoveAt(si, idx)
			c.st.HoleMisses++
			c.obsHoleMisses.Inc()
			if leader {
				c.smp.RecordPolicyMiss(si)
			}
			c.installLOC(si, la, tag, word, write, instr, removed.Dirty, tenant)
			return AccessResult{Outcome: HoleMiss, ValidBits: mem.FullFootprint}
		}
	}

	// Line miss.
	c.st.LineMisses++
	if leader {
		c.smp.RecordPolicyMiss(si)
	}
	c.installLOC(si, la, tag, word, write, instr, 0, tenant)
	return AccessResult{Outcome: LineMiss, ValidBits: mem.FullFootprint}
}

// locSet returns set si's LOC, MRU first: LOCWays ways in distill
// mode, all Ways in traditional mode.
func (c *Cache) locSet(si int) cache.Set {
	base, width := si*c.cfg.Ways, c.cfg.Ways
	if !c.trad[si] {
		width -= c.cfg.WOCWays
	}
	return c.loc[base : base+width]
}

// installLOC fills line la, whose tag is tag, as MRU in set si's LOC,
// first distilling the victim (the LRU line, or the tenant's under its
// way quota when a partition is installed) if it is valid. mergedDirty
// carries dirty words recovered from a hole-missed WOC copy.
func (c *Cache) installLOC(si int, la mem.LineAddr, tag uint64, word int, write, instr bool, mergedDirty mem.Footprint, tenant int) {
	loc := c.locSet(si)
	pos := loc.Victim(&c.locQuota, tenant)
	if v := loc[pos]; v.Valid() {
		tok := c.obsSpans.Begin(obs.StageDistillEvict)
		c.evictLOC(si, v)
		c.obsSpans.End(obs.StageDistillEvict, tok)
	}
	fp, dirty := mem.FootprintOfWord(word).Or(mergedDirty), mergedDirty
	if write {
		dirty = dirty.Set(word)
	}
	if c.cfg.FootprintNoise > 0 {
		// Wrong-path pollution (paper footnote 8): a speculative access
		// may mark an extra word used.
		r := mem.NextRand(&c.rng)
		if float64(r>>11)/(1<<53) < c.cfg.FootprintNoise {
			fp = fp.Set(int(r % mem.WordsPerLine))
		}
	}
	loc.Install(pos, cache.NewLine(la, tag, fp, dirty, tenant, instr))
}

// evictLOC handles a LOC victim: record statistics, then either distill
// its used words into the WOC or evict it entirely (traditional mode or
// filtered by MT).
func (c *Cache) evictLOC(si int, v cache.Line) {
	if v.Instr() {
		// Instruction lines bypass distillation and the data-footprint
		// statistics (Section 4: LDIS only for data lines).
		c.st.InstrEvictions++
		if v.Dirty() != 0 {
			c.st.Writebacks++
		}
		return
	}
	used := v.Footprint().Count()
	c.st.WordsUsedAtEvict.Add(used)
	c.st.FPChangePos.Add(v.MaxFPPos())

	if c.trad[si] {
		c.st.TradEvictions++
		if v.Dirty() != 0 {
			c.st.Writebacks++
		}
		return
	}
	if !c.admit(used) {
		c.st.ThresholdSkips++
		c.obsThresholdSkips.Inc()
		if v.Dirty() != 0 {
			c.st.Writebacks++
		}
		return
	}
	slots := mem.Pow2WordsFor(used)
	if c.cfg.Slots != nil {
		//ldis:alloc-ok Slots is an ablation extension hook; configs that install one own its allocation behaviour
		slots = c.cfg.Slots(c.geom.Line(v.Tag(), si), v.Footprint())
	}
	c.installWOC(si, wordstore.NewLine(v.Tag(), v.Footprint(), v.Dirty(), slots), v.Tenant())
}

// installWOC places a distilled line and accounts for displaced lines.
// Under a partition the line is confined to its owning tenant's WOC
// ways, so tenants evict only their own distilled words.
func (c *Cache) installWOC(si int, wl wordstore.Line, tenant uint8) {
	c.st.Distilled++
	c.obsDistilled.Inc()
	c.wocInsert(si, wl, tenant)
}

// wocInsert is installWOC without the distillation accounting — shared
// by the distill path and the clean copy-back path, which installs
// lines that were never LOC victims.
func (c *Cache) wocInsert(si int, wl wordstore.Line, tenant uint8) {
	c.tick++
	if c.touche != nil {
		// Evict whatever the compressed tag store cannot represent next
		// to wl: (member, signature) aliases and superblocks beyond the
		// provisioned entry budget.
		for _, ev := range c.touche.PrepareInstall(&c.woc, si, wl.Tag()) {
			c.st.WOCEvictions++
			c.obsWOCEvictions.Inc()
			if ev.Dirty != 0 {
				c.st.Writebacks++
			}
		}
	}
	var evicted []wordstore.Line
	if c.cfg.WOCLRU {
		_, evicted = c.woc.InstallLRU(si, wl, c.tick)
	} else {
		var mask uint64 // every WOC way
		if int(tenant) < len(c.wocMask) {
			mask = c.wocMask[tenant]
		}
		_, evicted = c.woc.Install(si, wl, mem.NextRand(&c.rng), mask)
	}
	for _, ev := range evicted {
		c.st.WOCEvictions++
		c.obsWOCEvictions.Inc()
		if ev.Dirty != 0 {
			c.st.Writebacks++
		}
	}
}

// SetPartition installs per-tenant LOC way quotas and WOC way masks
// for the AccessTenant path. locQuota[t] is the number of LOC ways
// tenant t may occupy per set, checked by cache.Quotas.Set against the
// LOC associativity and enforced by its victim rule; wocMask[t] is the
// bitmask of WOC data ways its distilled lines may occupy (zero means
// all ways). Empty slices disable partitioning. Partitioning composes
// with neither the reverter (whose mode switches resize the LOC under
// the quotas) nor WOCLRU (whose age scan ignores masks); both
// combinations panic rather than silently mis-enforce, as do quotas
// Set refuses.
func (c *Cache) SetPartition(locQuota []int, wocMask []uint64) {
	if len(locQuota) == 0 {
		c.locQuota, c.wocMask = cache.Quotas{}, nil
		return
	}
	if c.cfg.Reverter {
		panic(fmt.Sprintf("distill %q: SetPartition with the reverter enabled is unsupported", c.cfg.Name))
	}
	if c.cfg.WOCLRU {
		panic(fmt.Sprintf("distill %q: SetPartition with WOCLRU is unsupported", c.cfg.Name))
	}
	if len(wocMask) != len(locQuota) {
		panic(fmt.Sprintf("distill %q: %d WOC masks for %d LOC quotas", c.cfg.Name, len(wocMask), len(locQuota)))
	}
	if err := c.locQuota.Set(locQuota, c.cfg.LOCWays()); err != nil {
		panic(fmt.Sprintf("distill %q: LOC quotas: %v", c.cfg.Name, err))
	}
	c.wocMask = append(c.wocMask[:0], wocMask...)
}

// switchMode toggles a follower set between distill and traditional
// organization (reverter fallback). Entering traditional mode empties
// the WOC (writing back dirty words) and widens the LOC to all ways;
// returning to distill mode narrows the LOC, distilling the overflow.
func (c *Cache) switchMode(si int, trad bool) {
	c.st.ModeSwitches++
	c.obsModeSwitches.Inc()
	if trad {
		for _, wl := range c.woc.Clear(si) {
			if wl.Dirty != 0 {
				c.st.Writebacks++
			}
		}
		c.trad[si] = true
		return
	}
	// Distill the lines that no longer fit, LRU-most first, and clear
	// their ways. The set is back in distill mode before they leave, so
	// evictLOC distills them instead of evicting them traditionally.
	c.trad[si] = false
	wide := c.loc[si*c.cfg.Ways : (si+1)*c.cfg.Ways]
	for i := len(wide) - 1; i >= c.cfg.LOCWays(); i-- {
		if v := wide[i]; v.Valid() {
			c.evictLOC(si, v)
		}
		wide[i] = cache.Line{}
	}
}

// admit applies the configured distillation threshold: the running
// median (LDIS-MT), a static K, or everything.
func (c *Cache) admit(used int) bool {
	switch {
	case c.mt != nil:
		ok := c.mt.admit(used)
		c.mt.record(used)
		return ok
	case c.cfg.StaticThreshold > 0:
		return used <= c.cfg.StaticThreshold
	default:
		return true
	}
}

// WritebackFromL1 accepts an L1D eviction notice: the accumulated
// footprint is ORed into the LOC line (Section 4.1) and dirty words
// update whichever structure holds the line; dirty data for an absent
// line goes to memory.
func (c *Cache) WritebackFromL1(la mem.LineAddr, footprint, dirty mem.Footprint) {
	footprint = footprint.Or(dirty) // written words are used words
	si := c.geom.SetIndex(la)
	tag := c.geom.Tag(la)
	if c.locSet(si).Merge(mem.KeyOf(tag), footprint, dirty) {
		return
	}
	if !c.trad[si] {
		if idx := c.woc.Find(si, tag); idx >= 0 {
			wl := &c.woc.Lines(si)[idx]
			// Dirty words the WOC copy stores stay with it; words it
			// discarded must go to memory now.
			kept := dirty & wl.Words
			wl.Dirty = wl.Dirty.Or(kept)
			if dirty&^wl.Words != 0 {
				c.st.Writebacks++
			}
			return
		}
	}
	if dirty != 0 {
		c.st.Writebacks++
		return
	}
	// Clean victim absent from both structures. With copy-back enabled
	// (Config.CopyBack) the reuse predictor decides whether its used
	// words are worth a WOC slot; otherwise — as in the base design —
	// the line is dropped.
	if c.cb != nil && !c.trad[si] && footprint != 0 {
		within, known := c.cb.predict(la)
		switch {
		case !known:
			c.st.CopyBackCold++
			c.obsCopyBackRejects.Inc()
		case !within:
			c.st.CopyBackFar++
			c.obsCopyBackRejects.Inc()
		default:
			c.st.CopyBacks++
			c.obsCopyBacks.Inc()
			c.wocInsert(si, wordstore.NewLine(tag, footprint, 0, mem.Pow2WordsFor(footprint.Count())), 0)
		}
	}
}

// Present reports where the line currently resides ("loc", "woc", or
// ""); exposed for tests.
func (c *Cache) Present(la mem.LineAddr) string {
	si := c.geom.SetIndex(la)
	tag := c.geom.Tag(la)
	if c.locSet(si).Find(mem.KeyOf(tag)) >= 0 {
		return "loc"
	}
	if !c.trad[si] && c.woc.Find(si, tag) >= 0 {
		return "woc"
	}
	return ""
}

// WOCValidBits returns the stored-word mask of a WOC-resident line
// (zero if not in the WOC).
func (c *Cache) WOCValidBits(la mem.LineAddr) mem.Footprint {
	si := c.geom.SetIndex(la)
	if c.trad[si] {
		return 0
	}
	if idx := c.woc.Find(si, c.geom.Tag(la)); idx >= 0 {
		return c.woc.Lines(si)[idx].Words
	}
	return 0
}

// CheckInvariants validates internal consistency of every set; tests
// call it after stress runs.
func (c *Cache) CheckInvariants() error {
	// One reusable tag list instead of a map per set: a set holds at most
	// Ways LOC tags plus WOCWays*WordsPerLine WOC tags, so a linear dup
	// scan is both cheaper and allocation-free across the loop.
	seen := make([]uint64, 0, c.cfg.Ways+c.cfg.WOCWays*mem.WordsPerLine)
	contains := func(tag uint64) bool {
		for _, t := range seen {
			if t == tag {
				return true
			}
		}
		return false
	}
	for i, trad := range c.trad {
		if err := c.woc.CheckInvariants(i); err != nil {
			return fmt.Errorf("set %d: %v", i, err)
		}
		if c.touche != nil {
			if err := c.touche.CheckInvariants(&c.woc, i); err != nil {
				return fmt.Errorf("set %d: %v", i, err)
			}
		}
		if trad && len(c.woc.Lines(i)) != 0 {
			return fmt.Errorf("set %d: traditional mode with %d WOC lines", i, len(c.woc.Lines(i)))
		}
		loc := c.locSet(i)
		for _, e := range c.loc[i*c.cfg.Ways+len(loc) : (i+1)*c.cfg.Ways] {
			if e.Valid() {
				return fmt.Errorf("set %d: valid LOC line past the %d LOC ways", i, len(loc))
			}
		}
		seen = seen[:0]
		for _, e := range loc {
			if !e.Valid() {
				continue
			}
			if contains(e.Tag()) {
				return fmt.Errorf("set %d: duplicate LOC tag %x", i, e.Tag())
			}
			seen = append(seen, e.Tag())
			if e.Dirty()&^e.Footprint() != 0 {
				return fmt.Errorf("set %d: LOC dirty outside footprint", i)
			}
		}
		for _, wl := range c.woc.Lines(i) {
			if contains(wl.Tag()) {
				return fmt.Errorf("set %d: tag %x in both LOC and WOC", i, wl.Tag())
			}
			seen = append(seen, wl.Tag())
		}
	}
	return nil
}

// Merge folds a sibling shard's counters into s: shards partition the
// line-address space, so plain sums (and bucket-wise histogram sums)
// reproduce the sequential totals exactly. Only shard-exact
// configurations (Config.ShardExact) are ever run sharded.
//
//ldis:noalloc
func (s *Stats) Merge(o *Stats) {
	s.Accesses += o.Accesses
	s.LOCHits += o.LOCHits
	s.WOCHits += o.WOCHits
	s.HoleMisses += o.HoleMisses
	s.LineMisses += o.LineMisses
	s.Writebacks += o.Writebacks
	s.Distilled += o.Distilled
	s.ThresholdSkips += o.ThresholdSkips
	s.TradEvictions += o.TradEvictions
	s.InstrEvictions += o.InstrEvictions
	s.WOCEvictions += o.WOCEvictions
	s.ModeSwitches += o.ModeSwitches
	s.Touche.Merge(o.Touche)
	s.CopyBacks += o.CopyBacks
	s.CopyBackFar += o.CopyBackFar
	s.CopyBackCold += o.CopyBackCold
	s.WordsUsedAtEvict.Merge(o.WordsUsedAtEvict)
	s.FPChangePos.Merge(o.FPChangePos)
}
