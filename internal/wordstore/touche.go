// Touché-style compressed superblock tags for the word-organized set
// (arXiv 1909.00553). Instead of one full tag per word entry — the
// dominant storage cost the distill paper concedes in Section 5.1 —
// resident lines of the same superblock (a naturally aligned group of
// consecutive line addresses) share one compressed tag entry: a hashed
// signature plus a short checksum. Lookups compare signatures; a
// signature match with a differing full tag is disambiguated by the
// checksum, and when even the checksum collides the model's final
// data-integrity verification (the full tag residue folded into the
// entry's ECC bits, as in the Touché design) still catches it. A
// compressed lookup therefore NEVER returns a false hit: the worst a
// collision can cause is a safe miss, which the counters expose.
//
// The flip side of provisioning compressed entries is that a set can
// only name a bounded number of distinct superblocks at once.
// PrepareInstall enforces both invariants ahead of every install:
// no two resident lines may share a (member, signature) pair, and the
// set's distinct-superblock count stays within the provisioned entry
// budget. The tag-area arithmetic for this layout lives in
// internal/costmodel (ToucheTagArea), giving the LDIS per-word tag
// overhead a measured counter-scenario.
package wordstore

import (
	"fmt"

	"ldis/internal/mem"
)

// ToucheConfig parameterizes the compressed superblock tag store.
// The zero value of any field selects its default.
type ToucheConfig struct {
	// SuperblockLines is the number of consecutive lines sharing one
	// compressed tag entry (power of two; default 4).
	SuperblockLines int
	// TagBits is the width of the hashed superblock signature
	// (default 16).
	TagBits int
	// ChecksumBits is the width of the disambiguation checksum
	// (default 8).
	ChecksumBits int
	// SuperblockEntries is the number of compressed tag entries
	// provisioned per set — the maximum distinct superblocks resident
	// at once. Default: half the set's word entries, the provisioning
	// point the tag-area model in internal/costmodel prices.
	SuperblockEntries int
	// Seed perturbs the signature and checksum hashes.
	Seed uint64
}

// WithDefaults returns the config with zero fields replaced by their
// defaults (SuperblockEntries stays 0: it is resolved against the set
// geometry in NewToucheTags).
func (c ToucheConfig) WithDefaults() ToucheConfig {
	if c.SuperblockLines == 0 {
		c.SuperblockLines = 4
	}
	if c.TagBits == 0 {
		c.TagBits = 16
	}
	if c.ChecksumBits == 0 {
		c.ChecksumBits = 8
	}
	return c
}

// Validate rejects geometrically impossible configs.
func (c ToucheConfig) Validate() error {
	c = c.WithDefaults()
	if c.SuperblockLines < 2 || c.SuperblockLines&(c.SuperblockLines-1) != 0 {
		return fmt.Errorf("wordstore: SuperblockLines %d must be a power of two >= 2", c.SuperblockLines)
	}
	if c.TagBits < 1 || c.TagBits > 32 {
		return fmt.Errorf("wordstore: TagBits %d out of range [1,32]", c.TagBits)
	}
	if c.ChecksumBits < 1 || c.ChecksumBits > 32 {
		return fmt.Errorf("wordstore: ChecksumBits %d out of range [1,32]", c.ChecksumBits)
	}
	if c.SuperblockEntries < 0 {
		return fmt.Errorf("wordstore: SuperblockEntries %d negative", c.SuperblockEntries)
	}
	return nil
}

// ToucheStats counts compressed-lookup and install-filter events.
// All fields are owned by the simulating goroutine (one ToucheTags per
// cache, one cache per shard) and merged after the run.
type ToucheStats struct {
	Lookups             uint64 // demand lookups through the compressed path
	Hits                uint64 // signature match verified by the full tag
	AliasSafeMisses     uint64 // signature matched a different superblock: safe miss
	ChecksumCollisions  uint64 // alias where the checksum ALSO matched (caught by final verification)
	AliasEvictions      uint64 // resident lines evicted to keep (member, signature) unique
	SuperblockEvictions uint64 // resident lines evicted for superblock-entry pressure
}

// Merge accumulates b into s.
func (s *ToucheStats) Merge(b ToucheStats) {
	s.Lookups += b.Lookups
	s.Hits += b.Hits
	s.AliasSafeMisses += b.AliasSafeMisses
	s.ChecksumCollisions += b.ChecksumCollisions
	s.AliasEvictions += b.AliasEvictions
	s.SuperblockEvictions += b.SuperblockEvictions
}

// ToucheTags is the compressed-tag lookup/install filter shared by all
// sets of one word-organized cache. It holds no per-set state — the
// signature and checksum are pure functions of a line's tag — so it
// composes with set-interleaved sharding untouched.
type ToucheTags struct {
	cfg       ToucheConfig
	sbEntries int
	sbShift   uint
	sbMask    uint64
	sigMask   uint64
	ckMask    uint64

	// Stats points at the counter block the filter increments. It
	// defaults to a private block; the distill cache re-points it into
	// its own Stats so shard merging folds Touché counters for free.
	Stats *ToucheStats

	sbScratch []sbCount
}

type sbCount struct {
	sb    uint64
	words int
}

// NewToucheTags builds the filter for sets with the given number of
// data ways. cfg.SuperblockEntries == 0 resolves to half the word
// entries per set (ways * WordsPerLine / 2), minimum 1.
func NewToucheTags(cfg ToucheConfig, ways int) *ToucheTags {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	entries := cfg.SuperblockEntries
	if entries == 0 {
		entries = ways * mem.WordsPerLine / 2
	}
	if entries < 1 {
		entries = 1
	}
	shift := uint(0)
	for 1<<shift != cfg.SuperblockLines {
		shift++
	}
	cap := ways * mem.WordsPerLine
	return &ToucheTags{
		cfg:       cfg,
		sbEntries: entries,
		sbShift:   shift,
		sbMask:    uint64(cfg.SuperblockLines - 1),
		sigMask:   1<<uint(cfg.TagBits) - 1,
		ckMask:    1<<uint(cfg.ChecksumBits) - 1,
		Stats:     new(ToucheStats),
		sbScratch: make([]sbCount, 0, cap),
	}
}

// Config returns the resolved configuration.
func (t *ToucheTags) Config() ToucheConfig {
	c := t.cfg
	c.SuperblockEntries = t.sbEntries
	return c
}

// SuperblockEntries returns the per-set compressed tag entry budget.
func (t *ToucheTags) SuperblockEntries() int { return t.sbEntries }

func (t *ToucheTags) sig(sb uint64) uint64 {
	return mem.Mix64(sb^t.cfg.Seed) & t.sigMask
}

func (t *ToucheTags) checksum(sb uint64) uint64 {
	return mem.Mix64(sb^t.cfg.Seed^0x9e3779b97f4a7c15) & t.ckMask
}

// Find is the compressed-tag demand lookup: the hardware compares the
// requested line's member index and superblock signature against the
// resident entries, verifies a signature match with the checksum, and
// falls back to the final data-integrity verification when even the
// checksum collides. PrepareInstall keeps (member, signature) pairs
// unique within a set, so at most one resident line can match and the
// first signature match decides the lookup. A collision of any depth
// produces a safe miss, never a false hit.
//
//ldis:noalloc
func (t *ToucheTags) Find(st *Store, si int, tag uint64) int {
	t.Stats.Lookups++
	member := tag & t.sbMask
	sb := tag >> t.sbShift
	sigWant := t.sig(sb)
	lines := st.Lines(si)
	for i := range lines {
		lt := lines[i].Tag()
		if lt&t.sbMask != member {
			continue
		}
		lsb := lt >> t.sbShift
		if t.sig(lsb) != sigWant {
			continue
		}
		if lsb == sb {
			t.Stats.Hits++
			return i
		}
		// Signature alias: a different superblock hashed to the same
		// signature. The checksum disambiguates; if it collides too,
		// the final verification still catches the mismatch. Either
		// way the lookup misses safely.
		if t.checksum(lsb) == t.checksum(sb) {
			t.Stats.ChecksumCollisions++
		}
		t.Stats.AliasSafeMisses++
		return -1
	}
	return -1
}

// PrepareInstall evicts whatever the compressed tag store cannot
// represent in set si alongside an incoming line with the given tag,
// and returns the evicted lines (in the store's eviction buffer, valid
// until its next mutation) so the caller can account writebacks. Two
// invariants are restored ahead of the install:
//
//  1. no resident line may share the incoming line's (member,
//     signature) pair with a different superblock — such an alias is
//     evicted (AliasEvictions), keeping Find single-match;
//  2. the set's distinct resident superblocks must leave room for the
//     incoming line's superblock within the provisioned entry budget —
//     under pressure the superblock storing the fewest words (ties to
//     the smallest superblock id) is evicted whole
//     (SuperblockEvictions).
//
//ldis:noalloc
func (t *ToucheTags) PrepareInstall(st *Store, si int, tag uint64) []Line {
	evicted := st.evictBuf[:0]
	member := tag & t.sbMask
	sb := tag >> t.sbShift
	sigWant := t.sig(sb)

	// Invariant 1: evict (member, signature) aliases.
	for i := 0; i < int(st.count[si]); {
		lt := st.Lines(si)[i].Tag()
		lsb := lt >> t.sbShift
		if lt&t.sbMask == member && lsb != sb && t.sig(lsb) == sigWant {
			evicted = append(evicted, st.RemoveAt(si, i))
			t.Stats.AliasEvictions++
			continue
		}
		i++
	}

	// Invariant 2: superblock-entry pressure. Count the distinct
	// resident superblocks and the words each stores.
	counts := t.sbScratch[:0]
	sbResident := false
	lines := st.Lines(si)
	for i := range lines {
		lsb := lines[i].Tag() >> t.sbShift
		if lsb == sb {
			sbResident = true
		}
		found := false
		for j := range counts {
			if counts[j].sb == lsb {
				counts[j].words += lines[i].Words.Count()
				found = true
				break
			}
		}
		if !found {
			counts = append(counts, sbCount{sb: lsb, words: lines[i].Words.Count()})
		}
	}
	t.sbScratch = counts
	if !sbResident && len(counts) >= t.sbEntries {
		// Evict the cheapest superblock whole: fewest stored words,
		// ties to the smallest superblock id — deterministic and a
		// pure function of the set's contents.
		victim := counts[0]
		for _, c := range counts[1:] {
			if c.words < victim.words || (c.words == victim.words && c.sb < victim.sb) {
				victim = c
			}
		}
		for i := 0; i < int(st.count[si]); {
			if st.Lines(si)[i].Tag()>>t.sbShift == victim.sb {
				evicted = append(evicted, st.RemoveAt(si, i))
				t.Stats.SuperblockEvictions++
				continue
			}
			i++
		}
	}
	st.evictBuf = evicted
	return evicted
}

// CheckInvariants verifies the compressed-tag representability
// invariants PrepareInstall maintains in set si; tests call it after
// stress runs.
func (t *ToucheTags) CheckInvariants(st *Store, si int) error {
	lines := st.Lines(si)
	for i := range lines {
		ti := lines[i].Tag()
		for j := i + 1; j < len(lines); j++ {
			tj := lines[j].Tag()
			if ti&t.sbMask != tj&t.sbMask {
				continue
			}
			si, sj := ti>>t.sbShift, tj>>t.sbShift
			if si != sj && t.sig(si) == t.sig(sj) {
				return fmt.Errorf("wordstore: lines %x and %x share (member, signature)", ti, tj)
			}
		}
	}
	distinct := t.sbScratch[:0]
	for i := range lines {
		lsb := lines[i].Tag() >> t.sbShift
		found := false
		for _, d := range distinct {
			if d.sb == lsb {
				found = true
				break
			}
		}
		if !found {
			distinct = append(distinct, sbCount{sb: lsb})
		}
	}
	t.sbScratch = distinct
	if len(distinct) > t.sbEntries {
		return fmt.Errorf("wordstore: %d distinct superblocks resident, %d entries provisioned", len(distinct), t.sbEntries)
	}
	return nil
}
