// Package distill implements the paper's primary contribution: the
// Distill Cache (Section 5). Each set splits into a Line-Organized
// Cache (LOC) — ordinary ways whose tag entries carry a footprint — and
// a Word-Organized Cache (WOC) whose ways are logically partitioned
// into 8B word entries. Lines evicted from the LOC are *distilled*:
// their used words move to the WOC at a power-of-two aligned position
// and the unused words are discarded. Median-threshold filtering
// (Section 5.4) and the reverter circuit (Section 5.5) are both
// implemented here.
package distill

import (
	"fmt"
	"math"

	"ldis/internal/mem"
	"ldis/internal/obs"
	"ldis/internal/sampler"
	"ldis/internal/wordstore"
)

// SlotsFunc computes how many 8B WOC entries a distilled line occupies:
// a power of two up to mem.WordsPerLine. The default is the smallest
// power of two covering the used-word count; footprint-aware
// compression (Section 8.2) plugs in a function that compresses the
// used words first.
type SlotsFunc func(line mem.LineAddr, used mem.Footprint) int

// Config describes a distill cache. The paper's default (Section 6.1):
// 1MB, 8 ways, 64B lines, 6 ways LOC + 2 ways WOC, LRU in the LOC,
// random aligned replacement in the WOC.
type Config struct {
	Name      string
	SizeBytes int
	Ways      int
	WOCWays   int

	// MedianThreshold enables LDIS-MT filtering (Section 5.4).
	MedianThreshold bool

	// StaticThreshold, when nonzero, applies a fixed distillation
	// threshold K (Section 5.4's general threshold-based distillation):
	// only lines with at most K used words enter the WOC. Mutually
	// exclusive with MedianThreshold.
	StaticThreshold int

	// WOCLRU switches the WOC's replacement from the paper's random
	// candidate selection to a variable-size LRU approximation; the
	// paper's footnote 4 claims the two perform similarly, which the
	// BenchmarkAblationWOCReplacement ablation checks.
	WOCLRU bool

	// FootprintNoise models wrong-path pollution of footprints (the
	// paper's footnote 8): with this probability an install marks one
	// random extra word as used, diluting distillation.
	FootprintNoise float64

	// Reverter enables the reverter circuit (Section 5.5). Follower
	// sets fall back to a traditional (Ways)-way LRU organization when
	// the sampler decides LDIS is losing.
	Reverter bool

	// Seed drives the WOC's random replacement choices.
	Seed uint64

	// Slots overrides the WOC allocation size (used by FAC). Nil means
	// the uncompressed power-of-two rule.
	Slots SlotsFunc

	// Touche, when non-nil, replaces the WOC's per-word full tags with
	// Touché-style compressed superblock tags (arXiv 1909.00553):
	// demand lookups go through the hashed-signature/checksum path and
	// installs evict whatever the compressed store cannot represent.
	// The tag-area win is priced by costmodel.ToucheTagArea.
	Touche *wordstore.ToucheConfig

	// CopyBack, when non-nil, enables reuse-distance-gated copy-back of
	// clean L1 victims into the WOC (arXiv 2105.14442): an L1D eviction
	// notice for a clean line absent from both structures consults a
	// SHARDS-fed Mattson predictor and, if the line's current stack
	// distance fits the configured window, its used words are installed
	// into the WOC instead of being dropped.
	CopyBack *CopyBackConfig

	// SamplerConfig overrides the reverter's sampler parameters; zero
	// value means sampler.DefaultConfig for this cache's set count.
	SamplerConfig *sampler.Config

	// Obs, when non-nil, receives the owning grid cell's distillation
	// counters (distilled lines, threshold skips, hole misses, WOC
	// evictions, mode switches), the WOC-lookup and distill-evict
	// spans, and the WOC install-size histogram. All handles no-op when
	// Obs is nil; nothing lands on the per-access hit path.
	Obs *obs.Cell
}

// Sets returns the number of sets.
func (c Config) Sets() int { return c.SizeBytes / (mem.LineSize * c.Ways) }

// LOCWays returns the number of line-organized ways.
func (c Config) LOCWays() int { return c.Ways - c.WOCWays }

// WOCEntries returns the number of word entries per set.
func (c Config) WOCEntries() int { return c.WOCWays * mem.WordsPerLine }

// maxWays bounds Ways: a set header counts its LOC entries, up to Ways
// in traditional mode, in one byte.
const maxWays = math.MaxUint8

// Validate checks structural invariants.
func (c Config) Validate() error {
	if c.Ways <= 1 || c.Ways > maxWays {
		return fmt.Errorf("distill %q: ways %d not in [2, %d]", c.Name, c.Ways, maxWays)
	}
	if c.WOCWays < 1 || c.WOCWays >= c.Ways {
		return fmt.Errorf("distill %q: WOCWays %d must be in [1, %d]", c.Name, c.WOCWays, c.Ways-1)
	}
	if c.WOCWays > wordstore.MaxWays {
		return fmt.Errorf("distill %q: WOCWays %d above %d", c.Name, c.WOCWays, wordstore.MaxWays)
	}
	if _, err := mem.NewGeometry(c.SizeBytes, c.Ways); err != nil {
		return fmt.Errorf("distill %q: %w", c.Name, err)
	}
	if c.StaticThreshold < 0 || c.StaticThreshold > mem.WordsPerLine {
		return fmt.Errorf("distill %q: static threshold %d out of [0,%d]", c.Name, c.StaticThreshold, mem.WordsPerLine)
	}
	if c.StaticThreshold > 0 && c.MedianThreshold {
		return fmt.Errorf("distill %q: StaticThreshold and MedianThreshold are mutually exclusive", c.Name)
	}
	if c.FootprintNoise < 0 || c.FootprintNoise > 1 {
		return fmt.Errorf("distill %q: footprint noise %v out of [0,1]", c.Name, c.FootprintNoise)
	}
	if c.Touche != nil {
		if err := c.Touche.Validate(); err != nil {
			return fmt.Errorf("distill %q: %v", c.Name, err)
		}
	}
	if c.CopyBack != nil {
		if err := c.CopyBack.Validate(); err != nil {
			return fmt.Errorf("distill %q: %v", c.Name, err)
		}
	}
	return nil
}

// ShardExact reports whether this configuration's results are a pure
// function of per-set access order, i.e. whether line-address sharding
// reproduces the sequential run byte for byte. The disqualifiers are
// the features that couple sets through global state:
//
//   - MedianThreshold: one median filter fed by every set's evictions
//     in global order.
//   - Reverter: a global PSEL counter and sampler fed by leader sets.
//   - FootprintNoise: consumes the cache-global RNG stream, whose
//     sequence depends on cross-set interleaving.
//   - random WOC replacement (WOCLRU false): same RNG coupling on
//     every distill.
//   - Slots: an extension hook whose purity this package cannot see.
//   - CopyBack: its reuse predictor is one Mattson stack fed by every
//     set's accesses in global order, so predictions (and therefore
//     WOC contents) depend on cross-set interleaving.
//
// The WOC-LRU tick counter is global but harmless: only the relative
// order of recency stamps within one set matters, and per-shard
// processing preserves per-set program order. Touché compressed tags
// are likewise shard-neutral: signatures and checksums are pure
// functions of (tag, seed), and the install filter touches only the
// accessed set.
func (c Config) ShardExact() bool {
	return !c.MedianThreshold && !c.Reverter && c.FootprintNoise == 0 &&
		c.WOCLRU && c.Slots == nil && c.CopyBack == nil
}
