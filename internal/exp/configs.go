package exp

import (
	"fmt"
	"maps"
	"slices"
	"strings"

	"ldis/internal/cache"
	"ldis/internal/compress"
	"ldis/internal/distill"
	"ldis/internal/hierarchy"
	"ldis/internal/mem"
	"ldis/internal/obs"
	"ldis/internal/prefetch"
	"ldis/internal/sampler"
	"ldis/internal/sfp"
	"ldis/internal/stats"
	"ldis/internal/wordstore"
	"ldis/internal/workload"
)

// Every system configuration the experiments compare is named once, in
// the configs table below, and the keys are the only names a cache
// organization has: Build serves the ldis facade, and through it
// distillsim and ldisd, with the same machines the figures show. A cell
// is (benchmark, config key): the windowed drive of that configuration
// over the benchmark, yielding one cellRecord. The run's cell store
// (Options.Checkpoint) simulates each cell at most once, so the
// baseline, LDIS-MT-RC and the bigger traditional caches that most
// figures share are simulated once per benchmark and every figure is a
// key list plus a projection of the records. Drives other than the
// windowed one get their own keys: a "@cpu" suffix for the IPC model
// (fig9), "@snap" for periodic content snapshots (fig10).

// l2Config is one named system configuration: how to build its system
// for a benchmark, and whether the organization is shard-exact.
type l2Config struct {
	build func(prof *workload.Profile, o Options, co *obs.Cell) *hierarchy.System
	// shard marks the traditional organizations: they are always
	// shard-exact, so their cells run sharded across o.Shards workers
	// with byte-identical results. Every other organization runs
	// sequentially.
	shard bool
}

// configs is the table of named configurations. Seeded organizations
// take the benchmark's seed; the orgs variants take their knobs from
// Options.Orgs, which the store's fingerprint covers.
var configs = map[string]l2Config{
	"base-1MB":    trad(baselineConfig("base-1MB", 1)),
	"trad-0.75MB": trad(baselineConfig("trad-0.75MB", 0.75)),
	"trad-1.25MB": trad(baselineConfig("trad-1.25MB", 1.25)),
	"trad-1.5MB":  trad(baselineConfig("trad-1.5MB", 1.5)),
	"trad-2MB":    trad(baselineConfig("trad-2MB", 2)),
	"trad-4MB":    trad(baselineConfig("trad-4MB", 4)),
	"waymemo": {shard: true, build: func(_ *workload.Profile, o Options, co *obs.Cell) *hierarchy.System {
		cfg := baselineConfig("waymemo", 1)
		cfg.WayMemo = &cache.WayMemoConfig{EntriesPerSet: o.Orgs.WayMemoEntries}
		return tradSystem(cfg, co)
	}},

	"ldis-base-2":       ldis(func(seed uint64) distill.Config { return ldisBase(2, seed) }),
	"ldis-mt-2":         ldis(func(seed uint64) distill.Config { return ldisMT(2, seed) }),
	"ldis-mt-rc-1":      ldis(func(seed uint64) distill.Config { return ldisMTRC(1, seed) }),
	"ldis-mt-rc-2":      ldis(func(seed uint64) distill.Config { return ldisMTRC(2, seed) }),
	"ldis-mt-rc-3":      ldis(func(seed uint64) distill.Config { return ldisMTRC(3, seed) }),
	"ldis-mt-rc-4":      ldis(func(seed uint64) distill.Config { return ldisMTRC(4, seed) }),
	"ldis-k1":           ldisStatic(1),
	"ldis-k2":           ldisStatic(2),
	"ldis-k4":           ldisStatic(4),
	"ldis-k8":           ldisStatic(8),
	"ldis-mt-rc-2-l8":   ldisLeaders(8),
	"ldis-mt-rc-2-l128": ldisLeaders(128),
	// The WOC's data budget used as a plain full-line victim buffer.
	"victim-2": ldis(func(seed uint64) distill.Config {
		c := ldisBase(2, seed)
		c.Slots = func(mem.LineAddr, mem.Footprint) int { return mem.WordsPerLine }
		return c
	}),
	"touche": {build: func(prof *workload.Profile, o Options, co *obs.Cell) *hierarchy.System {
		c := ldisBase(2, prof.Seed)
		c.Touche = &wordstore.ToucheConfig{SuperblockLines: o.Orgs.ToucheSBLines, Seed: prof.Seed}
		return distillSystem(c, co)
	}},
	"copyback": {build: func(prof *workload.Profile, o Options, co *obs.Cell) *hierarchy.System {
		c := ldisBase(2, prof.Seed)
		c.CopyBack = &distill.CopyBackConfig{MaxReuseBytes: o.Orgs.CopyBackMaxReuse, Seed: prof.Seed}
		return distillSystem(c, co)
	}},

	// CMPR-4xTags: compressed traditional cache, perfect LRU.
	"cmpr-4x": {build: func(prof *workload.Profile, _ Options, _ *obs.Cell) *hierarchy.System {
		return hierarchy.NewSystem(hierarchy.NewCMPRL2(compress.NewCMPR(compress.DefaultCMPRConfig(), prof.Values())))
	}},
	// FAC-4xTags: distill cache with 3 WOC ways + compression.
	"fac-3": {build: func(prof *workload.Profile, _ Options, co *obs.Cell) *hierarchy.System {
		c := ldisMTRC(3, prof.Seed)
		c.Obs = co
		sys, _ := hierarchy.FAC(c, prof.Values())
		return sys
	}},
	// SFP with 16k-entry (64kB) and 64k-entry (256kB) predictors.
	"sfp-16k": sfpConfig(16 << 10),
	"sfp-64k": sfpConfig(64 << 10),

	"base-1MB+pf2":     prefetched(trad(baselineConfig("base-1MB", 1))),
	"ldis-mt-rc-2+pf2": prefetched(ldis(func(seed uint64) distill.Config { return ldisMTRC(2, seed) })),
}

// Keys lists every configuration key in sorted order: the one
// vocabulary that names a cache organization, on every entry point.
func Keys() []string { return slices.Sorted(maps.Keys(configs)) }

// config looks a configuration up by key. An unknown key's error lists
// the keys.
func config(key string) (l2Config, error) {
	c, ok := configs[key]
	if !ok {
		return l2Config{}, fmt.Errorf("unknown cache configuration %q (want one of %s)", key, strings.Join(Keys(), ", "))
	}
	return c, nil
}

// CheckKey reports whether key names a configuration: nil, or the
// error that lists the keys.
func CheckKey(key string) error {
	_, err := config(key)
	return err
}

// Build builds the named configuration for a benchmark as an ldisexp
// cell builds it under DefaultOptions: seeded organizations take the
// benchmark's seed, CMPR and FAC its value model, and the orgs
// variants the default Options.Orgs knobs. co receives the system's
// metrics; nil disables them.
func Build(key, benchmark string, co *obs.Cell) (*hierarchy.System, error) {
	cfg, err := config(key)
	if err != nil {
		return nil, err
	}
	prof, err := workload.ByName(benchmark)
	if err != nil {
		return nil, err
	}
	return cfg.build(prof, DefaultOptions().withKnobDefaults(), co), nil
}

// tradKey names the traditional cache of the given size in megabytes.
func tradKey(sizeMB float64) string {
	if sizeMB == 1 {
		return "base-1MB"
	}
	return fmt.Sprintf("trad-%gMB", sizeMB)
}

// baselineConfig builds a traditional cache config of the given size in
// megabytes: the paper grows capacity by adding ways at a fixed 2048
// sets (its 0.75MB LOC is 6 ways of 2048 sets), which keeps every size
// realizable with a power-of-two set count.
func baselineConfig(name string, sizeMB float64) cache.Config {
	const sets = 2048
	bytes := int(sizeMB * (1 << 20))
	ways := bytes / (64 * sets)
	return cache.Config{Name: name, SizeBytes: ways * 64 * sets, Ways: ways}
}

// LDIS configuration variants (Figure 6).
func ldisBase(wocWays int, seed uint64) distill.Config {
	return distill.Config{
		Name: "ldis-base", SizeBytes: 1 << 20, Ways: 8, WOCWays: wocWays, Seed: seed,
	}
}

func ldisMT(wocWays int, seed uint64) distill.Config {
	c := ldisBase(wocWays, seed)
	c.Name = "ldis-mt"
	c.MedianThreshold = true
	return c
}

func ldisMTRC(wocWays int, seed uint64) distill.Config {
	c := ldisMT(wocWays, seed)
	c.Name = "ldis-mt-rc"
	c.Reverter = true
	c.SamplerConfig = shortTraceSampler(c.Sets(), 0)
	return c
}

// shortTraceSampler is the reverter's sampler for our trace lengths,
// with the given leader-set count (0 keeps the default). The paper's
// PSEL hysteresis band (64..192) is tuned for 250M instruction traces;
// our runs are 10-100x shorter, so low-MPKI benchmarks would never
// accumulate enough leader-set misses to cross it. A narrower band
// (±16 around the midpoint) preserves the hysteresis mechanism while
// converging at our trace lengths.
func shortTraceSampler(sets, leaders int) *sampler.Config {
	sc := sampler.DefaultConfig(sets)
	if leaders > 0 {
		sc.LeaderSets = leaders
	}
	sc.LowWatermark = 112
	sc.HighWatermark = 144
	return &sc
}

func trad(cfg cache.Config) l2Config {
	return l2Config{shard: true, build: func(_ *workload.Profile, _ Options, co *obs.Cell) *hierarchy.System {
		return tradSystem(cfg, co)
	}}
}

func ldis(mk func(seed uint64) distill.Config) l2Config {
	return l2Config{build: func(prof *workload.Profile, _ Options, co *obs.Cell) *hierarchy.System {
		return distillSystem(mk(prof.Seed), co)
	}}
}

// ldisStatic is LDIS-Base with a static distillation threshold K.
func ldisStatic(k int) l2Config {
	return ldis(func(seed uint64) distill.Config {
		c := ldisBase(2, seed)
		c.StaticThreshold = k
		return c
	})
}

// ldisLeaders is LDIS-MT-RC with a non-default reverter leader-set
// count; the default count is plain ldis-mt-rc-2.
func ldisLeaders(n int) l2Config {
	return ldis(func(seed uint64) distill.Config {
		c := ldisMTRC(2, seed)
		c.SamplerConfig = shortTraceSampler(c.Sets(), n)
		return c
	})
}

// sfpConfig is the spatial footprint predictor with the given table
// size, reverter-wrapped as in the paper.
func sfpConfig(entries int) l2Config {
	return l2Config{build: func(prof *workload.Profile, _ Options, _ *obs.Cell) *hierarchy.System {
		c := sfp.DefaultConfig()
		c.PredictorEntries = entries
		c.Seed = prof.Seed
		c.SamplerConfig = shortTraceSampler(c.Sets(), 0)
		return hierarchy.NewSystem(hierarchy.NewSFPL2(sfp.New(c)))
	}}
}

// prefetched composes degree-2 next-line prefetching over a
// configuration's L2.
func prefetched(inner l2Config) l2Config {
	return l2Config{build: func(prof *workload.Profile, o Options, co *obs.Cell) *hierarchy.System {
		return hierarchy.NewSystem(prefetch.Wrap(inner.build(prof, o, co).L2, prefetch.Config{Degree: 2}))
	}}
}

// tradSystem builds a traditional-cache system with the cell's
// observability wired in.
func tradSystem(cfg cache.Config, co *obs.Cell) *hierarchy.System {
	cfg.Obs = co
	sys, _ := hierarchy.Traditional(cfg)
	return sys
}

// distillSystem builds a distill-cache system with the cell's
// observability wired in.
func distillSystem(cfg distill.Config, co *obs.Cell) *hierarchy.System {
	cfg.Obs = co
	sys, _ := hierarchy.Distill(cfg)
	return sys
}

// cellRecord is everything one windowed cell yields, as plain data so
// it gob round-trips through the checkpoint. Fields an organization
// does not have stay zero.
type cellRecord struct {
	// Totals are the measurement window's deltas.
	Totals hierarchy.WindowTotals

	// Whole-run system counters.
	Instructions, CompulsoryMisses uint64

	// Whole-run L2 counters.
	Accesses, Hits, Misses, Writebacks uint64
	// Traditional caches: the words-used-at-eviction and
	// footprint-change-position histogram buckets, and the footprint
	// word count over the lines resident at the end of the run.
	WordsUsed, FPChange          []uint64
	ResidentWords, ResidentLines uint64
	// Way-memo counters.
	MemoRefs, MemoHits, MemoSkipped uint64

	// Distill caches: the four-outcome breakdown, and the Touché and
	// copy-back counters.
	LOCHits, WOCHits, HoleMisses, LineMisses uint64
	Touche                                   wordstore.ToucheStats
	CopyBacks, CopyBackFar, CopyBackCold     uint64
}

// mpki returns the measurement window's misses per kilo-instruction.
func (r cellRecord) mpki() float64 { return r.Totals.MPKI() }

// wordsUsed rebuilds the words-used-at-eviction histogram.
func (r cellRecord) wordsUsed() *stats.Histogram { return histogramOf(r.WordsUsed) }

// fpChange rebuilds the footprint-change-position histogram.
func (r cellRecord) fpChange() *stats.Histogram { return histogramOf(r.FPChange) }

func histogramOf(buckets []uint64) *stats.Histogram {
	h := stats.NewHistogram("", max(len(buckets), 1))
	for i, n := range buckets {
		h.AddN(i, n)
	}
	return h
}

func bucketsOf(h *stats.Histogram) []uint64 {
	b := make([]uint64, h.Len())
	for i := range b {
		b[i] = h.Count(i)
	}
	return b
}

// runConfigs runs one windowed cell per (benchmark, key) through the
// run's store and returns the surviving benchmarks and their records,
// aligned with keys.
func runConfigs(o Options, keys ...string) ([]string, [][]cellRecord, error) {
	return runGrid(o, keys, func(prof *workload.Profile, key string, co *obs.Cell) (cellRecord, error) {
		cfg, err := config(key)
		if err != nil {
			return cellRecord{}, err
		}
		return simulate(cfg, prof, o, co), nil
	})
}

// simulate drives one windowed cell: warmup, then the measurement
// window, sharded across o.Shards workers when the organization is
// shard-exact. DoBatch is a loop over Do and the drive never reads past
// o.Accesses records, so the whole-run counters equal those of
// System.Run over o.Accesses accesses.
func simulate(cfg l2Config, prof *workload.Profile, o Options, co *obs.Cell) cellRecord {
	if !cfg.shard || o.shards() == 1 {
		sys := cfg.build(prof, o, co)
		return newRecord(runWindowed(sys, prof, o, co).Totals(), []*hierarchy.System{sys})
	}
	run, err := hierarchy.RunSharded(o.shards(), o.batchSize(), o.warmup(), o.measure(), cellStream(prof, co),
		func(int) *hierarchy.System { return cfg.build(prof, o, co) })
	if err != nil {
		// Options are validated and the organization is shard-exact,
		// so only a panicking shard worker lands here; the
		// cell-isolation layer above turns the panic back into a cell
		// failure.
		panic(err)
	}
	return newRecord(run.Window, run.Systems)
}

// newRecord reads a finished cell's counters. shards[0] holds the
// merged counters of a sharded run; resident lines are spread over
// every shard's cache.
func newRecord(w hierarchy.WindowTotals, shards []*hierarchy.System) cellRecord {
	sys := shards[0]
	r := cellRecord{
		Totals:           w,
		Instructions:     sys.Instructions,
		CompulsoryMisses: sys.CompulsoryMisses,
		Accesses:         sys.L2.Accesses(),
		Misses:           sys.L2.Misses(),
	}
	switch l2 := sys.L2.(type) {
	case *hierarchy.TradL2:
		st := l2.C.Stats()
		r.Hits, r.Writebacks = st.Hits, st.Writebacks
		r.WordsUsed, r.FPChange = bucketsOf(st.WordsUsedAtEvict), bucketsOf(st.FPChangePos)
		r.MemoRefs, r.MemoHits, r.MemoSkipped = st.MemoRefs, st.MemoHits, st.MemoProbesSkipped
		for _, s := range shards {
			s.L2.(*hierarchy.TradL2).C.VisitLines(func(_ mem.LineAddr, fp mem.Footprint) {
				r.ResidentWords += uint64(fp.Count())
				r.ResidentLines++
			})
		}
	case *hierarchy.DistillL2:
		st := l2.C.Stats()
		r.Hits, r.Writebacks = st.Hits(), st.Writebacks
		r.LOCHits, r.WOCHits, r.HoleMisses, r.LineMisses = st.LOCHits, st.WOCHits, st.HoleMisses, st.LineMisses
		r.Touche = st.Touche
		r.CopyBacks, r.CopyBackFar, r.CopyBackCold = st.CopyBacks, st.CopyBackFar, st.CopyBackCold
	}
	return r
}
