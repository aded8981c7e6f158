// Package mrc builds LRU miss-ratio curves in a single trace pass.
//
// The engine is a Mattson stack implemented over an order-statistic
// Fenwick tree: each tracked line holds a weight at its last-touch
// time, and the reuse distance of an access is the total weight of
// lines touched since — the running live total minus one O(log M)
// prefix-sum query, instead of an O(M) stack scan, where M is the
// number of live tracked lines. A re-touch of the line already on top
// of the stack costs O(1): its distance is one line at every capacity,
// and it changes no recency order, so the clock does not tick. The
// clock is compacted (live lines renumbered in recency order)
// whenever it fills the tree, so memory and per-tick cost follow M,
// never the trace length. Because LRU has the inclusion property, one
// histogram of reuse distances yields the miss ratio at every capacity
// at once: an access hits in a cache of C bytes iff its (inclusive)
// reuse distance is at most C.
//
// Every access is priced at two granularities from the same pass:
//
//   - line grain: each stacked line costs mem.LineSize bytes — the
//     conventional cache.
//   - word grain: each stacked line costs its allocated word slots
//     (mem.Pow2WordsFor of the cumulative footprint since first touch,
//     matching the distilled word-organized-cache allocation model)
//     times mem.WordSize bytes.
//
// The vertical gap between the two curves is the effective capacity a
// distilled cache reclaims by not storing never-used words (DESIGN.md
// §9).
//
// SHARDS sampling (Waldspurger et al.) makes the pass sublinear in
// distinct lines: a line is tracked iff its spatial hash falls under a
// threshold, every tracked event is scaled by the inverse sampling
// rate, and — the standard expected-misses correction — miss ratios
// are divided by the true (unsampled) reference count. The fixed-size
// variant additionally bounds tracked lines, evicting the
// maximum-hash line and lowering the threshold when the bound is
// exceeded. Everything is seeded from Config: no wall clock, no map
// iteration, deterministic at any worker count.
package mrc

import (
	"fmt"
	"math"

	"ldis/internal/mem"
	"ldis/internal/obs"
	"ldis/internal/stats"
)

// Config parameterizes one Engine.
type Config struct {
	// MaxBytes is the largest capacity on the curve. Default 4MB.
	MaxBytes int
	// ResolutionBytes is the capacity step between curve points.
	// Default 64KB.
	ResolutionBytes int
	// SampleRate is the SHARDS spatial sampling rate in (0, 1];
	// 1 (the default, also the zero value) disables sampling and the
	// engine is exact.
	SampleRate float64
	// MaxSamples, when > 0, bounds the number of concurrently tracked
	// lines (SHARDS fixed-size mode): exceeding it evicts the
	// maximum-hash line and lowers the threshold. Requires
	// SampleRate < 1 and at most MaxSamplesLimit. New allocates a
	// fixed-size engine's whole stack for this many lines up front:
	// 49–67 bytes per sample (see New).
	MaxSamples int
	// Seed perturbs the spatial hash so distinct runs (or benchmarks)
	// sample independent line subsets.
	Seed uint64

	// Obs, when non-nil, receives the owning grid cell's tracked-line
	// counter and — every 64K tracked accesses — the running line-grain
	// and word-grain miss ratios at MaxBytes, both as deterministic
	// cell gauges and as live gauges for the HTTP endpoint. Nil
	// disables all of it at the cost of one branch per publish window.
	Obs *obs.Cell
}

func (c Config) withDefaults() Config {
	if c.MaxBytes == 0 {
		c.MaxBytes = 4 << 20
	}
	if c.ResolutionBytes == 0 {
		c.ResolutionBytes = 64 << 10
	}
	if c.SampleRate == 0 {
		c.SampleRate = 1
	}
	return c
}

// Validate reports the first problem with c once defaults are applied.
// It is the one authority on an engine's geometry and sampling: New
// runs it, and callers that take these values from users run it
// before building anything.
func (c Config) Validate() error {
	c = c.withDefaults()
	if c.ResolutionBytes < mem.LineSize {
		return fmt.Errorf("mrc: resolution %dB is below the line size (%dB)", c.ResolutionBytes, mem.LineSize)
	}
	if c.MaxBytes < c.ResolutionBytes {
		return fmt.Errorf("mrc: max capacity %dB is below the resolution %dB", c.MaxBytes, c.ResolutionBytes)
	}
	if !(c.SampleRate > 0 && c.SampleRate <= 1) {
		return fmt.Errorf("mrc: sample rate %g outside (0, 1]", c.SampleRate)
	}
	if c.SampleRate < 1 && uint64(c.SampleRate*twoPow64) == 0 {
		return fmt.Errorf("mrc: sample rate %g rounds to zero lines", c.SampleRate)
	}
	if c.MaxSamples < 0 {
		return fmt.Errorf("mrc: negative max samples %d", c.MaxSamples)
	}
	if c.MaxSamples > MaxSamplesLimit {
		return fmt.Errorf("mrc: max samples %d above the limit %d (a fixed-size engine allocates its whole sample up front)", c.MaxSamples, MaxSamplesLimit)
	}
	if c.MaxSamples > 0 && c.SampleRate >= 1 {
		return fmt.Errorf("mrc: fixed-size mode (max samples %d) requires a sample rate below 1", c.MaxSamples)
	}
	return nil
}

// MaxSamplesLimit is the largest MaxSamples Validate accepts. A
// fixed-size engine at the limit allocates about 60 MB in New; SHARDS
// needs a few thousand samples for a curve within a percent or two, so
// the limit only refuses sizes that would be an allocation hazard.
const MaxSamplesLimit = 1 << 20

// twoPow64 is 2^64 as a float, the denominator turning a uint64 hash
// threshold into a sampling rate.
const twoPow64 = 1 << 64

// Engine computes line-grain and word-grain miss-ratio curves over one
// access stream. Create with New, feed with Access, and read curves
// with LineCurve/WordCurve. Call ResetCounts at the end of a warmup
// window: the stack state (recency, footprints) carries over but the
// histograms restart, mirroring the warmup()/measure() split of the
// full simulations.
type Engine struct {
	cfg     Config
	buckets int // curve points: MaxBytes / ResolutionBytes

	sampled   bool
	threshold uint64 // track line iff mem.SplitMix64(line^seed) < threshold
	invR      float64

	// The stack: the tree holds each live line's weights at its
	// last-touch position in [1, now]; compaction renumbers positions,
	// so now is a compacted clock. tab.n is the live line count and
	// liveSlots their total word slots — together prefix(now).
	now       int
	fw        fenwick
	tab       lineTable
	heap      sampleHeap
	liveSlots int64
	ticks     uint64 // tracked accesses since New; paces publishGauges

	// Histogram bucket i in [1, buckets] counts accesses whose scaled
	// reuse distance d satisfies ceil(d/resolution) == i; bucket
	// buckets+1 collects everything beyond MaxBytes. Values are
	// SHARDS-scaled expected counts (exact integers when SampleRate
	// is 1).
	histLine []float64
	histWord []float64
	cold     float64 // scaled first-touch (compulsory) misses
	refs     float64 // true references observed, sampled or not
	tracked  float64 // references that passed the sampling gate

	// Observability handles (nil when Config.Obs is nil). The miss-
	// ratio gauges refresh every 64K tracked accesses: the cell gauges
	// are deterministic (pure functions of the stream position), the
	// live gauges feed the HTTP endpoint mid-flight.
	obsSampled  *obs.Counter
	obsLineMR   *obs.Gauge
	obsWordMR   *obs.Gauge
	obsLiveLine *obs.Gauge
	obsLiveWord *obs.Gauge
}

// initialCapacity is the starting size, in positions and in table
// slots, of an exact or fixed-rate engine's stack tree and line table.
// Both grow by doubling with the live line count (see compact and
// lineTable.insert), never with the trace length.
const initialCapacity = 1 << 10

// New returns an Engine. Its memory follows the number of live tracked
// lines, never the number of accesses fed to it. An exact or
// fixed-rate engine starts small and doubles its storage as live lines
// grow. A fixed-size engine (MaxSamples > 0) never holds more than
// MaxSamples+1 lines, so New allocates its storage once and nothing
// reallocates it: a line table with slots for MaxSamples+1 keys at
// most 3/4 full (13 bytes a slot, rounded up to a power of two), a
// sample heap of MaxSamples+1 16-byte entries, and a tree of
// 2*MaxSamples 8-byte positions, which compaction never has to double
// — 49–67 bytes per sample in all, about 950 KB at 16K samples.
func New(cfg Config) (*Engine, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	e := &Engine{
		cfg:     cfg,
		buckets: cfg.MaxBytes / cfg.ResolutionBytes,
		invR:    1,
	}
	if n := cfg.MaxSamples; n > 0 {
		e.tab = newLineTable(tableSlotsFor(n + 1))
		e.heap = sampleHeap{refs: make([]sampleRef, 0, n+1)}
		e.fw = newFenwick(2 * n)
	} else {
		e.tab = newLineTable(initialCapacity)
		e.fw = newFenwick(initialCapacity)
	}
	if cfg.SampleRate < 1 {
		e.sampled = true
		e.threshold = uint64(cfg.SampleRate * twoPow64)
		e.invR = twoPow64 / float64(e.threshold)
	}
	e.histLine = make([]float64, e.buckets+2)
	e.histWord = make([]float64, e.buckets+2)
	e.obsSampled = cfg.Obs.Counter("mrc_tracked_accesses")
	e.obsLineMR = cfg.Obs.Gauge("mrc_line_miss_ratio")
	e.obsWordMR = cfg.Obs.Gauge("mrc_word_miss_ratio")
	e.obsLiveLine = cfg.Obs.LiveGauge("mrc_live_line_miss_ratio")
	e.obsLiveWord = cfg.Obs.LiveGauge("mrc_live_word_miss_ratio")
	return e, nil
}

// Access feeds one data access (line, word-in-line) through the
// Mattson stack. A re-touch of the top-of-stack line costs an O(1)
// open-addressing probe, plus one O(log L) update when its footprint
// needs more slots. Any other reuse costs one O(log L) Fenwick prefix
// walk and one fused O(log L) update over L live lines, plus the
// probe and compaction amortized over clock ticks; no allocation.
//
//ldis:noalloc
func (e *Engine) Access(line mem.LineAddr, word int) {
	if dLine, dWord, reuse := e.touch(line, word); reuse {
		e.record(e.histLine, dLine)
		e.record(e.histWord, dWord)
	}
}

// touch advances the stack by one access and returns its scaled
// inclusive reuse distances at both grains. reuse is false for
// untracked lines and first touches (compulsory misses, counted here).
// The clock ticks only when the recency order changes: a re-touch of
// the line at position now is served in place.
//
//ldis:noalloc
func (e *Engine) touch(line mem.LineAddr, word int) (dLine, dWord float64, reuse bool) {
	e.refs++
	key := uint64(line)
	var h uint64
	if e.sampled {
		h = mem.SplitMix64(key ^ e.cfg.Seed)
		if h >= e.threshold {
			return 0, 0, false
		}
	}
	e.tracked++
	e.obsSampled.Inc()
	e.ticks++
	if e.ticks&0xFFFF == 0 {
		e.publishGauges()
	}

	idx := e.tab.find(key)
	var oldSlots, newSlots int32
	var nfp mem.Footprint
	if idx >= 0 {
		oldSlots = int32(mem.Pow2WordsFor(e.tab.fp[idx].Count()))
		nfp = e.tab.fp[idx].Set(word)
		newSlots = int32(mem.Pow2WordsFor(nfp.Count()))
		if int(e.tab.pos[idx]) == e.now {
			// Re-touch of the top of the stack: distance 1 line, and
			// only the line's own slots at word grain. The recency order
			// is unchanged, so the clock does not tick and only a
			// footprint that needs more slots touches the tree.
			if newSlots != oldSlots {
				e.fw.add(e.now, 0, newSlots-oldSlots)
				e.liveSlots += int64(newSlots - oldSlots)
			}
			e.tab.fp[idx] = nfp
			return mem.LineSize * e.invR, float64(newSlots) * mem.WordSize * e.invR, true
		}
	}
	if e.now+1 >= len(e.fw.tree) {
		e.compact()
	}
	e.now++
	t := e.now

	if idx >= 0 {
		// Reuse: distance = weight of lines touched strictly after the
		// previous touch, plus this line's own (inclusive) cost. Every
		// live line sits at a position below t, so that weight is the
		// live total minus the prefix up to the previous touch.
		p := int(e.tab.pos[idx])
		lines, slots := e.fw.prefix(p)
		dLine = float64(int64(e.tab.n)-lines+1) * mem.LineSize * e.invR
		dWord = float64(e.liveSlots-slots+int64(newSlots)) * mem.WordSize * e.invR

		e.fw.move(p, t, oldSlots, newSlots)
		e.liveSlots += int64(newSlots - oldSlots)
		e.tab.pos[idx] = int32(t)
		e.tab.fp[idx] = nfp
		return dLine, dWord, true
	}

	// First touch: a compulsory miss at every capacity.
	e.cold += e.invR
	slots := int32(mem.Pow2WordsFor(1))
	e.fw.add(t, 1, slots)
	e.liveSlots += int64(slots)
	idx = e.tab.insert(key)
	e.tab.pos[idx] = int32(t)
	e.tab.fp[idx] = mem.FootprintOfWord(word)
	if e.cfg.MaxSamples > 0 {
		e.pushSample(sampleRef{hash: h, key: key})
	}
	return 0, 0, false
}

// compact runs when the clock reaches the tree's capacity: it
// renumbers the live lines 1..L in their current recency order and
// rebuilds the tree in O(capacity). Relative order is all a reuse
// distance depends on, so every distance is unchanged. The tree
// doubles only when L exceeds half of it; either way at least half
// the capacity is free afterwards, so each O(capacity) pass is paid
// for by at least capacity/2 clock ticks (top-of-stack re-touches do
// not tick) — two positions' worth of work per tick — and the tree
// stays within 4x the peak live line count. A fixed-size engine's
// tree holds 2*MaxSamples positions from New and L never exceeds
// MaxSamples here, so it never doubles.
//
//ldis:noalloc
func (e *Engine) compact() {
	old := e.fw.tree
	// Mark each live line's position with its table slot (+1, so zero
	// means empty), reusing the tree's own storage as the index.
	for p := range old {
		old[p] = cell{}
	}
	for i, k := range e.tab.keys {
		if k != emptyKey {
			old[e.tab.pos[i]].line = int32(i + 1)
		}
	}
	next := old
	if capacity := len(old) - 1; e.tab.n > capacity/2 {
		//ldis:alloc-ok amortized growth of an exact or fixed-rate engine's tree: it doubles only when live lines exceed half of it, so compaction stays O(1) per tick; a fixed-size tree is presized in New and never doubles
		next = make([]cell, 2*capacity+1)
	}
	// Walk positions in order, handing out 1..L. The new position never
	// passes the one being read, so rewriting in place is safe.
	var k int32
	for p := 1; p < len(old); p++ {
		mark := old[p].line
		if mark == 0 {
			continue
		}
		old[p] = cell{}
		k++
		i := mark - 1
		e.tab.pos[i] = k
		next[k] = cell{line: 1, word: int32(mem.Pow2WordsFor(e.tab.fp[i].Count()))}
	}
	e.fw.tree = next
	e.fw.build()
	e.now = int(k)
}

// record buckets one scaled reuse distance.
//
//ldis:noalloc
func (e *Engine) record(hist []float64, dBytes float64) {
	b := int(math.Ceil(dBytes / float64(e.cfg.ResolutionBytes)))
	if b < 1 {
		b = 1
	}
	if b > e.buckets {
		b = e.buckets + 1
	}
	hist[b] += e.invR
}

// pushSample maintains the fixed-size SHARDS bound: track the new
// line, then while over budget evict the maximum-hash line(s) and
// lower the threshold to the evicted hash so the effective rate
// shrinks monotonically.
//
//ldis:noalloc
func (e *Engine) pushSample(r sampleRef) {
	e.heap.push(r)
	for len(e.heap.refs) > e.cfg.MaxSamples {
		top := e.heap.pop()
		e.threshold = top.hash
		e.invR = twoPow64 / float64(e.threshold)
		e.evict(top.key)
		// Hash collisions: anything sharing the evicted hash is now at
		// or above the threshold and must leave with it.
		for len(e.heap.refs) > 0 && e.heap.refs[0].hash >= e.threshold {
			e.evict(e.heap.pop().key)
		}
	}
}

// evict removes a line from the stack: its Fenwick weights vanish and
// its table entry is deleted. The lowered threshold guarantees the gate
// rejects the line forever after.
//
//ldis:noalloc
func (e *Engine) evict(key uint64) {
	idx := e.tab.find(key)
	if idx < 0 {
		return
	}
	slots := int32(mem.Pow2WordsFor(e.tab.fp[idx].Count()))
	e.fw.add(int(e.tab.pos[idx]), -1, -slots)
	e.liveSlots -= int64(slots)
	e.tab.remove(idx)
}

// publishGauges refreshes the running miss ratios at MaxBytes — the
// cheapest point on the curve: its miss count is just cold misses plus
// distances beyond the largest capacity, no bucket walk. Keyed off the
// monotonic tracked-access count (never renumbered by compaction), so
// which accesses publish is deterministic.
//
//ldis:noalloc
func (e *Engine) publishGauges() {
	if e.obsLineMR == nil || e.refs == 0 {
		return
	}
	lineMR := clampRatio((e.cold + e.histLine[e.buckets+1]) / e.refs)
	wordMR := clampRatio((e.cold + e.histWord[e.buckets+1]) / e.refs)
	e.obsLineMR.Set(lineMR)
	e.obsWordMR.Set(wordMR)
	e.obsLiveLine.Set(lineMR)
	e.obsLiveWord.Set(wordMR)
}

// ResetCounts zeroes the histograms and reference counters while
// keeping the stack (recency order, footprints, sample set) intact —
// call it at the warmup/measure boundary.
func (e *Engine) ResetCounts() {
	for i := range e.histLine {
		e.histLine[i] = 0
		e.histWord[i] = 0
	}
	e.cold = 0
	e.refs = 0
	e.tracked = 0
}

// DecayCounts scales the histograms and reference counters by alpha in
// (0, 1], aging the accumulated distances toward the recent past while
// keeping the stack state (recency order, footprints, sample set)
// intact. The partition controller calls it at every epoch boundary:
// the curves become exponentially-weighted sliding windows — recent
// epochs dominate allocation decisions, yet the curve never empties
// between epochs the way ResetCounts would leave it.
func (e *Engine) DecayCounts(alpha float64) {
	if !(alpha >= 0 && alpha <= 1) {
		panic(fmt.Sprintf("mrc: decay factor %g outside [0, 1]", alpha))
	}
	for i := range e.histLine {
		e.histLine[i] *= alpha
		e.histWord[i] *= alpha
	}
	e.cold *= alpha
	e.refs *= alpha
	e.tracked *= alpha
}

// FillLineMissRatios writes the line-grain miss ratio at capacity
// i*stepBytes into dst[i] for every i, without allocating — the
// partition controller's per-epoch decision path reads whole curves
// this way instead of materializing Curve values. At capacities inside
// the curve's domain the values match Series.At on the corresponding
// Curve when stepBytes is a multiple of the resolution; dst[0]
// (capacity zero) is the all-miss ratio rather than At's clamp to the
// first point. With no references observed every entry is 1 (no
// information: everything is a predicted miss).
//
//ldis:noalloc
func (e *Engine) FillLineMissRatios(dst []float64, stepBytes int) {
	e.fillMissRatios(dst, stepBytes, e.histLine)
}

// FillWordMissRatios is FillLineMissRatios at the distilled word grain.
//
//ldis:noalloc
func (e *Engine) FillWordMissRatios(dst []float64, stepBytes int) {
	e.fillMissRatios(dst, stepBytes, e.histWord)
}

//ldis:noalloc
func (e *Engine) fillMissRatios(dst []float64, stepBytes int, hist []float64) {
	if stepBytes <= 0 {
		panic(fmt.Sprintf("mrc: non-positive fill step %d", stepBytes))
	}
	if e.refs == 0 {
		for i := range dst {
			dst[i] = 1
		}
		return
	}
	// Walk capacities high to low, accumulating the suffix sum of
	// distance buckets beyond each one — the same recurrence curve()
	// uses, restated over the caller's capacity grid.
	beyond := e.cold + hist[e.buckets+1]
	j := e.buckets // next bucket to fold in once capacity drops below j*resolution
	for i := len(dst) - 1; i >= 0; i-- {
		k := i * stepBytes / e.cfg.ResolutionBytes
		if k > e.buckets {
			k = e.buckets
		}
		for j > k {
			beyond += hist[j]
			j--
		}
		dst[i] = clampRatio(beyond / e.refs)
	}
}

// CurrentLineDistanceBytes returns the line-grain stack distance the
// given line would observe if it were accessed right now: the scaled
// byte weight of the lines touched since its last touch, plus its own
// inclusive line cost. ok is false when the engine has no information
// — the line falls outside the SHARDS sample, was evicted by the
// fixed-size bound, or has never been touched (the predictor
// cold-start case). The query is read-only: it advances no clocks and
// records no distances, so prediction consumers (the clean copy-back
// gate in internal/distill) can interleave it freely with Access.
//
//ldis:noalloc
func (e *Engine) CurrentLineDistanceBytes(line mem.LineAddr) (bytes float64, ok bool) {
	key := uint64(line)
	if e.sampled && mem.SplitMix64(key^e.cfg.Seed) >= e.threshold {
		return 0, false
	}
	idx := e.tab.find(key)
	if idx < 0 {
		return 0, false
	}
	lines, _ := e.fw.prefix(int(e.tab.pos[idx]))
	return float64(int64(e.tab.n)-lines+1) * mem.LineSize * e.invR, true
}

// Refs returns the true number of references observed since the last
// ResetCounts.
func (e *Engine) Refs() float64 { return e.refs }

// TrackedRefs returns how many of those passed the sampling gate
// (equal to Refs for an exact engine).
func (e *Engine) TrackedRefs() float64 { return e.tracked }

// Curve is one miss-ratio curve: Points[i].X is a capacity in bytes,
// Points[i].Y the LRU miss ratio at that capacity. Fields are exported
// so curves survive the experiment checkpoint's gob round-trip.
type Curve struct {
	Name   string
	Points []stats.Point
	// ColdFrac is the compulsory-miss floor: the fraction of references
	// that were first touches (scaled under sampling).
	ColdFrac float64
	// Refs is the true reference count the ratios are over.
	Refs float64
}

// Series adapts the curve for stats rendering.
func (c Curve) Series() stats.Series {
	return stats.Series{Name: c.Name, Points: c.Points}
}

// MissRatioAt evaluates the curve at a capacity in bytes (step
// semantics, clamped to the curve's domain; NaN if empty).
func (c Curve) MissRatioAt(bytes float64) float64 {
	return c.Series().At(bytes)
}

// LineCurve returns the conventional line-grain curve accumulated
// since the last ResetCounts.
func (e *Engine) LineCurve(name string) Curve { return e.curve(name, e.histLine) }

// WordCurve returns the word-grain (distilled allocation cost) curve
// accumulated since the last ResetCounts.
func (e *Engine) WordCurve(name string) Curve { return e.curve(name, e.histWord) }

func (e *Engine) curve(name string, hist []float64) Curve {
	c := Curve{Name: name, Refs: e.refs}
	if e.refs == 0 {
		return c
	}
	c.ColdFrac = clampRatio(e.cold / e.refs)
	c.Points = make([]stats.Point, e.buckets)
	// MR(C_j) = (cold + distances beyond C_j) / true refs. The true-
	// reference denominator is the SHARDS expected-misses correction:
	// unsampled references are, in expectation, already accounted for
	// by the 1/R scaling of the numerator.
	beyond := e.cold + hist[e.buckets+1]
	for j := e.buckets; j >= 1; j-- {
		c.Points[j-1] = stats.Point{
			X: float64(j * e.cfg.ResolutionBytes),
			Y: clampRatio(beyond / e.refs),
		}
		beyond += hist[j]
	}
	return c
}

// clampRatio bounds a miss ratio to [0, 1]: SHARDS scaling is unbiased
// but individual estimates can overshoot slightly.
func clampRatio(r float64) float64 {
	if r < 0 {
		return 0
	}
	if r > 1 {
		return 1
	}
	return r
}
