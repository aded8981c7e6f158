package main

import (
	"time"

	"ldis/internal/hierarchy"
	"ldis/internal/mem"
	"ldis/internal/trace"
)

// Tracing from outside the program: every span below is recorded by
// this package around a call into a layer's public API, or by a
// decorator this package installs in place of a layer's interface
// value. Nothing inside the simulator is instrumented.
//
// Two record kinds keep a traced round cheap enough to stay close to
// the untraced speed:
//
//   - spans cover coarse calls (a round, a cell, one DoBatch, one
//     RunSharded, one cpu.Model.Run) and keep their own start and end;
//   - aggregates cover per-access boundaries (an L2 call, a
//     Stream.Next, a Controller.Observe): every call is counted
//     exactly, a pseudo-random 1-in-sampleEvery subset is sampled, and
//     the aggregate hangs under the span whose interval contains the
//     calls. Half the samples time the call; the other half time an
//     empty interval at the same point, which measures what the clock
//     reads themselves cost there. A call's estimate is the difference
//     of the two means. The clock costs more in the loop than in a
//     tight calibration loop (about 25ns more per pair on tenants), so
//     a fixed calibration would over-count every sampled layer.
//
// A span's self time is its duration minus the time its children
// cover. Children on one track run one after another, so their times
// add; children on different tracks (the producer and shard workers
// of RunSharded) overlap, so the span is covered by its busiest track.

// sampleEvery is the mean interval between samples of a sampled
// aggregate. A sample costs two monotonic-clock reads (tens of
// nanoseconds), which at 1-in-32 adds about 1ns per call.
const sampleEvery = 32

// maxSampleNs discards a sample that took ten times longer than the
// slowest per-access call measured (about 1µs): an interrupt, a
// deschedule or the collector stopped the thread inside it. Scaled up
// by the sampling ratio, one such sample would charge its layer with
// many times the stall.
const maxSampleNs = 10_000

// clockEpoch anchors nanotime.
var clockEpoch = time.Now()

// nanotime reads the monotonic clock in nanoseconds.
func nanotime() int64 { return int64(time.Since(clockEpoch)) }

// span is one timed interval of a traced round.
type span struct {
	Name   string `json:"name"`
	Cell   int    `json:"cell"`   // index of the cell in the round, -1 for the round itself
	Parent int    `json:"parent"` // index of the parent span, -1 for the root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// aggregate is a child of a span made of many calls at one layer
// boundary: counted exactly, timed on a sample.
type aggregate struct {
	Name    string `json:"name"`
	Cell    int    `json:"cell"`
	Parent  int    `json:"parent"`
	Track   int    `json:"track"` // 0 = the caller's goroutine; RunSharded: 0 producer, 1+s shard s
	Calls   uint64 `json:"calls"`
	Items   uint64 `json:"items"` // records moved, for batch-level boundaries
	Timed   uint64 `json:"timed"`
	TimedNs int64  `json:"timed_ns"`
	Empty   uint64 `json:"empty"` // empty intervals timed in place of a call
	EmptyNs int64  `json:"empty_ns"`
	Dropped uint64 `json:"dropped"` // samples over maxSampleNs, discarded
}

// estNs extrapolates the sampled time to every call: the mean timed
// call less the mean empty interval, times the calls.
func (a aggregate) estNs() float64 {
	if a.Timed == 0 {
		return 0
	}
	per := float64(a.TimedNs) / float64(a.Timed)
	if a.Empty > 0 {
		per -= float64(a.EmptyNs) / float64(a.Empty)
	}
	return max(per, 0) * float64(a.Calls)
}

// tracer holds one traced round's spans in memory. A nil *tracer is
// the untraced mode: every method is a no-op.
type tracer struct {
	epoch int64 // nanotime when the round began
	spans []span
	aggs  []aggregate
	cell  int
}

func newTracer() *tracer {
	return &tracer{epoch: nanotime(), cell: -1}
}

func (t *tracer) now() int64 { return nanotime() - t.epoch }

// begin opens a span under parent and returns its index.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Cell: t.cell, Parent: parent, Start: t.now(), End: -1})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = t.now()
}

// attach records the calls a probe saw since snapshot before as an
// aggregate child of span parent.
func (t *tracer) attach(name string, parent, track int, p *probe, before probe) {
	if t == nil || p.calls == before.calls {
		return
	}
	t.aggs = append(t.aggs, aggregate{
		Name: name, Cell: t.cell, Parent: parent, Track: track,
		Calls:   p.calls - before.calls,
		Items:   p.items - before.items,
		Timed:   p.timed - before.timed,
		TimedNs: p.ns - before.ns,
		Empty:   p.empty - before.empty,
		EmptyNs: p.emptyNs - before.emptyNs,
		Dropped: p.dropped - before.dropped,
	})
}

// probe counts the calls at one boundary and times a sample of them.
// Probes are per instance (one per decorator, one per cell loop), so
// concurrent shard workers never share one.
type probe struct {
	calls, items, timed, empty, dropped uint64
	ns, emptyNs                         int64
	next                                uint32 // calls left until the next sample
	rng                                 uint64
	always                              bool // time every call (batch-level boundaries)
	timeCall                            bool // the next sample times the call, not an empty interval
}

func newSampledProbe(salt uint64) *probe {
	return &probe{next: 1, rng: salt | 1}
}

// newExactProbe times every call. Its calls are long (a batch refill,
// an epoch decision), so the clock's own cost is left in.
func newExactProbe() *probe {
	return &probe{always: true}
}

// start counts one call and reports whether to time it. The sampling
// interval is pseudo-random so periodic access patterns cannot alias
// with it; every other sample times an empty interval instead of the
// call. A nil probe (untraced) times nothing.
func (p *probe) start() (int64, bool) {
	if p == nil {
		return 0, false
	}
	p.calls++
	if !p.always {
		p.next--
		if p.next != 0 {
			return 0, false
		}
		p.rng ^= p.rng << 13
		p.rng ^= p.rng >> 7
		p.rng ^= p.rng << 17
		p.next = uint32(1 + p.rng%(2*sampleEvery-1))
		p.timeCall = !p.timeCall
		if !p.timeCall {
			t0 := nanotime()
			if d := nanotime() - t0; d > maxSampleNs {
				p.dropped++
			} else {
				p.emptyNs += d
				p.empty++
			}
			return 0, false
		}
	}
	return nanotime(), true
}

// stop records a timed call's duration.
func (p *probe) stop(t0 int64) {
	d := nanotime() - t0
	if !p.always && d > maxSampleNs {
		p.dropped++
		return
	}
	p.timed++
	p.ns += d
}

// tracedL2 decorates an L2 organization: demand accesses (data and
// instruction) and L1 writebacks are counted and sampled on separate
// probes. It forwards ShardExact and MergeShard so RunSharded accepts
// and merges the organization exactly as it would the bare one.
type tracedL2 struct {
	inner  hierarchy.L2
	access *probe
	wb     *probe
}

func newTracedL2(inner hierarchy.L2) *tracedL2 {
	return &tracedL2{
		inner:  inner,
		access: newSampledProbe(0x2545f4914f6cdd1d),
		wb:     newSampledProbe(0x9e3779b97f4a7c15),
	}
}

func (t *tracedL2) Access(la mem.LineAddr, word int, pc mem.Addr, write bool) (hierarchy.Class, mem.Footprint) {
	t0, timed := t.access.start()
	c, fp := t.inner.Access(la, word, pc, write)
	if timed {
		t.access.stop(t0)
	}
	return c, fp
}

func (t *tracedL2) AccessInstr(la mem.LineAddr, pc mem.Addr) (hierarchy.Class, mem.Footprint) {
	t0, timed := t.access.start()
	c, fp := t.inner.AccessInstr(la, pc)
	if timed {
		t.access.stop(t0)
	}
	return c, fp
}

func (t *tracedL2) WritebackFromL1(la mem.LineAddr, footprint, dirty mem.Footprint) {
	t0, timed := t.wb.start()
	t.inner.WritebackFromL1(la, footprint, dirty)
	if timed {
		t.wb.stop(t0)
	}
}

func (t *tracedL2) Misses() uint64   { return t.inner.Misses() }
func (t *tracedL2) Accesses() uint64 { return t.inner.Accesses() }

// ShardExact forwards the inner organization's shard-exactness claim.
func (t *tracedL2) ShardExact() bool {
	se, ok := t.inner.(interface{ ShardExact() bool })
	return ok && se.ShardExact()
}

// MergeShard folds a sibling shard's inner organization into this
// one's; the probes stay per shard.
func (t *tracedL2) MergeShard(o hierarchy.L2) {
	if m, ok := t.inner.(interface{ MergeShard(hierarchy.L2) }); ok {
		m.MergeShard(o.(*tracedL2).inner)
	}
}

// tracedStream decorates a scalar access stream with a sampled probe.
type tracedStream struct {
	inner trace.Stream
	next  *probe
}

func (s *tracedStream) Next() (mem.Access, bool) {
	t0, timed := s.next.start()
	a, ok := s.inner.Next()
	if timed {
		s.next.stop(t0)
	}
	if ok {
		s.next.items++
	}
	return a, ok
}

// tracedBatchStream decorates a batch stream; every refill is timed
// and the records it yields are counted.
type tracedBatchStream struct {
	inner trace.BatchStream
	fill  *probe
}

func (s *tracedBatchStream) NextBatch(dst []trace.Record) int {
	t0, _ := s.fill.start()
	n := s.inner.NextBatch(dst)
	s.fill.stop(t0)
	s.fill.items += uint64(n)
	return n
}

var (
	_ hierarchy.L2      = (*tracedL2)(nil)
	_ trace.Stream      = (*tracedStream)(nil)
	_ trace.BatchStream = (*tracedBatchStream)(nil)
)
