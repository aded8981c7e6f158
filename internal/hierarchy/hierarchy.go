// Package hierarchy wires a sectored L1D to one of the L2
// organizations under study (traditional, distill, compressed, SFP) and
// runs access streams through the stack, collecting the statistics the
// paper's experiments report. Inclusion is not enforced (Table 1).
package hierarchy

import (
	"math"

	"ldis/internal/cache"
	"ldis/internal/compress"
	"ldis/internal/distill"
	"ldis/internal/l1"
	"ldis/internal/mem"
	"ldis/internal/sfp"
	"ldis/internal/stats"
	"ldis/internal/trace"
)

// Class classifies one processor access by where it was served; the
// CPU timing model assigns latencies per class.
type Class uint8

const (
	// L1Hit: served by the L1D.
	L1Hit Class = iota
	// L2Hit: L1D miss served by the L2 (LOC hit for a distill cache).
	L2Hit
	// L2WOCHit: served by the WOC — same as L2Hit plus the two-cycle
	// word-rearrangement latency (Section 7.4).
	L2WOCHit
	// L2Miss: went to memory.
	L2Miss
	// NumClasses is the class count.
	NumClasses
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case L1Hit:
		return "l1-hit"
	case L2Hit:
		return "l2-hit"
	case L2WOCHit:
		return "l2-woc-hit"
	case L2Miss:
		return "l2-miss"
	default:
		return "invalid"
	}
}

// L2 is the second-level cache seen by the hierarchy. Implementations
// perform the complete access (including the fill on a miss) and report
// the service class and the valid-word mask handed to the L1D.
type L2 interface {
	Access(la mem.LineAddr, word int, pc mem.Addr, write bool) (Class, mem.Footprint)
	// AccessInstr serves an instruction fetch (an L1I miss). The
	// distill cache places such lines in the LOC but never distills
	// them (paper Section 4); other organizations treat them normally.
	AccessInstr(la mem.LineAddr, pc mem.Addr) (Class, mem.Footprint)
	WritebackFromL1(la mem.LineAddr, footprint, dirty mem.Footprint)
	// Misses returns the cumulative demand-miss count (for MPKI).
	Misses() uint64
	// Accesses returns the cumulative demand-access count.
	Accesses() uint64
}

// System is an L1D + L2 stack with a run harness.
type System struct {
	L1D *l1.Cache
	L2  L2

	// Instructions counts retired instructions (from Instret fields).
	Instructions uint64 //ldis:shard-owned
	// Classes histograms accesses by service class.
	Classes *stats.Histogram
	// DemandAccesses counts processor-side references.
	DemandAccesses uint64 //ldis:shard-owned
	// CompulsoryMisses counts L2 misses to never-before-touched lines
	// (the Table 2 "Compulsory Misses" column).
	CompulsoryMisses uint64 //ldis:shard-owned

	seen     lineSet
	batchBuf []trace.Record
}

// NewSystem builds a hierarchy with the paper's default L1D.
func NewSystem(l2 L2) *System {
	return &System{
		L1D:     l1.New(l1.DefaultConfig()),
		L2:      l2,
		Classes: stats.NewHistogram("access classes", int(NumClasses)),
		seen:    newLineSet(),
	}
}

// Do performs one processor access end to end and returns its class.
// The compulsory-miss set is consulted only on L2 misses: lines enter
// every L2 organization exclusively through this path, so a line's
// first L2-reaching access always misses and records it — an L2 hit
// therefore implies the line was already seen, and the hit paths skip
// the hash probe entirely.
//
//ldis:noalloc
func (s *System) Do(a mem.Access) Class {
	s.Instructions += uint64(a.Instret)
	s.DemandAccesses++
	la, word, write := a.Line(), a.Word(), a.IsWrite()
	if a.Kind == mem.IFetch {
		// The trace carries the L1I *miss* stream directly, so fetches
		// bypass the (not separately modelled) L1I and hit the L2.
		//ldis:alloc-ok interface dispatch into the L2 organization; every implementation is annotated noalloc
		class, _ := s.L2.AccessInstr(la, a.PC)
		if class == L2Miss && !s.seen.testAndSet(la) {
			s.CompulsoryMisses++
		}
		s.Classes.Add(int(class))
		return class
	}
	out, ev, had := s.L1D.AccessEvict(la, word, write)
	if out == l1.Hit {
		s.Classes.Add(int(L1Hit))
		return L1Hit
	}
	// Line miss or sector miss: the L1D victim's writeback (footprint +
	// dirty words) is issued with the miss request, as from a victim
	// buffer, so the L2 has the usage information before it distills.
	if had {
		//ldis:alloc-ok interface dispatch into the L2 organization; every implementation is annotated noalloc
		s.L2.WritebackFromL1(ev.Line, ev.Footprint, ev.Dirty)
	}
	// Consult the L2 (with the sector id, per Section 4.2 — our word
	// index plays that role).
	//ldis:alloc-ok interface dispatch into the L2 organization; every implementation is annotated noalloc
	class, valid := s.L2.Access(la, word, a.PC, write)
	if class == L2Miss && !s.seen.testAndSet(la) {
		s.CompulsoryMisses++
	}
	if out == l1.LineMiss {
		// The line is absent (AccessEvict just said so, and freed a way if
		// the set was full), so the fill skips the presence scan and
		// never evicts (TestFillNewAfterLineMissNeverEvicts).
		s.L1D.FillNew(la, valid, word, write)
	} else {
		// Sector fill: the line is present, so Fill merges valid bits and
		// never evicts.
		s.L1D.Fill(la, valid, word, write)
	}
	s.Classes.Add(int(class))
	return class
}

// DoBatch drives one record block through the system: the bulk half of
// the batched pipeline. The scalar Do stays as the compatibility entry
// point (the CPU timing model still paces accesses one by one).
//
//ldis:noalloc
func (s *System) DoBatch(recs []trace.Record) {
	for i := range recs {
		s.Do(recs[i])
	}
}

// doBatchShard drives only the records owned by one shard — those
// whose line address satisfies la&mask == shard — through the system.
// Skipped records belong to (and are processed by) sibling shards, so
// summing any counter across all shards reproduces the sequential
// total exactly.
//
//ldis:noalloc
func (s *System) doBatchShard(recs []trace.Record, mask, shard uint64) {
	for i := range recs {
		if uint64(recs[i].Line())&mask != shard {
			continue
		}
		s.Do(recs[i])
	}
}

// Run drives up to n accesses from the stream through the system (all
// of them if n <= 0) and returns how many were performed. The stream
// is consumed through the batched bulk path, so every Run caller —
// including the root facade and the CLIs — gets block-at-a-time record
// filling for free.
func (s *System) Run(st trace.Stream, n int) int {
	return s.RunBatch(trace.Batched(st), n)
}

// RunBatch drives up to n accesses from the batch stream (all until
// exhaustion if n <= 0) and returns how many were performed. It never
// reads past n records, so chunked callers can keep consuming the same
// stream afterwards.
func (s *System) RunBatch(bs trace.BatchStream, n int) int {
	if s.batchBuf == nil {
		s.batchBuf = make([]trace.Record, trace.DefaultBatchSize)
	}
	if n <= 0 {
		n = math.MaxInt
	}
	return trace.Drive(bs, n, s.batchBuf, s.DoBatch)
}

// Window captures a measurement window: counter snapshots taken after
// warmup so MPKI excludes cold-start effects.
type Window struct {
	startInstructions uint64
	startMisses       uint64
	startAccesses     uint64
	sys               *System
}

// StartWindow begins a measurement window.
func (s *System) StartWindow() *Window {
	return &Window{
		startInstructions: s.Instructions,
		startMisses:       s.L2.Misses(),
		startAccesses:     s.L2.Accesses(),
		sys:               s,
	}
}

// Instructions returns instructions retired inside the window.
func (w *Window) Instructions() uint64 { return w.sys.Instructions - w.startInstructions }

// Misses returns L2 misses inside the window.
func (w *Window) Misses() uint64 { return w.sys.L2.Misses() - w.startMisses }

// L2Accesses returns L2 accesses inside the window.
func (w *Window) L2Accesses() uint64 { return w.sys.L2.Accesses() - w.startAccesses }

// MPKI returns the window's misses per kilo-instruction.
func (w *Window) MPKI() float64 { return stats.MPKI(w.Misses(), w.Instructions()) }

// WindowTotals is a window's counter deltas in plain integer form, the
// unit the sharded runner merges: per-shard deltas sum commutatively to
// exactly the sequential deltas, so derived floats (MPKI) come out
// byte-identical.
type WindowTotals struct {
	Instructions uint64
	Misses       uint64
	L2Accesses   uint64
}

// Totals snapshots the window's deltas.
func (w *Window) Totals() WindowTotals {
	return WindowTotals{
		Instructions: w.Instructions(),
		Misses:       w.Misses(),
		L2Accesses:   w.L2Accesses(),
	}
}

// Add folds another shard's deltas in.
//
//ldis:noalloc
func (t *WindowTotals) Add(o WindowTotals) {
	t.Instructions += o.Instructions
	t.Misses += o.Misses
	t.L2Accesses += o.L2Accesses
}

// MPKI returns the merged misses per kilo-instruction.
func (t WindowTotals) MPKI() float64 { return stats.MPKI(t.Misses, t.Instructions) }

// ---------------------------------------------------------------------
// L2 adapters
// ---------------------------------------------------------------------

// TradL2 adapts the traditional set-associative cache.
type TradL2 struct {
	C *cache.Cache
}

// NewTradL2 wraps a traditional cache.
func NewTradL2(c *cache.Cache) *TradL2 { return &TradL2{C: c} }

// Access implements L2. The fused lookup+install walks the set once on
// the miss path; the cache counts the victim's writeback internally.
//
//ldis:noalloc
func (t *TradL2) Access(la mem.LineAddr, word int, _ mem.Addr, write bool) (Class, mem.Footprint) {
	if t.C.AccessInstallTenant(la, word, write, 0) {
		return L2Hit, mem.FullFootprint
	}
	return L2Miss, mem.FullFootprint
}

// AccessInstr implements L2: instruction lines are ordinary lines in a
// traditional cache.
//
//ldis:noalloc
func (t *TradL2) AccessInstr(la mem.LineAddr, pc mem.Addr) (Class, mem.Footprint) {
	return t.Access(la, 0, pc, false)
}

// WritebackFromL1 implements L2: one fused scan merges the footprint
// and dirties the resident copy.
//
//ldis:noalloc
func (t *TradL2) WritebackFromL1(la mem.LineAddr, footprint, dirty mem.Footprint) {
	t.C.MergeWriteback(la, footprint.Or(dirty), dirty)
}

// Misses implements L2.
func (t *TradL2) Misses() uint64 { return t.C.Stats().Misses }

// Accesses implements L2.
func (t *TradL2) Accesses() uint64 { return t.C.Stats().Accesses }

// DistillL2 adapts the distill cache.
type DistillL2 struct {
	C *distill.Cache
}

// NewDistillL2 wraps a distill cache.
func NewDistillL2(c *distill.Cache) *DistillL2 { return &DistillL2{C: c} }

// Access implements L2.
//
//ldis:noalloc
func (d *DistillL2) Access(la mem.LineAddr, word int, _ mem.Addr, write bool) (Class, mem.Footprint) {
	return distillClass(d.C.Access(la, word, write))
}

// AccessInstr implements L2: instruction lines enter the LOC but are
// never distilled.
//
//ldis:noalloc
func (d *DistillL2) AccessInstr(la mem.LineAddr, _ mem.Addr) (Class, mem.Footprint) {
	return distillClass(d.C.AccessInstruction(la, 0, false))
}

// distillClass maps a distill-cache outcome to its service class: hole
// misses and line misses both went to memory.
func distillClass(r distill.AccessResult) (Class, mem.Footprint) {
	switch r.Outcome {
	case distill.LOCHit:
		return L2Hit, r.ValidBits
	case distill.WOCHit:
		return L2WOCHit, r.ValidBits
	default:
		return L2Miss, r.ValidBits
	}
}

// WritebackFromL1 implements L2.
//
//ldis:noalloc
func (d *DistillL2) WritebackFromL1(la mem.LineAddr, footprint, dirty mem.Footprint) {
	d.C.WritebackFromL1(la, footprint, dirty)
}

// Misses implements L2.
func (d *DistillL2) Misses() uint64 { return d.C.Stats().Misses() }

// Accesses implements L2.
func (d *DistillL2) Accesses() uint64 { return d.C.Stats().Accesses }

// CMPRL2 adapts the compressed traditional cache.
type CMPRL2 struct {
	C *compress.CMPR
}

// NewCMPRL2 wraps a compressed cache.
func NewCMPRL2(c *compress.CMPR) *CMPRL2 { return &CMPRL2{C: c} }

// Access implements L2.
//
//ldis:noalloc
func (c *CMPRL2) Access(la mem.LineAddr, word int, _ mem.Addr, write bool) (Class, mem.Footprint) {
	if c.C.Access(la, word, write) {
		return L2Hit, mem.FullFootprint
	}
	return L2Miss, mem.FullFootprint
}

// AccessInstr implements L2.
//
//ldis:noalloc
func (c *CMPRL2) AccessInstr(la mem.LineAddr, pc mem.Addr) (Class, mem.Footprint) {
	return c.Access(la, 0, pc, false)
}

// WritebackFromL1 implements L2. The compressed cache stores whole
// lines, so a dirty writeback just dirties the resident copy in place:
// like TradL2's, it is not a demand access and leaves recency alone.
//
//ldis:noalloc
func (c *CMPRL2) WritebackFromL1(la mem.LineAddr, _, dirty mem.Footprint) {
	if dirty != 0 {
		c.C.MarkDirty(la)
	}
}

// Misses implements L2.
func (c *CMPRL2) Misses() uint64 { return c.C.Stats().Misses }

// Accesses implements L2.
func (c *CMPRL2) Accesses() uint64 { return c.C.Stats().Accesses }

// SFPL2 adapts the spatial-footprint-predictor cache.
type SFPL2 struct {
	C *sfp.Cache
}

// NewSFPL2 wraps an SFP cache.
func NewSFPL2(c *sfp.Cache) *SFPL2 { return &SFPL2{C: c} }

// Access implements L2.
//
//ldis:noalloc
func (s *SFPL2) Access(la mem.LineAddr, word int, pc mem.Addr, write bool) (Class, mem.Footprint) {
	hit, valid := s.C.Access(la, word, pc, write)
	if hit {
		return L2Hit, valid
	}
	return L2Miss, valid
}

// AccessInstr implements L2: instruction fetches are predicted like
// data (the SFP's default full-line prediction makes cold code behave
// traditionally).
//
//ldis:noalloc
func (s *SFPL2) AccessInstr(la mem.LineAddr, pc mem.Addr) (Class, mem.Footprint) {
	return s.Access(la, 0, pc, false)
}

// WritebackFromL1 implements L2.
//
//ldis:noalloc
func (s *SFPL2) WritebackFromL1(la mem.LineAddr, footprint, dirty mem.Footprint) {
	s.C.WritebackFromL1(la, footprint, dirty)
}

// Misses implements L2.
func (s *SFPL2) Misses() uint64 { return s.C.Stats().Misses() }

// Accesses implements L2.
func (s *SFPL2) Accesses() uint64 { return s.C.Stats().Accesses }

// Check that the adapters satisfy the interface.
var (
	_ L2 = (*TradL2)(nil)
	_ L2 = (*DistillL2)(nil)
	_ L2 = (*CMPRL2)(nil)
	_ L2 = (*SFPL2)(nil)
)
