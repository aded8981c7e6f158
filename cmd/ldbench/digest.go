package main

import (
	"errors"
	"fmt"
	"math"

	"ldis/internal/cache"
	"ldis/internal/distill"
	"ldis/internal/hierarchy"
	"ldis/internal/stats"
)

// digest is an FNV-1a hash over simulated statistics. A change that
// only makes the simulator faster must leave every digest unchanged.
type digest struct{ sum uint64 }

func newDigest() digest { return digest{sum: 14695981039346656037} }

func (d *digest) u64(vs ...uint64) {
	for _, v := range vs {
		for i := 0; i < 8; i++ {
			d.sum ^= v >> (8 * i) & 0xff
			d.sum *= 1099511628211
		}
	}
}

func (d *digest) f64(vs ...float64) {
	for _, v := range vs {
		d.u64(math.Float64bits(v))
	}
}

func (d *digest) hist(h *stats.Histogram) {
	if h == nil {
		d.u64(0)
		return
	}
	for i := 0; i < h.Len(); i++ {
		d.u64(h.Count(i))
	}
}

func (d *digest) window(w hierarchy.WindowTotals) {
	d.u64(w.Instructions, w.Misses, w.L2Accesses)
}

// digestSystem hashes a system's counters and its L2's statistics,
// checks the conservation identities that tie them together, and adds
// the layer ratios' numerators to sim (the LOC/WOC outcomes only for
// the LDIS-MT-RC organization, whose cost they explain).
func digestSystem(d *digest, sys *hierarchy.System, org string, sim *simCounts) error {
	d.u64(sys.Instructions, sys.DemandAccesses, sys.CompulsoryMisses)
	d.hist(sys.Classes)
	if got := sys.Classes.Total(); got != sys.DemandAccesses {
		return fmt.Errorf("class histogram holds %d accesses, system counted %d", got, sys.DemandAccesses)
	}
	l1 := sys.L1D.Stats()
	d.u64(l1.Accesses, l1.Hits, l1.SectorMisses, l1.LineMisses, l1.Evictions, l1.Writebacks)
	if l1.Hits+l1.SectorMisses+l1.LineMisses != l1.Accesses {
		return fmt.Errorf("L1D outcomes %d+%d+%d do not sum to %d accesses",
			l1.Hits, l1.SectorMisses, l1.LineMisses, l1.Accesses)
	}
	sim.l1Accesses += l1.Accesses
	sim.l1Hits += l1.Hits
	switch l2 := unwrapL2(sys.L2).(type) {
	case *hierarchy.TradL2:
		return digestCache(d, l2.C.Stats())
	case *hierarchy.DistillL2:
		if org != orgLDIS {
			sim = nil
		}
		return digestDistill(d, l2.C, sim)
	}
	return fmt.Errorf("unexpected L2 organization %T", sys.L2)
}

// unwrapL2 strips the tracing decorator.
func unwrapL2(l2 hierarchy.L2) hierarchy.L2 {
	if t, ok := l2.(*tracedL2); ok {
		return t.inner
	}
	return l2
}

// checkL2 runs a distill organization's structural invariants.
func checkL2(l2 hierarchy.L2) error {
	if dl, ok := unwrapL2(l2).(*hierarchy.DistillL2); ok {
		return dl.C.CheckInvariants()
	}
	return nil
}

func digestCache(d *digest, s *cache.Stats) error {
	d.u64(s.Accesses, s.Hits, s.Misses, s.Evictions, s.Writebacks)
	d.hist(s.WordsUsedAtEvict)
	d.hist(s.FPChangePos)
	if s.Hits+s.Misses != s.Accesses {
		return fmt.Errorf("cache hits %d + misses %d != accesses %d", s.Hits, s.Misses, s.Accesses)
	}
	return nil
}

// digestDistill hashes a distill cache's statistics after checking its
// invariants; sim, when non-nil, collects the LOC/WOC outcome counts.
func digestDistill(d *digest, c *distill.Cache, sim *simCounts) error {
	if err := c.CheckInvariants(); err != nil {
		return fmt.Errorf("distill invariants: %w", err)
	}
	s := c.Stats()
	d.u64(s.Accesses, s.LOCHits, s.WOCHits, s.HoleMisses, s.LineMisses, s.Writebacks,
		s.Distilled, s.ThresholdSkips, s.TradEvictions, s.InstrEvictions, s.WOCEvictions, s.ModeSwitches)
	d.hist(s.WordsUsedAtEvict)
	d.hist(s.FPChangePos)
	if s.LOCHits+s.WOCHits+s.HoleMisses+s.LineMisses != s.Accesses {
		return errors.New("distill outcomes do not sum to accesses")
	}
	if sim != nil {
		sim.ldisAccesses += s.Accesses
		sim.locHits += s.LOCHits
		sim.wocHits += s.WOCHits
		sim.holeMiss += s.HoleMisses
	}
	return nil
}
