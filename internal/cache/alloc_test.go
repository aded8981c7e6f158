package cache

import (
	"testing"

	"ldis/internal/mem"
)

// The simulation hot path — AccessInstallTenant hits, and the misses
// that refill the set — must not allocate, partitioned or not: the
// experiment engine drives hundreds of millions of accesses per run,
// and per-access garbage dominated the profile before histograms were
// made eager and the set geometry was precomputed.

// allocCaches returns an unpartitioned cache and a two-tenant
// partitioned one of the same geometry.
func allocCaches() map[string]*Cache {
	plain := New(Config{Name: "t", SizeBytes: 64 * 8 * mem.LineSize, Ways: 8})
	part := New(Config{Name: "p", SizeBytes: 64 * 8 * mem.LineSize, Ways: 8})
	part.SetPartition([]int{5, 3})
	return map[string]*Cache{"unpartitioned": plain, "partitioned": part}
}

func TestAccessHitPathZeroAllocs(t *testing.T) {
	for name, c := range allocCaches() {
		line := mem.LineAddr(5)
		c.AccessInstallTenant(line, 0, false, 1)
		if n := testing.AllocsPerRun(1000, func() {
			if !c.AccessInstallTenant(line, 1, true, 1) {
				t.Fatal("expected hit")
			}
		}); n != 0 {
			t.Errorf("%s: hit path allocates %.1f/op", name, n)
		}
	}
}

func TestMissInstallPathZeroAllocs(t *testing.T) {
	for name, c := range allocCaches() {
		i := uint64(0)
		if n := testing.AllocsPerRun(1000, func() {
			l := mem.LineAddr(i*64 + 3) // march through tags of one set
			if c.AccessInstallTenant(l, 0, false, int(i%2)) {
				t.Fatal("expected miss")
			}
			i++
		}); n != 0 {
			t.Errorf("%s: miss path allocates %.1f/op", name, n)
		}
	}
}

// TestNewAllocsIndependentOfSets pins New at a fixed number of
// allocations whatever the set count: every set's ways live in one
// line array.
func TestNewAllocsIndependentOfSets(t *testing.T) {
	allocs := func(sets int) float64 {
		return testing.AllocsPerRun(10, func() {
			New(Config{Name: "n", SizeBytes: sets * 8 * mem.LineSize, Ways: 8})
		})
	}
	if few, many := allocs(4), allocs(2048); few != many {
		t.Errorf("New allocates %.0f times at 4 sets, %.0f at 2048", few, many)
	}
}
