package distill

import (
	"testing"

	"ldis/internal/mem"
)

// TestAccessPathZeroAllocs pins the distill cache's steady-state access
// path — LOC/WOC lookups, LOC installs, distillation into the WOC, WOC
// evictions — at zero allocations per access. Before the wordstore's
// two-pass candidate selection and reusable eviction buffer, every
// distillation allocated candidate and eviction slices, dominating the
// simulator's profile.
func TestAccessPathZeroAllocs(t *testing.T) {
	const sets, ways = 64, 8
	c := New(Config{
		Name: "d", SizeBytes: sets * ways * mem.LineSize, Ways: ways,
		WOCWays: 2, Seed: 1, MedianThreshold: true,
	})
	// Warm up so the WOC churns (installs displace resident lines).
	rng := uint64(12345)
	next := func() mem.LineAddr {
		rng = rng*6364136223846793005 + 1442695040888963407
		return mem.LineAddr(rng % (sets * 40))
	}
	for i := 0; i < 50_000; i++ {
		c.Access(next(), int(rng%8), rng%4 == 0)
	}
	if n := testing.AllocsPerRun(5000, func() {
		c.Access(next(), int(rng%8), rng%4 == 0)
	}); n != 0 {
		t.Errorf("distill access path allocates %.1f/op", n)
	}
}

// TestNewAllocsIndependentOfSets pins distill.New at a handful of
// allocations whatever the set count: per-set state lives in shared
// arrays (the LOC arena, the set headers and the WOC store), not in
// per-set slices.
func TestNewAllocsIndependentOfSets(t *testing.T) {
	allocs := func(sets int) float64 {
		cfg := Config{Name: "d", SizeBytes: sets * 8 * mem.LineSize, Ways: 8, WOCWays: 2, Seed: 1, MedianThreshold: true}
		return testing.AllocsPerRun(10, func() { New(cfg) })
	}
	small, large := allocs(64), allocs(2048)
	if small != large || large > 16 {
		t.Errorf("distill.New allocates %.0f times at 64 sets and %.0f at 2048, want the same handful (<= 16)", small, large)
	}
}
