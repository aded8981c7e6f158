package distill

import (
	"fmt"
	"strings"
	"testing"

	"ldis/internal/mem"
)

// partConfig: one set, 5 ways (4 LOC + 1 WOC), no MT, no reverter.
func partConfig() Config {
	return Config{Name: "part", SizeBytes: 5 * mem.LineSize, Ways: 5, WOCWays: 1, Seed: 3}
}

// Under a partition a tenant at its LOC quota evicts its own LRU-most
// line, not the global LRU line; after a shrink a tenant under its
// quota evicts the LRU-most line of the now over-quota tenant; and
// without a partition the victim is the global LRU line again.
func TestPartitionQuotaVictim(t *testing.T) {
	c := New(partConfig())
	inLOC := func(l mem.LineAddr) bool { return c.Present(l) == "loc" }
	c.SetPartition([]int{3, 1}, []uint64{0, 0})
	a0, a1, a2, a3, a4 := mem.LineAddr(0), mem.LineAddr(1), mem.LineAddr(2), mem.LineAddr(3), mem.LineAddr(4)
	b, b2 := mem.LineAddr(10), mem.LineAddr(11)
	c.AccessTenant(b, 0, false, 1)
	for _, l := range []mem.LineAddr{a0, a1, a2} {
		c.AccessTenant(l, 0, false, 0)
	}
	// LOC full, MRU-first: a2 a1 a0 b. Tenant 0 is at its quota.
	c.AccessTenant(a3, 0, false, 0)
	if inLOC(a0) || !inLOC(b) {
		t.Fatal("tenant at quota should evict its own LRU line a0, not the global LRU b")
	}
	// Shrink tenant 0 to one way: tenant 1, under quota, takes the
	// LRU-most line of over-quota tenant 0 (a1), sparing its own b.
	c.SetPartition([]int{1, 3}, []uint64{0, 0})
	c.AccessTenant(b2, 0, false, 1)
	if inLOC(a1) || !inLOC(b) || !inLOC(a2) || !inLOC(a3) {
		t.Fatal("under-quota tenant should evict the over-quota tenant's LRU line a1")
	}
	// Without a partition the victim is the global LRU line again.
	c.SetPartition(nil, nil)
	c.AccessTenant(a4, 0, false, 0)
	if inLOC(b) {
		t.Error("unpartitioned miss should evict the global LRU line b")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestSetPartitionRefusals: one row per combination SetPartition
// refuses; each panics naming the cache.
func TestSetPartitionRefusals(t *testing.T) {
	masks := func(n int) []uint64 { return make([]uint64, n) }
	for _, tc := range []struct {
		name     string
		edit     func(*Config)
		quota    []int
		wocMasks []uint64
		want     string
	}{
		{"reverter on", func(c *Config) { c.Reverter = true }, []int{2, 2}, masks(2), "reverter"},
		{"WOCLRU on", func(c *Config) { c.WOCLRU = true }, []int{2, 2}, masks(2), "WOCLRU"},
		{"mask count differs from quota count", nil, []int{2, 2}, masks(1), "1 WOC masks for 2 LOC quotas"},
		{"quota sum above the LOC ways", nil, []int{3, 2}, masks(2), "quota sum 5 exceeds 4 ways"},
		{"negative quota", nil, []int{2, -1}, masks(2), "negative quota -1 for tenant 1"},
		{"too many tenants", nil, make([]int, 9), masks(9), "9 tenants exceed 8"},
	} {
		cfg := partConfig()
		if tc.edit != nil {
			tc.edit(&cfg)
		}
		c := New(cfg)
		got := func() (msg string) {
			defer func() { msg = fmt.Sprint(recover()) }()
			c.SetPartition(tc.quota, tc.wocMasks)
			return ""
		}()
		if !strings.HasPrefix(got, `distill "part": `) || !strings.Contains(got, tc.want) {
			t.Errorf("%s: SetPartition panicked %q, want %q", tc.name, got, tc.want)
		}
	}
}
