package mrc

import (
	"testing"

	"ldis/internal/mem"
)

// TestAccessAllocs pins the //ldis:noalloc contract on the per-access
// hot path: once the line table, stack tree and sample heap have
// reached steady state, Access performs zero heap allocations for both
// the exact and the sampled (fixed-rate + fixed-size) engines — across
// clock compactions too, which the measured window is long enough to
// cross.
func TestAccessAllocs(t *testing.T) {
	const lines = 1024
	const runs = 20000
	cases := []struct {
		name string
		cfg  Config
	}{
		{"exact", Config{}},
		{"fixed-rate", Config{SampleRate: 0.5, Seed: 7}},
		{"fixed-size", Config{SampleRate: 0.5, MaxSamples: 200, Seed: 7}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e, err := New(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			// Warm: sweep the working set until the table, heap and tree
			// stop growing (the tree settles once the live lines fit in a
			// quarter of it).
			x := uint64(1)
			for i := 0; i < 8*lines; i++ {
				e.Access(mem.LineAddr(i%lines), i&7)
			}
			capacity := len(e.fw.tree) - 1
			before := e.ticks
			avg := testing.AllocsPerRun(runs, func() {
				x = splitmix64(x)
				e.Access(mem.LineAddr(x%lines), int(x>>32)&7)
			})
			if avg != 0 {
				t.Errorf("%s: Access allocates %.2f times per call in steady state, want 0", tc.name, avg)
			}
			if tracked := e.ticks - before; tracked <= uint64(capacity) {
				t.Errorf("%s: window tracked %d accesses, need more than the capacity %d to cross a compaction", tc.name, tracked, capacity)
			}
			if got := len(e.fw.tree) - 1; got != capacity {
				t.Errorf("%s: tree grew from %d to %d during the window; warm-up too short", tc.name, capacity, got)
			}
		})
	}
}
