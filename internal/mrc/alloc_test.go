package mrc

import (
	"testing"

	"ldis/internal/mem"
)

// TestAccessAllocs pins the //ldis:noalloc contract on the per-access
// hot path: once the line table, stack tree and sample heap have
// reached steady state, Access performs zero heap allocations for both
// the exact and the sampled (fixed-rate + fixed-size) engines — on a
// random stream and on one of four-access runs per line whose words
// change, which takes the top-of-stack path three times in four — and
// across clock compactions too, which every measured window crosses.
func TestAccessAllocs(t *testing.T) {
	const lines = 1024
	const runs = 80000
	cases := []struct {
		name string
		cfg  Config
	}{
		{"exact", Config{}},
		{"fixed-rate", Config{SampleRate: 0.5, Seed: 7}},
		{"fixed-size", Config{SampleRate: 0.5, MaxSamples: 200, Seed: 7}},
	}
	// Each stream draws a new random line every `every` accesses; the
	// word changes on every access.
	streams := []struct {
		name  string
		every int
	}{
		{"random", 1},
		{"runs", 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, st := range streams {
				e, err := New(tc.cfg)
				if err != nil {
					t.Fatal(err)
				}
				// Warm: sweep the working set until the table, heap and
				// tree stop growing (the tree settles once the live lines
				// fit in a quarter of it).
				for i := 0; i < 8*lines; i++ {
					e.Access(mem.LineAddr(i%lines), i&7)
				}
				capacity := len(e.fw.tree) - 1
				x, i, compactions, now := uint64(1), 0, 0, e.now
				avg := testing.AllocsPerRun(runs, func() {
					if i%st.every == 0 {
						x = splitmix64(x)
					}
					e.Access(mem.LineAddr(x%lines), (int(x>>32)+i)&7)
					i++
					if e.now < now {
						compactions++
					}
					now = e.now
				})
				if avg != 0 {
					t.Errorf("%s stream: Access allocates %.2f times per call in steady state, want 0", st.name, avg)
				}
				if compactions == 0 {
					t.Errorf("%s stream: window of %d accesses crossed no compaction of the %d-position tree", st.name, runs, capacity)
				}
				if got := len(e.fw.tree) - 1; got != capacity {
					t.Errorf("%s stream: tree grew from %d to %d during the window; warm-up too short", st.name, capacity, got)
				}
			}
		})
	}
}
