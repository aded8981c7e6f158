package mrc

import (
	"runtime"
	"testing"

	"ldis/internal/mem"
)

// mallocs counts the heap allocations of n calls of f, the first call
// included: testing.AllocsPerRun leaves its first call unmeasured,
// which would hide an allocation made on an engine's first access.
// The count is process-wide, so it first yields the one remaining P
// to any other runnable goroutine of the test binary, which could
// otherwise allocate inside the window on a loaded machine.
func mallocs(n int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for i := 0; i < 4; i++ {
		runtime.Gosched()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestAccessAllocs pins the //ldis:noalloc contract on the per-access
// hot path: Access performs zero heap allocations for both the exact
// and the sampled (fixed-rate + fixed-size) engines — on a random
// stream and on one of four-access runs per line whose words change,
// which takes the top-of-stack path three times in four — and across
// clock compactions too, which every measured window crosses. Exact
// and fixed-rate engines grow their storage with the live lines, so
// they are measured once it has settled; a fixed-size engine allocates
// all of it in New, so it is measured from its first access.
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
				if tc.cfg.MaxSamples == 0 {
					// Warm: sweep the working set until the table and
					// tree stop growing (the tree settles once the live
					// lines fit in half of it).
					for i := 0; i < 8*lines; i++ {
						e.Access(mem.LineAddr(i%lines), i&7)
					}
				}
				capacity := len(e.fw.tree) - 1
				x, i, compactions, now := uint64(1), 0, 0, e.now
				n := mallocs(runs, func() {
					if i%st.every == 0 {
						x = mem.SplitMix64(x)
					}
					e.Access(mem.LineAddr(x%lines), (int(x>>32)+i)&7)
					i++
					if e.now < now {
						compactions++
					}
					now = e.now
				})
				if n != 0 {
					t.Errorf("%s stream: %d accesses allocated %d times, want 0", st.name, runs, n)
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

// TestFixedSizeEngineNeverReallocates: a fixed-size engine's line
// table, sample heap and stack tree are the arrays New allocated, at
// the sizes New gave them, however many lines pass through the sample
// — here over four times MaxSamples distinct tracked lines, with
// evictions lowering the threshold and reuses ticking the clock
// through several compactions.
func TestFixedSizeEngineNeverReallocates(t *testing.T) {
	const maxSamples = 1000
	e := mustNew(t, Config{SampleRate: 0.5, MaxSamples: maxSamples, Seed: 13})
	slots, heapCap, capacity := len(e.tab.keys), cap(e.heap.refs), len(e.fw.tree)-1
	if slots*3 < (maxSamples+1)*4 || heapCap != maxSamples+1 || capacity != 2*maxSamples {
		t.Fatalf("New sized table %d slots, heap %d, tree %d for %d samples", slots, heapCap, capacity, maxSamples)
	}
	keys, pos, fp, tree := &e.tab.keys[0], &e.tab.pos[0], &e.tab.fp[0], &e.fw.tree[0]
	heap := &e.heap.refs[:heapCap][0]

	tracked, compactions, now := 0, 0, e.now
	x := uint64(5)
	for line := mem.LineAddr(64); tracked < 4*maxSamples; line++ {
		if mem.SplitMix64(uint64(line)^e.cfg.Seed) < e.threshold {
			tracked++
		}
		e.Access(line, 0)
		// Reuse a few recent lines so the clock ticks past first touches.
		for j := 0; j < 3; j++ {
			x = mem.SplitMix64(x)
			e.Access(line-mem.LineAddr(x%64), int(x>>32)&7)
		}
		if e.now < now {
			compactions++
		}
		now = e.now
	}
	if compactions < 3 {
		t.Errorf("stream crossed %d compactions, want at least 3", compactions)
	}
	if e.tab.n != len(e.heap.refs) || e.tab.n > maxSamples {
		t.Errorf("table holds %d lines, heap %d, bound %d", e.tab.n, len(e.heap.refs), maxSamples)
	}
	if &e.tab.keys[0] != keys || &e.tab.pos[0] != pos || &e.tab.fp[0] != fp || len(e.tab.keys) != slots {
		t.Errorf("line table reallocated: %d slots, want the %d New allocated", len(e.tab.keys), slots)
	}
	if &e.heap.refs[:cap(e.heap.refs)][0] != heap || cap(e.heap.refs) != heapCap {
		t.Errorf("sample heap reallocated: capacity %d, want the %d New allocated", cap(e.heap.refs), heapCap)
	}
	if &e.fw.tree[0] != tree || len(e.fw.tree)-1 != capacity {
		t.Errorf("stack tree reallocated: %d positions, want the %d New allocated", len(e.fw.tree)-1, capacity)
	}
}
