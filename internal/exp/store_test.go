package exp

import (
	"fmt"
	"maps"
	"runtime"
	"slices"
	"strings"
	"testing"

	"ldis/internal/hierarchy"
	"ldis/internal/obs"
	"ldis/internal/workload"
)

// storeOptions are the small options the cell-store tests share: three
// benchmarks, one partition scenario, observability on.
func storeOptions() Options {
	o := Options{Accesses: 20_000, WarmupFrac: 0.25,
		Benchmarks: []string{"mcf", "art", "health"}, Parallel: 2, Obs: obs.NewRun(nil)}
	o.Partition.Tenants = []string{"twolf", "mcf"}
	o.Partition.Epoch = 5_000
	return o
}

// simulated returns the manifest cells of run that carry a simulate
// span, by (row, key), and how many of run's cells were replayed.
func simulated(t *testing.T, run *obs.Run) (sims map[string]int, replayed int) {
	t.Helper()
	sims = map[string]int{}
	for _, c := range run.CellReports() {
		if c.Key == "" {
			t.Errorf("cell %s/%s/%d has no config key", c.Experiment, c.Benchmark, c.Col)
		}
		if c.Status == obs.StatusReplayed {
			replayed++
			if len(c.Spans) > 0 || len(c.Metrics) > 0 {
				t.Errorf("replayed cell %s/%s/%d recorded spans or metrics", c.Experiment, c.Benchmark, c.Col)
			}
		}
		for _, s := range c.Spans {
			if s.Stage == obs.StageSimulate.String() {
				sims[c.Benchmark+"/"+c.Key]++
			}
		}
	}
	return sims, replayed
}

// TestEachCellSimulatedOnce: one Options value runs every experiment,
// and each (row, key) cell is simulated exactly once across the whole
// sweep, while every experiment still renders exactly what a run of it
// alone renders.
func TestEachCellSimulatedOnce(t *testing.T) {
	o := storeOptions()
	if err := o.Validate(); err != nil {
		t.Fatal(err)
	}
	shared := map[string]string{}
	for _, id := range IDs() {
		shared[id] = renderAll(t, id, o)
	}

	sims, replayed := simulated(t, o.Obs)
	distinct := map[string]bool{}
	perRow := map[string]bool{}
	for _, c := range o.Obs.CellReports() {
		distinct[c.Benchmark+"/"+c.Key] = true
		// No experiment lists a key twice in one row.
		rowKey := c.Experiment + "/" + c.Benchmark + "/" + c.Key
		if perRow[rowKey] {
			t.Errorf("%s lists key %s twice in row %s", c.Experiment, c.Key, c.Benchmark)
		}
		perRow[rowKey] = true
	}
	if len(sims) != len(distinct) {
		t.Errorf("%d cells simulated, want one per distinct (row, key): %d", len(sims), len(distinct))
	}
	for _, cell := range slices.Sorted(maps.Keys(sims)) {
		if n := sims[cell]; n != 1 {
			t.Errorf("cell %s simulated %d times", cell, n)
		}
	}
	if replayed == 0 {
		t.Error("no cell was shared between experiments")
	}

	for _, id := range IDs() {
		fresh := o
		fresh.Checkpoint, fresh.Obs = nil, nil
		if got := renderAll(t, id, fresh); got != shared[id] {
			t.Errorf("%s: shared-store run differs from a run of it alone:\n%s\nvs\n%s", id, shared[id], got)
		}
	}
}

// TestStoreBoundToFingerprint: a Run whose result options differ from
// the ones the store was made for re-simulates instead of reading a
// stale cell, while the unchanged options keep reading the store.
func TestStoreBoundToFingerprint(t *testing.T) {
	o := storeOptions()
	if err := o.Validate(); err != nil {
		t.Fatal(err)
	}
	renderAll(t, "orgs", o)

	for _, tc := range []struct {
		name   string
		mutate func(*Options)
	}{
		{"accesses", func(m *Options) { m.Accesses = 24_000 }},
		{"org_touche_sb_lines", func(m *Options) { m.Orgs.ToucheSBLines = 8 }},
	} {
		name := tc.name
		m := o
		tc.mutate(&m)
		m.Obs = obs.NewRun(nil)
		got := renderAll(t, "orgs", m)
		if sims, replayed := simulated(t, m.Obs); replayed != 0 || len(sims) != 3*len(orgKeys) {
			t.Errorf("%s changed: %d cells simulated, %d replayed; want all %d re-simulated",
				name, len(sims), replayed, 3*len(orgKeys))
		}
		fresh := m
		fresh.Checkpoint, fresh.Obs = nil, nil
		if want := renderAll(t, "orgs", fresh); got != want {
			t.Errorf("%s changed: output differs from a fresh run", name)
		}
	}

	again := o
	again.Obs = obs.NewRun(nil)
	renderAll(t, "orgs", again)
	if sims, replayed := simulated(t, again.Obs); len(sims) != 0 || replayed != 3*len(orgKeys) {
		t.Errorf("unchanged options: %d cells simulated, %d replayed; want every cell replayed", len(sims), replayed)
	}
}

// TestGridRejectsDuplicateKeys: two columns of one row reading the same
// key would race to simulate one cell, so the grid refuses them.
func TestGridRejectsDuplicateKeys(t *testing.T) {
	o := Options{Accesses: 1000, Benchmarks: []string{"mcf"}, expID: "dup"}
	for _, tc := range []struct {
		keys []string
		dup  string
	}{
		{[]string{"a", "b", "c"}, ""},
		{[]string{"a", "a"}, "a"},
		{[]string{"a", "b", "c", "b"}, "b"},
	} {
		_, _, err := runGrid(o, tc.keys, func(_ *workload.Profile, key string, _ *obs.Cell) (string, error) {
			return key, nil
		})
		switch {
		case tc.dup == "" && err != nil:
			t.Errorf("keys %v: %v", tc.keys, err)
		case tc.dup != "" && (err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%q twice", tc.dup))):
			t.Errorf("keys %v: err = %v, want duplicate %q", tc.keys, err, tc.dup)
		}
	}
}

// TestConfigTable: every named configuration builds, exactly the
// traditional ones are marked for sharding (and are shard-exact), and
// every Table 6 size names a configuration.
func TestConfigTable(t *testing.T) {
	prof, err := workload.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	o := DefaultOptions()
	if err := o.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, key := range slices.Sorted(maps.Keys(configs)) {
		cfg := configs[key]
		sys := cfg.build(prof, o, nil)
		_, isTrad := sys.L2.(*hierarchy.TradL2)
		if cfg.shard != isTrad {
			t.Errorf("%s: shard = %v, traditional = %v", key, cfg.shard, isTrad)
		}
		if cfg.shard && !hierarchy.Shardable(sys) {
			t.Errorf("%s: marked for sharding but not shard-exact", key)
		}
	}
	for _, sz := range Table6Sizes {
		if _, err := config(tradKey(sz)); err != nil {
			t.Errorf("Table 6 size %v: %v", sz, err)
		}
	}
	// The leader ablation's 32-leader column reads plain ldis-mt-rc-2.
	if n := ldisMTRC(2, 1).SamplerConfig.LeaderSets; n != 32 {
		t.Errorf("default leader sets = %d, want 32", n)
	}
}

// TestBuildAllocBound bounds the bytes building each of the sweep's
// three organizations allocates (runtime.MemStats.TotalAlloc around
// Build, the least of three builds). With 8-byte line records they
// read about 145 KB, 422 KB and 554 KB. Each bound leaves less than
// the 64 KB that re-padding one record to 12 bytes adds (4 bytes for
// each of 2048 sets x 8 traditional or LOC ways, and more for the WOC's
// 16 or 24 word entries a set), so such a field fails here, not only
// in the benchmark.
func TestBuildAllocBound(t *testing.T) {
	for _, tc := range []struct {
		key   string
		bound uint64
	}{
		{"base-1MB", 180 << 10},
		{"ldis-mt-rc-2", 460 << 10},
		{"fac-3", 600 << 10},
	} {
		least := ^uint64(0)
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := Build(tc.key, "mcf", nil); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		if least > tc.bound {
			t.Errorf("building %s allocates %d bytes, bound %d", tc.key, least, tc.bound)
		}
	}
}
