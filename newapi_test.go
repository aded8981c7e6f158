package ldis_test

import (
	"testing"

	"ldis"
	"ldis/internal/hierarchy"
)

// TestMatrixAllBenchmarksAllOrganizations is the breadth smoke test:
// every registered benchmark runs on every cache organization key,
// without panicking, with sane accounting (hits+misses
// == L2 accesses, MPKI finite) and, for distill caches, intact
// structural invariants.
func TestMatrixAllBenchmarksAllOrganizations(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full matrix")
	}
	const n = 25_000
	for _, bench := range ldis.Benchmarks() {
		for _, kind := range ldis.Keys() {
			sim, err := ldis.New(kind, bench, nil)
			if err != nil {
				t.Fatalf("%s/%s: %v", bench, kind, err)
			}
			res, err := sim.RunWorkload(bench, n)
			if err != nil {
				t.Fatalf("%s/%s: %v", bench, kind, err)
			}
			if res.Accesses != n {
				t.Errorf("%s/%s: ran %d accesses", bench, kind, res.Accesses)
			}
			if res.Instructions == 0 {
				t.Errorf("%s/%s: no instructions retired", bench, kind)
			}
			if res.MPKI < 0 || res.MPKI > 1000 {
				t.Errorf("%s/%s: implausible MPKI %v", bench, kind, res.MPKI)
			}
			if res.L2Misses > res.L2Accesses {
				t.Errorf("%s/%s: misses %d exceed accesses %d", bench, kind, res.L2Misses, res.L2Accesses)
			}
			if ds := sim.DistillStats(); ds != nil {
				if ds.Hits()+ds.Misses() != ds.Accesses {
					t.Errorf("%s/%s: distill accounting broken: %+v", bench, kind, ds)
				}
				if err := sim.System().L2.(*hierarchy.DistillL2).C.CheckInvariants(); err != nil {
					t.Errorf("%s/%s: %v", bench, kind, err)
				}
			}
		}
	}
}

// TestObserverRecordsMetrics: a distill run with an observer must
// populate the instrumented counters, and the same run without one
// must behave identically (the zero-overhead contract, result half).
func TestObserverRecordsMetrics(t *testing.T) {
	reg := ldis.NewObserver()
	obsSim, err := ldis.New("ldis-mt-rc-2", "mcf", reg)
	if err != nil {
		t.Fatal(err)
	}
	plainSim, err := ldis.New("ldis-mt-rc-2", "mcf", nil)
	if err != nil {
		t.Fatal(err)
	}
	obsRes, err := obsSim.RunWorkload("mcf", 50_000)
	if err != nil {
		t.Fatal(err)
	}
	plainRes, err := plainSim.RunWorkload("mcf", 50_000)
	if err != nil {
		t.Fatal(err)
	}
	if obsRes != plainRes {
		t.Errorf("observer changed results:\n with %+v\n without %+v", obsRes, plainRes)
	}
	snap := reg.Snapshot()
	byName := map[string]uint64{}
	for _, m := range snap {
		byName[m.Name] = m.Count
	}
	if byName["distill_lines_distilled"] == 0 {
		t.Errorf("distill_lines_distilled not recorded; snapshot %+v", snap)
	}
	if byName["cache_evictions"] == 0 && byName["distill_woc_evictions"] == 0 {
		t.Errorf("no eviction counters recorded; snapshot %+v", snap)
	}
}

// TestModifierSimsRunAndCount: each related-work variant must leave its
// fingerprints in the counters an Observer collects — Touché lookups
// happen, copy-backs occur on a reuse-heavy benchmark, the way memo
// hits — while keeping results well-formed.
func TestModifierSimsRunAndCount(t *testing.T) {
	run := func(key string) (*ldis.Sim, map[string]uint64) {
		t.Helper()
		reg := ldis.NewObserver()
		sim, err := ldis.New(key, "mcf", reg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sim.RunWorkload("mcf", 200_000); err != nil {
			t.Fatal(err)
		}
		counts := map[string]uint64{}
		for _, m := range reg.Snapshot() {
			counts[m.Name] = m.Count
		}
		return sim, counts
	}

	sim, _ := run("copyback")
	ds := sim.DistillStats()
	if ds == nil {
		t.Fatal("no distill stats from the copyback sim")
	}
	if ds.CopyBacks+ds.CopyBackFar+ds.CopyBackCold == 0 {
		t.Error("copy-back predictor never consulted on mcf")
	}

	sim, _ = run("touche")
	if ds := sim.DistillStats(); ds == nil || ds.Touche.Lookups == 0 {
		t.Error("Touché tags never consulted on mcf")
	}

	sim, counts := run("waymemo")
	if sim.DistillStats() != nil {
		t.Error("waymemo sim reports distill stats")
	}
	if counts["cache_waymemo_hits"] == 0 {
		t.Error("way memo never hit on mcf")
	}
}
