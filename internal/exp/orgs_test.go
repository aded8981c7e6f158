package exp

import (
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"ldis/internal/costmodel"
)

// orgsGateOpts pins the acceptance-gate operating point. The gates
// below assert strict inequalities on deterministic simulations, so
// the access count is part of the contract: change it and the
// expected miss deltas move with it.
func orgsGateOpts() Options {
	return Options{Accesses: 500_000, WarmupFrac: 0.25}
}

// orgsGateRows runs the full orgs sweep once at the gate operating
// point and shares the rows across the three gate tests.
var orgsGateRows = sync.OnceValues(func() ([]OrgsRow, error) {
	return Orgs(orgsGateOpts())
})

func gateRows(t *testing.T) []OrgsRow {
	t.Helper()
	rows, err := orgsGateRows()
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// orgCellByName avoids positional indexing in the gates.
func orgCellByName(t *testing.T, r OrgsRow, org string) orgCell {
	t.Helper()
	for i, name := range orgColumns {
		if name == org {
			return r.Cells[i]
		}
	}
	t.Fatalf("%s: no %q column", r.Benchmark, org)
	return orgCell{}
}

// TestOrgsToucheTagAreaGate is the first acceptance gate: Touché's
// compressed superblock tags must cost strictly less area than LDIS's
// per-word tags while holding the miss ratio within tolerance, and
// alias handling must stay safe — a signature collision may only add
// misses, never invent hits.
func TestOrgsToucheTagAreaGate(t *testing.T) {
	o := orgsGateOpts()
	ta, err := costmodel.ToucheTagArea(costmodel.Defaults(), o.orgToucheParams())
	if err != nil {
		t.Fatal(err)
	}
	ldisArea, err := costmodel.DistillStorage(costmodel.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	if ta.TagBytes >= ldisArea.WOCTagBytes {
		t.Errorf("Touché tag area %d B not below LDIS per-word %d B", ta.TagBytes, ldisArea.WOCTagBytes)
	}
	if ta.SavingsPercent <= 0 {
		t.Errorf("Touché reports no tag-area savings: %+v", ta)
	}

	// Equal miss ratio ± tolerance: the compressed tags trade area for
	// occasional superblock evictions, so allow a small regression but
	// no more.
	const tol = 1.015
	for _, r := range gateRows(t) {
		ld := orgCellByName(t, r, "ldis")
		tc := orgCellByName(t, r, "touche")
		if tc.Touche.Lookups == 0 {
			t.Errorf("%s: Touché tags never consulted", r.Benchmark)
		}
		if lm, tm := ld.Totals.MPKI(), tc.Totals.MPKI(); tm > lm*tol {
			t.Errorf("%s: touche MPKI %.3f exceeds ldis %.3f by more than %.1f%%",
				r.Benchmark, tm, lm, 100*(tol-1))
		}
		// Alias safety: every alias event must be a safe miss; hits
		// cannot exceed lookups.
		if tc.Touche.Hits > tc.Touche.Lookups {
			t.Errorf("%s: Touché hits %d exceed lookups %d", r.Benchmark, tc.Touche.Hits, tc.Touche.Lookups)
		}
	}
}

// TestOrgsCopyBackReducesMisses is the second acceptance gate: on the
// reuse-heavy bundled benchmarks, reuse-distance-gated copy-back of
// clean L1 victims must strictly reduce L2 misses versus the plain
// distill cache, and must never blow past a small regression bound on
// any other benchmark. The deltas are deterministic at the pinned
// operating point.
func TestOrgsCopyBackReducesMisses(t *testing.T) {
	reuseHeavy := map[string]bool{"mcf": true, "twolf": true, "art": true}
	seen := 0
	for _, r := range gateRows(t) {
		ld := orgCellByName(t, r, "ldis")
		cb := orgCellByName(t, r, "copyback")
		t.Logf("%s: ldis %d, copyback %d misses (%d copybacks, %d far, %d cold)",
			r.Benchmark, ld.Totals.Misses, cb.Totals.Misses, cb.CopyBacks, cb.CopyBackFar, cb.CopyBackCold)
		if reuseHeavy[r.Benchmark] {
			seen++
			if cb.CopyBacks == 0 {
				t.Errorf("%s: no copy-backs admitted on a reuse-heavy benchmark", r.Benchmark)
			}
			if cb.Totals.Misses >= ld.Totals.Misses {
				t.Errorf("%s: copy-back did not reduce misses: %d >= %d",
					r.Benchmark, cb.Totals.Misses, ld.Totals.Misses)
			}
		} else if ld.Totals.Misses > 0 {
			// Elsewhere the predictor may not help, but it must stay
			// within a 1% miss regression.
			if float64(cb.Totals.Misses) > 1.01*float64(ld.Totals.Misses) {
				t.Errorf("%s: copy-back regressed misses beyond 1%%: %d vs %d",
					r.Benchmark, cb.Totals.Misses, ld.Totals.Misses)
			}
		}
	}
	if seen != len(reuseHeavy) {
		t.Errorf("only %d of %d reuse-heavy benchmarks present in the sweep", seen, len(reuseHeavy))
	}
}

// TestOrgsWayMemoEnergyGate is the third acceptance gate: way
// memoization must be functionally transparent (identical window
// totals to the base column on every benchmark) and its tag-probe
// energy must never exceed the memo-less baseline.
func TestOrgsWayMemoEnergyGate(t *testing.T) {
	for _, r := range gateRows(t) {
		base := orgCellByName(t, r, "base")
		wm := orgCellByName(t, r, "waymemo")
		if base.Totals != wm.Totals {
			t.Errorf("%s: way memo changed results: base %+v memo %+v", r.Benchmark, base.Totals, wm.Totals)
		}
		if wm.MemoRefs == 0 {
			t.Errorf("%s: memo never referenced", r.Benchmark)
		}
		e, err := costmodel.WayMemoEnergyFor(orgWays, wm.MemoRefs, wm.MemoHits)
		if err != nil {
			t.Fatalf("%s: %v", r.Benchmark, err)
		}
		if e.MemoNJ > e.BaselineNJ {
			t.Errorf("%s: memo tag energy %.1f nJ exceeds baseline %.1f nJ", r.Benchmark, e.MemoNJ, e.BaselineNJ)
		}
		t.Logf("%s: %d/%d memo hits, %.1f%% tag energy saved", r.Benchmark, wm.MemoHits, wm.MemoRefs, e.SavedPercent)
	}
}

// renderOrgs renders every orgs table into one string, the
// byte-identity unit of the determinism tests.
func renderOrgs(rows []OrgsRow, o Options) string {
	var b strings.Builder
	for _, t := range OrgsTables(rows, o) {
		b.WriteString(t.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// TestOrgsDeterminism: the rendered tables are byte-identical across
// worker counts, batch sizes, and shard counts (the traditional
// columns shard; the distill columns fall back to sequential, which
// distill.Config.ShardExact declares).
func TestOrgsDeterminism(t *testing.T) {
	base := Options{Accesses: 60_000, WarmupFrac: 0.25, Benchmarks: []string{"mcf", "twolf"}}
	rows, err := Orgs(base)
	if err != nil {
		t.Fatal(err)
	}
	want := renderOrgs(rows, base)

	variants := []Options{
		{Accesses: base.Accesses, WarmupFrac: base.WarmupFrac, Benchmarks: base.Benchmarks, Parallel: 4},
		{Accesses: base.Accesses, WarmupFrac: base.WarmupFrac, Benchmarks: base.Benchmarks, Parallel: 2, BatchSize: 512},
		{Accesses: base.Accesses, WarmupFrac: base.WarmupFrac, Benchmarks: base.Benchmarks, Shards: 4},
		{Accesses: base.Accesses, WarmupFrac: base.WarmupFrac, Benchmarks: base.Benchmarks, Parallel: 2, Shards: 2, BatchSize: 256},
	}
	for i, o := range variants {
		rows, err := Orgs(o)
		if err != nil {
			t.Fatal(err)
		}
		if got := renderOrgs(rows, o); got != want {
			t.Errorf("variant %d (parallel=%d shards=%d batch=%d) diverged from sequential output",
				i, o.Parallel, o.Shards, o.BatchSize)
		}
	}
}

// TestOrgsCheckpointResume: a resumed orgs run replays every cell from
// the checkpoint and renders byte-identical tables.
func TestOrgsCheckpointResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "orgs.ck")
	o := Options{Accesses: 60_000, WarmupFrac: 0.25, Benchmarks: []string{"mcf"}}

	ck, err := OpenCheckpoint(path, o)
	if err != nil {
		t.Fatal(err)
	}
	o.Checkpoint = ck
	rows, err := Orgs(o)
	if err != nil {
		t.Fatal(err)
	}
	want := renderOrgs(rows, o)
	if err := ck.Close(); err != nil {
		t.Fatal(err)
	}

	o.Checkpoint = nil
	ck2, err := OpenCheckpoint(path, o)
	if err != nil {
		t.Fatal(err)
	}
	defer ck2.Close()
	o.Checkpoint = ck2
	rows2, err := Orgs(o)
	if err != nil {
		t.Fatal(err)
	}
	if got := renderOrgs(rows2, o); got != want {
		t.Error("resumed run diverged from the original")
	}
	if ck2.Replayed() != len(orgColumns) {
		t.Errorf("resumed run replayed %d cells, want all %d", ck2.Replayed(), len(orgColumns))
	}
}
