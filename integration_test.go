package ldis

import (
	"math"
	"testing"

	"ldis/internal/exp"
	"ldis/internal/workload"
)

// These integration tests assert the cross-cutting properties the paper
// claims, on reduced access budgets. They intentionally use loose
// tolerances: the goal is to catch regressions that break result
// *shapes*, not to pin exact numbers.

// TestRobustnessLDISNeverMuchWorse reproduces the paper's key robustness
// claim: LDIS-MT-RC "never increases misses by more than 2%". With our
// short traces we allow 6% to absorb reverter convergence transients.
func TestRobustnessLDISNeverMuchWorse(t *testing.T) {
	if testing.Short() {
		t.Skip("long integration test")
	}
	// Measured through the experiment harness (warmup window plus the
	// short-trace reverter band documented in internal/exp).
	o := exp.Options{Accesses: 1_200_000, WarmupFrac: 0.5,
		Benchmarks: []string{"swim", "bzip2", "parser", "galgel", "wupwise"}}
	rows, err := exp.Fig6(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.RC < -6 {
			t.Errorf("%s: LDIS-MT-RC increases MPKI by %.1f%% (baseline %.2f)",
				r.Benchmark, -r.RC, r.BaselineMPKI)
		}
	}
}

// TestHeadlineWinners checks the paper's Figure 6 winner set: art,
// twolf, ammp, sixtrack, and health all gain at least 20% under
// LDIS-MT-RC, measured with a warmup window as the experiments do.
func TestHeadlineWinners(t *testing.T) {
	if testing.Short() {
		t.Skip("long integration test")
	}
	o := exp.Options{Accesses: 1_600_000, WarmupFrac: 0.5,
		Benchmarks: []string{"art", "twolf", "ammp", "sixtrack", "health"}}
	rows, err := exp.Fig6(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.RC < 20 {
			t.Errorf("%s: MPKI reduction %.1f%%, want >= 20%% (baseline %.2f MPKI)",
				r.Benchmark, r.RC, r.BaselineMPKI)
		}
	}
}

// TestDeterminism: identical runs produce identical counters.
func TestDeterminism(t *testing.T) {
	run := func() Result {
		res, err := mustNewSim("ldis-mt-rc-2", "twolf").RunWorkload("twolf", 120_000)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("non-deterministic results:\n%+v\n%+v", a, b)
	}
}

// TestWorkloadCalibration guards the per-benchmark words-used
// calibration against the paper's Table 6 values at 1MB.
func TestWorkloadCalibration(t *testing.T) {
	if testing.Short() {
		t.Skip("long integration test")
	}
	// galgel's working set barely exceeds 1MB, so evictions (the
	// words-used sample) need longer traces; apsi needs longer still
	// and is covered by the full-scale ldisexp runs instead.
	o := exp.Options{Accesses: 1_500_000, WarmupFrac: 0.25,
		Benchmarks: []string{"art", "mcf", "galgel", "health"}}
	rows, err := exp.Fig1(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		prof, _ := workload.ByName(r.Benchmark)
		want := prof.PaperWordsUsed
		if want == 0 {
			continue
		}
		if math.Abs(r.Mean-want)/want > 0.35 {
			t.Errorf("%s: words used %.2f, paper %.2f (>35%% off)", r.Benchmark, r.Mean, want)
		}
	}
}

// TestMPKIOrderingMatchesPaper: the extreme benchmarks keep their
// relative order (mcf > health > art >> twolf > sixtrack).
func TestMPKIOrderingMatchesPaper(t *testing.T) {
	if testing.Short() {
		t.Skip("long integration test")
	}
	const n = 500_000
	mpki := map[string]float64{}
	for _, name := range []string{"mcf", "health", "art", "twolf", "sixtrack"} {
		res, err := mustNewSim("base-1MB", name).RunWorkload(name, n)
		if err != nil {
			t.Fatal(err)
		}
		mpki[name] = res.MPKI
	}
	order := []string{"mcf", "health", "art", "twolf", "sixtrack"}
	for i := 1; i < len(order); i++ {
		if mpki[order[i-1]] <= mpki[order[i]] {
			t.Errorf("MPKI ordering violated: %s (%.2f) <= %s (%.2f)",
				order[i-1], mpki[order[i-1]], order[i], mpki[order[i]])
		}
	}
}

// TestFACComposesWithLDIS: on a compressible low-spatial-locality
// workload, FAC should do at least as well as plain LDIS with the same
// way split (the paper's positive-interaction claim).
func TestFACComposesWithLDIS(t *testing.T) {
	if testing.Short() {
		t.Skip("long integration test")
	}
	const n = 500_000
	ld, err := mustNewSim("ldis-mt-rc-3", "health").RunWorkload("health", n)
	if err != nil {
		t.Fatal(err)
	}
	fr, err := mustNewSim("fac-3", "health").RunWorkload("health", n)
	if err != nil {
		t.Fatal(err)
	}
	if fr.MPKI > ld.MPKI*1.05 {
		t.Errorf("FAC MPKI %.2f worse than LDIS %.2f on compressible workload", fr.MPKI, ld.MPKI)
	}
}

// TestSFPBelowLDIS: the Figure 13 relationship on a representative
// benchmark — SFP helps mcf far less than LDIS does.
func TestSFPBelowLDIS(t *testing.T) {
	if testing.Short() {
		t.Skip("long integration test")
	}
	const n = 500_000
	base, err := mustNewSim("base-1MB", "mcf").RunWorkload("mcf", n)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := mustNewSim("sfp-16k", "mcf").RunWorkload("mcf", n)
	if err != nil {
		t.Fatal(err)
	}
	ld, err := mustNewSim("ldis-mt-rc-2", "mcf").RunWorkload("mcf", n)
	if err != nil {
		t.Fatal(err)
	}
	redSFP := base.MPKI - sp.MPKI
	redLDIS := base.MPKI - ld.MPKI
	if redLDIS <= redSFP {
		t.Errorf("LDIS reduction (%.2f MPKI) not above SFP (%.2f MPKI)", redLDIS, redSFP)
	}
}
