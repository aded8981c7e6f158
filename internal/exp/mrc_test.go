package exp

import (
	"errors"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"ldis/internal/cache"
	"ldis/internal/stats"
	"ldis/internal/workload"
)

// mrcFast returns options sized for test runs; 150k accesses keeps the
// SHARDS sample large enough for the 0.02 error budget.
func mrcFast(benchmarks ...string) Options {
	return Options{Accesses: 150_000, WarmupFrac: 0.25, Benchmarks: benchmarks}
}

// TestMRCShardsTolerance is the acceptance bound: on every registered
// benchmark — the paper's 16 and the cache-insensitive set alike — the
// SHARDS-sampled curve stays within 0.02 absolute miss ratio of the
// exact Mattson curve, at both granularities. make mrc-smoke runs this
// in CI.
func TestMRCShardsTolerance(t *testing.T) {
	rows, err := MRC(mrcFast(workload.Names()...))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(workload.Names()) {
		t.Fatalf("got %d rows, want %d", len(rows), len(workload.Names()))
	}
	for _, r := range rows {
		lineErr := stats.MaxAbsDiff(r.Exact.Line.Series(), r.Sampled.Line.Series())
		wordErr := stats.MaxAbsDiff(r.Exact.Word.Series(), r.Sampled.Word.Series())
		if math.IsNaN(lineErr) || math.IsNaN(wordErr) {
			t.Errorf("%s: empty curve (line err %v, word err %v)", r.Benchmark, lineErr, wordErr)
			continue
		}
		if lineErr > 0.02 {
			t.Errorf("%s: SHARDS line-grain error %.4f exceeds 0.02", r.Benchmark, lineErr)
		}
		if wordErr > 0.02 {
			t.Errorf("%s: SHARDS word-grain error %.4f exceeds 0.02", r.Benchmark, wordErr)
		}
		for _, c := range []struct {
			name string
			s    stats.Series
		}{
			{"exact line", r.Exact.Line.Series()},
			{"exact word", r.Exact.Word.Series()},
		} {
			if !c.s.NonIncreasing() {
				t.Errorf("%s: %s curve is not non-increasing", r.Benchmark, c.name)
			}
		}
		// Word grain dominates line grain: storing only used words can
		// never need more capacity for the same hit.
		for i, p := range r.Exact.Word.Points {
			if lp := r.Exact.Line.Points[i]; p.Y > lp.Y+1e-9 {
				t.Errorf("%s: word MR %.4f above line MR %.4f at %s",
					r.Benchmark, p.Y, lp.Y, stats.FormatBytes(p.X))
				break
			}
		}
	}
}

// simulatedMissRatio drives the same warmup/measure windows of a
// profile's data accesses through a real set-associative cache and
// returns the measured miss ratio — the independent ground truth for
// the curve spot check.
func simulatedMissRatio(t *testing.T, benchmark string, o Options, sizeMB float64) float64 {
	t.Helper()
	prof, err := workload.ByName(benchmark)
	if err != nil {
		t.Fatal(err)
	}
	c := cache.New(baselineConfig("spot", sizeMB))
	st := prof.Stream()
	var refs, misses float64
	for i := 0; i < o.Accesses; i++ {
		a, ok := st.Next()
		if !ok {
			break
		}
		if !a.Kind.IsData() {
			continue
		}
		hit := c.AccessInstallTenant(a.Line(), a.Word(), a.IsWrite(), 0)
		if i >= o.warmup() {
			refs++
			if !hit {
				misses++
			}
		}
	}
	if refs == 0 {
		t.Fatalf("%s: no measured references", benchmark)
	}
	return misses / refs
}

// TestMRCMatchesSimulation spot-checks the exact line-grain curve
// against full set-associative cache simulation at the paper's three
// capacities. The curve models a fully-associative LRU cache, so the
// simulated 2048-set cache can only be slightly worse (conflict
// misses); the tolerance covers that structural gap.
func TestMRCMatchesSimulation(t *testing.T) {
	benchmarks := []string{"sixtrack", "twolf", "health"}
	o := mrcFast(benchmarks...)
	rows, err := MRC(o)
	if err != nil {
		t.Fatal(err)
	}
	const tol = 0.04
	for _, r := range rows {
		for _, sizeMB := range []float64{0.5, 1, 2} {
			curve := r.Exact.Line.MissRatioAt(sizeMB * (1 << 20))
			sim := simulatedMissRatio(t, r.Benchmark, o, sizeMB)
			if d := math.Abs(curve - sim); d > tol {
				t.Errorf("%s @ %gMB: curve MR %.4f vs simulated %.4f (|diff| %.4f > %.2f)",
					r.Benchmark, sizeMB, curve, sim, d, tol)
			}
		}
	}
}

// TestMRCDeterministic: two runs render byte-identical tables — the
// par fan-out and SHARDS hashing introduce no run-to-run variation.
func TestMRCDeterministic(t *testing.T) {
	render := func() string {
		rows, err := MRC(mrcFast("twolf", "vpr"))
		if err != nil {
			t.Fatal(err)
		}
		out := ""
		for _, tab := range MRCTables(rows) {
			out += tab.String() + "\n"
		}
		return out
	}
	if a, b := render(), render(); a != b {
		t.Error("mrc tables differ between identical runs")
	}
}

// TestMRCCheckpointResume: the mrc experiment round-trips its cells
// through the checkpoint — a resumed run replays instead of
// recomputing and renders identical output.
func TestMRCCheckpointResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), CheckpointFile)
	o := mrcFast("twolf")
	run := func() ([]*stats.Table, *Checkpoint) {
		ck, err := OpenCheckpoint(path, o)
		if err != nil {
			t.Fatal(err)
		}
		ro := o
		ro.Checkpoint = ck
		tabs, err := Run("mrc", ro)
		if err != nil {
			t.Fatal(err)
		}
		if err := ck.Close(); err != nil {
			t.Fatal(err)
		}
		return tabs, ck
	}
	first, ck1 := run()
	if ck1.Recorded() != 2 {
		t.Fatalf("first run recorded %d cells, want 2", ck1.Recorded())
	}
	second, ck2 := run()
	if ck2.Replayed() != 2 {
		t.Fatalf("resumed run replayed %d cells, want 2", ck2.Replayed())
	}
	if len(first) != len(second) {
		t.Fatalf("table count changed across resume: %d vs %d", len(first), len(second))
	}
	for i := range first {
		if first[i].String() != second[i].String() {
			t.Errorf("table %d differs after checkpoint replay", i)
		}
	}
}

// TestMRCOptionsValidate: every MRC geometry the engine would refuse
// is refused by option validation, before any cell runs, on the knob
// it concerns — including a NaN rate, which the sampled column would
// otherwise run as exact, and a rate whose threshold rounds to zero.
func TestMRCOptionsValidate(t *testing.T) {
	cases := []struct {
		p         MRCParams
		field     string
		wantInMsg string
	}{
		{MRCParams{SampleRate: -0.5}, "mrc_sample_rate", "outside (0, 1]"},
		{MRCParams{SampleRate: 1.5}, "mrc_sample_rate", "outside (0, 1]"},
		{MRCParams{SampleRate: math.NaN()}, "mrc_sample_rate", "NaN outside (0, 1]"},
		{MRCParams{SampleRate: 1e-30}, "mrc_sample_rate", "rounds to zero lines"},
		{MRCParams{SampleRate: 1}, "mrc_max_samples", "requires a sample rate below 1"},
		{MRCParams{MaxSamples: -1}, "mrc_max_samples", "negative max samples"},
		{MRCParams{Resolution: -64}, "mrc_resolution", "below the line size"},
		{MRCParams{Resolution: 32, MaxBytes: 65536}, "mrc_resolution", "below the line size"},
		{MRCParams{MaxBytes: -1}, "mrc_max_bytes", "below the resolution"},
		{MRCParams{Resolution: 1 << 20, MaxBytes: 1 << 10}, "mrc_max_bytes", "below the resolution"},
	}
	for _, tc := range cases {
		o := Options{Accesses: 1000, MRC: tc.p}
		err := o.Validate()
		var oe *OptionError
		if !errors.As(err, &oe) {
			t.Errorf("%+v: validate returned %v, want an *OptionError", tc.p, err)
			continue
		}
		// One problem, on the knob it concerns: a check that depends
		// on an earlier knob does not repeat that knob's problem.
		if oe.Field != tc.field || !strings.Contains(oe.Msg, tc.wantInMsg) ||
			len(err.(interface{ Unwrap() []error }).Unwrap()) != 1 {
			t.Errorf("%+v: got %v, want one %s problem containing %q", tc.p, err, tc.field, tc.wantInMsg)
		}
	}
	ok := Options{Accesses: 1000, MRC: MRCParams{SampleRate: 0.1, MaxSamples: 100,
		Resolution: 64 << 10, MaxBytes: 1 << 20}}
	if err := ok.Validate(); err != nil {
		t.Errorf("validate rejected good options: %v", err)
	}
}
