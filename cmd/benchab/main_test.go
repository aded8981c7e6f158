package main

import (
	"fmt"
	"strings"
	"testing"
)

// TestCompareVerdicts applies the verdict rule to pairs recorded in
// CHANGES.md for the set-geometry change (sweep and replay
// accesses_per_cpu_s, parent then change) and to two constructed
// cases.
func TestCompareVerdicts(t *testing.T) {
	higher := metric{Name: "accesses_per_cpu_s", Better: "higher"}
	lower := metric{Name: "alloc_b_per_access", Better: "lower"}
	for _, tc := range []struct {
		name       string
		m          metric
		base, work []float64
		verdict    string
		won, lost  int
	}{
		{"sweep, 4/10", higher,
			[]float64{8.53, 9.02, 8.94, 9.30, 9.17, 9.04, 8.60, 9.06, 8.41, 8.05},
			[]float64{8.50, 9.10, 8.95, 9.07, 8.76, 9.40, 8.61, 8.76, 8.13, 6.98}, "unresolved", 4, 6},
		{"replay, 7/10", higher,
			[]float64{14.7, 15.4, 15.0, 15.1, 16.9, 14.8, 14.3, 14.0, 14.0, 12.9},
			[]float64{14.5, 15.5, 17.3, 15.7, 14.0, 14.4, 14.6, 14.6, 14.8, 14.5}, "unresolved", 7, 3},
		{"allocation falls in every pair", lower,
			[]float64{1.48, 1.48, 1.49, 1.48, 1.48, 1.48, 1.48, 1.48, 1.48, 1.48},
			[]float64{0.88, 0.88, 0.89, 0.88, 0.88, 0.88, 0.88, 0.88, 0.88, 0.88}, "met", 10, 0},
		{"8/10 slower beyond the spread", higher,
			[]float64{10, 11, 10, 11, 10, 11, 10, 11, 10, 11},
			[]float64{8, 9, 8, 9, 8, 9, 8, 9, 12, 12}, "regressed", 2, 8},
	} {
		r := compare("w", tc.m, tc.base, tc.work)
		if r.Verdict != tc.verdict || r.Won != tc.won || r.Lost != tc.lost {
			t.Errorf("%s: %s, won %d lost %d; want %s, %d, %d", tc.name, r.Verdict, r.Won, r.Lost, tc.verdict, tc.won, tc.lost)
		}
	}
}

func TestQuartiles(t *testing.T) {
	if m, iqr := quartiles([]float64{4, 1, 3, 2}); m != 2.5 || iqr != 1.5 {
		t.Errorf("quartiles(1..4) = %v, %v; want 2.5, 1.5", m, iqr)
	}
	if m, iqr := quartiles([]float64{7}); m != 7 || iqr != 0 {
		t.Errorf("quartiles(7) = %v, %v; want 7, 0", m, iqr)
	}
}

// TestTimePairsRefusesDifferentDigests feeds the pair loop runs whose
// digests differ between the sides from one seed on; the loop must
// refuse at that pair, not time it.
func TestTimePairsRefusesDifferentDigests(t *testing.T) {
	for _, tc := range []struct {
		name    string
		runOne  func(i, seed int) run
		refused string
	}{
		{"same digests", func(i, seed int) run {
			return run{digest: fmt.Sprint(seed), Correct: true}
		}, ""},
		{"digests differ from seed 4", func(i, seed int) run {
			d := fmt.Sprint(seed)
			if i == 1 && seed >= 4 {
				d += "x"
			}
			return run{digest: d, Correct: true}
		}, "pair 3: digest 4 at base, 4x in the working tree"},
		{"base run not correct at seed 6", func(i, seed int) run {
			return run{digest: fmt.Sprint(seed), Correct: i == 1 || seed != 6}
		}, "pair 5: base run not correct"},
		{"working-tree run without a digest", func(i, seed int) run {
			if i == 1 {
				return run{Correct: true}
			}
			return run{digest: fmt.Sprint(seed), Correct: true}
		}, "pair 0: working-tree run not correct"},
	} {
		var seeds, sides []int
		runs, err := timePairs("sweep", func(i, seed int) (run, error) {
			seeds, sides = append(seeds, seed), append(sides, i)
			return tc.runOne(i, seed), nil
		})
		switch {
		case tc.refused == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.refused == "" && (len(runs[0]) != pairs || len(runs[1]) != pairs):
			t.Errorf("%s: %d and %d runs; want %d each", tc.name, len(runs[0]), len(runs[1]), pairs)
		case tc.refused != "" && (err == nil || !strings.Contains(err.Error(), tc.refused)):
			t.Errorf("%s: error %v; want one containing %q", tc.name, err, tc.refused)
		}
		// Pair p runs seed+p on both sides, the base first in even pairs.
		if tc.refused == "" {
			for k := range seeds {
				if p := k / 2; seeds[k] != seed+p || sides[k] != (p+k%2)%2 {
					t.Errorf("%s: run %d is seed %d on side %d", tc.name, k, seeds[k], sides[k])
				}
			}
		}
	}
}

// TestReadBench reads the repository's BENCHMARK.json, which sets the
// workloads and the run length.
func TestReadBench(t *testing.T) {
	b, err := readBench("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if b.RunSeconds < 1 || len(b.Workloads) == 0 || b.Workloads[0].Name == "" || len(b.EndToEnd) == 0 {
		t.Errorf("readBench = %+v", b)
	}
}
