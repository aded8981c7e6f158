package exp

import (
	"errors"
	"strings"
	"testing"

	"ldis/internal/obs"
	"ldis/internal/workload"
)

// renderAll runs an experiment and concatenates its rendered tables,
// the byte-level artifact the determinism guarantee covers.
func renderAll(t *testing.T, id string, o Options) string {
	t.Helper()
	tables, err := Run(id, o)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	out := ""
	for _, tb := range tables {
		out += tb.String() + "\n" + tb.CSV() + "\n"
	}
	return out
}

// TestParallelDeterminism is the scheduler's core contract: the
// rendered experiment tables are byte-identical at any worker count,
// because every (benchmark × configuration) cell derives all of its
// randomness from the profile seed.
func TestParallelDeterminism(t *testing.T) {
	base := Options{Accesses: 40_000, WarmupFrac: 0.25,
		Benchmarks: []string{"ammp", "mcf", "swim"}}
	for _, id := range []string{"fig6", "fig8", "table6"} {
		seq := base
		seq.Parallel = 1
		par := base
		par.Parallel = 8
		got1 := renderAll(t, id, seq)
		got8 := renderAll(t, id, par)
		if got1 != got8 {
			t.Errorf("%s: Parallel=1 and Parallel=8 outputs differ:\n--- P=1 ---\n%s\n--- P=8 ---\n%s", id, got1, got8)
		}
	}
}

// TestParallelDefaultMatchesSequential covers Parallel=0 (GOMAXPROCS).
func TestParallelDefaultMatchesSequential(t *testing.T) {
	base := Options{Accesses: 40_000, WarmupFrac: 0.25, Benchmarks: []string{"health"}}
	seq := base
	seq.Parallel = 1
	if a, b := renderAll(t, "fig7", seq), renderAll(t, "fig7", base); a != b {
		t.Errorf("fig7: Parallel=0 differs from Parallel=1:\n%s\nvs\n%s", a, b)
	}
}

// TestGridErrorPropagates: a cell error aborts the grid and surfaces
// to the caller.
func TestGridErrorPropagates(t *testing.T) {
	o := Options{Accesses: 1000, Benchmarks: []string{"ammp", "mcf"}, Parallel: 2}
	boom := errors.New("boom")
	_, _, err := runGrid(o, []string{"a", "b", "c"}, func(prof *workload.Profile, key string, _ *obs.Cell) (int, error) {
		if prof.Name == "mcf" && key == "b" {
			return 0, boom
		}
		return len(key), nil
	})
	if !errors.Is(err, boom) {
		t.Errorf("grid error = %v, want boom", err)
	}
}

// TestNegativeParallelRejected: validate refuses Parallel < 0 instead
// of letting the scheduler misbehave.
func TestNegativeParallelRejected(t *testing.T) {
	o := Options{Accesses: 1000, Parallel: -1}
	err := o.Validate()
	if err == nil || !strings.Contains(err.Error(), "Parallel") {
		t.Errorf("negative Parallel: err = %v", err)
	}
}
