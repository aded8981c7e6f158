package ldis

import (
	"strings"
	"testing"

	"ldis/internal/hierarchy"
	"ldis/internal/mem"
	"ldis/internal/trace"
)

func TestDefaultKeyIsLDISMTRC(t *testing.T) {
	sim := mustSim(t, "ldis-mt-rc-2", "mcf")
	cfg := sim.System().L2.(*hierarchy.DistillL2).C.Config()
	if cfg.SizeBytes != 1<<20 || cfg.Ways != 8 || cfg.WOCWays != 2 || !cfg.MedianThreshold || !cfg.Reverter {
		t.Errorf("ldis-mt-rc-2 is not LDIS-MT-RC at 1MB with 6+2 ways: %+v", cfg)
	}
}

func TestBenchmarksLists(t *testing.T) {
	if got := len(Benchmarks()); got != 27 {
		t.Errorf("Benchmarks() returned %d, want 27", got)
	}
	main := MainBenchmarks()
	if len(main) != 16 || main[0] != "art" || main[15] != "health" {
		t.Errorf("MainBenchmarks wrong: %v", main)
	}
	// The returned slice must be a copy.
	main[0] = "corrupted"
	if MainBenchmarks()[0] != "art" {
		t.Error("MainBenchmarks leaked internal state")
	}
}

func mustSim(t *testing.T, key, benchmark string) *Sim {
	t.Helper()
	s, err := New(key, benchmark, nil)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestBaselineSimRunWorkload(t *testing.T) {
	sim := mustSim(t, "base-1MB", "twolf")
	res, err := sim.RunWorkload("twolf", 50000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accesses != 50000 || res.Instructions == 0 || res.L2Misses == 0 {
		t.Errorf("degenerate result: %+v", res)
	}
	if res.MPKI <= 0 {
		t.Errorf("MPKI = %v", res.MPKI)
	}
	if !strings.Contains(res.String(), "twolf") {
		t.Error("String() missing benchmark name")
	}
}

func TestRunWorkloadUnknownBenchmark(t *testing.T) {
	if _, err := mustSim(t, "base-1MB", "mcf").RunWorkload("nope", 10); err == nil {
		t.Error("expected error for unknown benchmark")
	}
	if _, err := New("base-1MB", "nope", nil); err == nil {
		t.Error("New: expected error for unknown benchmark")
	}
}

func TestDistillSimOutcomes(t *testing.T) {
	sim := mustSim(t, "ldis-mt-rc-2", "mcf")
	res, err := sim.RunWorkload("mcf", 100000)
	if err != nil {
		t.Fatal(err)
	}
	if res.WOCHits == 0 {
		t.Error("mcf on a distill cache should produce WOC hits")
	}
	if sim.DistillStats() == nil {
		t.Error("DistillStats missing")
	}
	if !strings.Contains(res.String(), "WOC-hit") {
		t.Error("String() missing outcome breakdown")
	}
}

func TestDistillBeatsBaselineOnLowSpatialWorkload(t *testing.T) {
	const n = 400000
	base, err := mustSim(t, "base-1MB", "health").RunWorkload("health", n)
	if err != nil {
		t.Fatal(err)
	}
	dist, err := mustSim(t, "ldis-mt-rc-2", "health").RunWorkload("health", n)
	if err != nil {
		t.Fatal(err)
	}
	if dist.MPKI >= base.MPKI {
		t.Errorf("distill MPKI %.2f not below baseline %.2f on health", dist.MPKI, base.MPKI)
	}
}

func TestTraditionalSimValidation(t *testing.T) {
	_, err := New("trad", "mcf", nil)
	if err == nil {
		t.Fatal("retired name \"trad\" accepted")
	}
	for _, key := range Keys() {
		if !strings.Contains(err.Error(), key) {
			t.Errorf("unknown-key error %q does not list %s", err, key)
		}
	}
	if _, err := mustSim(t, "trad-2MB", "art").RunWorkload("art", 10000); err != nil {
		t.Fatal(err)
	}
}

func TestCompressedAndFACSims(t *testing.T) {
	for _, key := range []string{"cmpr-4x", "fac-3"} {
		if _, err := New(key, "nope", nil); err == nil {
			t.Errorf("%s: unknown benchmark should error", key)
		}
		if _, err := mustSim(t, key, "mcf").RunWorkload("mcf", 20000); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSFPSim(t *testing.T) {
	for _, key := range []string{"sfp-16k", "sfp-64k"} {
		if _, err := mustSim(t, key, "mcf").RunWorkload("mcf", 20000); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRunStreamCustomTrace(t *testing.T) {
	accs := []mem.Access{
		{Addr: 0, Kind: mem.Load, Instret: 10},
		{Addr: 64, Kind: mem.Store, Instret: 10},
		{Addr: 0, Kind: mem.Load, Instret: 10},
	}
	sim := mustSim(t, "base-1MB", DefaultBenchmark)
	res := sim.RunStream("custom", trace.NewSliceStream(accs), 0)
	if res.Accesses != 3 || res.Instructions != 30 {
		t.Errorf("custom stream result: %+v", res)
	}
}

func TestMeasureIPC(t *testing.T) {
	base, dist, err := MeasureIPC("health", 150000)
	if err != nil {
		t.Fatal(err)
	}
	if base.IPC <= 0 || dist.IPC <= 0 {
		t.Fatalf("degenerate IPCs: %+v %+v", base, dist)
	}
	// health is the paper's best case: fewer misses must show up as
	// higher IPC.
	if dist.MPKI < base.MPKI && dist.IPC <= base.IPC {
		t.Errorf("misses dropped (%.1f -> %.1f) but IPC did not rise (%.3f -> %.3f)",
			base.MPKI, dist.MPKI, base.IPC, dist.IPC)
	}
	if _, _, err := MeasureIPC("nope", 10); err == nil {
		t.Error("unknown benchmark should error")
	}
}

func TestExperimentRegistry(t *testing.T) {
	ids := ExperimentIDs()
	want := []string{"fig1", "fig2", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig13",
		"table1", "table2", "table3", "table4", "table5", "table6", "overheads"}
	have := map[string]bool{}
	for _, id := range ids {
		have[id] = true
	}
	for _, id := range want {
		if !have[id] {
			t.Errorf("experiment %q missing from registry", id)
		}
	}
}

func TestRunExperimentStatic(t *testing.T) {
	o := DefaultExperimentOptions()
	tables, err := RunExperiment("table3", o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 || !strings.Contains(tables[0].String(), "12.") {
		t.Errorf("table3 output unexpected:\n%v", tables[0])
	}
	if _, err := RunExperiment("nope", o); err == nil {
		t.Error("unknown experiment should error")
	}
}

func TestRunExperimentSmallDynamic(t *testing.T) {
	o := DefaultExperimentOptions()
	o.Accesses = 30000
	o.Benchmarks = []string{"ammp"}
	tables, err := RunExperiment("fig6", o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 || tables[0].NumRows() != 3 { // ammp + avg + avgNomcf
		t.Errorf("fig6 rows = %d", tables[0].NumRows())
	}
}
