package cpu

import (
	"math"
	"testing"

	"ldis/internal/cache"
	"ldis/internal/distill"
	"ldis/internal/hierarchy"
	"ldis/internal/mem"
	"ldis/internal/workload"
)

func TestConfigValidate(t *testing.T) {
	for _, c := range []Config{DefaultConfig(), DistillConfig()} {
		if err := c.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	cases := map[string]func(*Config){
		"zero issue width":             func(c *Config) { c.IssueWidth = 0 },
		"L2 hit exposure above 1":      func(c *Config) { c.L2HitExposedFrac = 1.5 },
		"NaN L2 hit exposure":          func(c *Config) { c.L2HitExposedFrac = math.NaN() },
		"NaN miss exposure floor":      func(c *Config) { c.MissExposedBaseline = math.NaN() },
		"negative L2 hit latency":      func(c *Config) { c.L2HitLatency = -1 },
		"negative branch penalty":      func(c *Config) { c.BranchPenalty = -1 },
		"negative extra tag cycles":    func(c *Config) { c.L2ExtraTagCycles = -1 },
		"negative WOC rearrange":       func(c *Config) { c.WOCRearrangeCycles = -1 },
		"negative DRAM bank busy time": func(c *Config) { c.BankBusy = -1 },
		"negative DRAM bus cycles":     func(c *Config) { c.BusCycles = -1 },
	}
	for name, mutate := range cases {
		c := DefaultConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", name, c)
		}
	}
	// The DRAM parameters are checked by dram's own Validate, so New
	// rejects them before building the memory system.
	c := DefaultConfig()
	c.BusCycles = -1
	if err, want := c.Validate(), c.memoryConfig().Validate(); err == nil || err.Error() != want.Error() {
		t.Errorf("Validate = %v, want dram's %v", err, want)
	}
}

func TestDistillConfigExtras(t *testing.T) {
	c := DistillConfig()
	if c.L2ExtraTagCycles != 1 || c.WOCRearrangeCycles != 2 {
		t.Errorf("distill timing extras wrong: %+v", c)
	}
}

func run(t *testing.T, sys *hierarchy.System, profName string, n int, cfg Config) Result {
	t.Helper()
	prof, err := workload.ByName(profName)
	if err != nil {
		t.Fatal(err)
	}
	return New(cfg).Run(sys, prof, prof.Stream(), n)
}

func TestIPCBoundedByIssueWidth(t *testing.T) {
	sys, _ := hierarchy.Traditional(cache.Config{Name: "b", SizeBytes: 1 << 20, Ways: 8})
	r := run(t, sys, "twolf", 20000, DefaultConfig())
	if r.Instructions == 0 || r.Cycles <= 0 {
		t.Fatalf("degenerate result: %+v", r)
	}
	if ipc := r.IPC(); ipc <= 0 || ipc > 8 {
		t.Errorf("IPC = %.2f outside (0, 8]", ipc)
	}
}

func TestFewerMissesMeansHigherIPC(t *testing.T) {
	// The same workload on a 4x cache must not be slower.
	sysSmall, _ := hierarchy.Traditional(cache.Config{Name: "small", SizeBytes: 1 << 20, Ways: 8})
	sysBig, _ := hierarchy.Traditional(cache.Config{Name: "big", SizeBytes: 4 << 20, Ways: 8})
	rSmall := run(t, sysSmall, "health", 150000, DefaultConfig())
	rBig := run(t, sysBig, "health", 150000, DefaultConfig())
	if rBig.IPC() < rSmall.IPC() {
		t.Errorf("bigger cache slower: %.3f vs %.3f", rBig.IPC(), rSmall.IPC())
	}
	if rBig.MissStall >= rSmall.MissStall {
		t.Errorf("bigger cache should stall less: %.0f vs %.0f", rBig.MissStall, rSmall.MissStall)
	}
}

func TestLowMLPStallsMore(t *testing.T) {
	// Two profiles differing only in MLP: the serial one must stall more
	// per miss. Use the same stream (mcf) but patch MLP.
	base, err := workload.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	serial := *base
	serial.MLP = 1
	parallel := *base
	parallel.MLP = 8

	sysA, _ := hierarchy.Traditional(cache.Config{Name: "a", SizeBytes: 1 << 20, Ways: 8})
	sysB, _ := hierarchy.Traditional(cache.Config{Name: "b", SizeBytes: 1 << 20, Ways: 8})
	rA := New(DefaultConfig()).Run(sysA, &serial, serial.Stream(), 50000)
	rB := New(DefaultConfig()).Run(sysB, &parallel, parallel.Stream(), 50000)
	if rA.MissStall <= rB.MissStall {
		t.Errorf("MLP=1 should stall more than MLP=8: %.0f vs %.0f", rA.MissStall, rB.MissStall)
	}
}

func TestExtraTagCycleCostsIFetchHeavyWorkloads(t *testing.T) {
	// With identical cache behaviour, the distill timing (extra tag
	// cycle) must not increase IPC for an icache-intensive profile.
	sysA, _ := hierarchy.Traditional(cache.Config{Name: "a", SizeBytes: 1 << 20, Ways: 8})
	sysB, _ := hierarchy.Traditional(cache.Config{Name: "b", SizeBytes: 1 << 20, Ways: 8})
	rBase := run(t, sysA, "gcc", 50000, DefaultConfig())
	rDist := run(t, sysB, "gcc", 50000, DistillConfig())
	if rDist.IPC() > rBase.IPC() {
		t.Errorf("extra tag cycle should not speed gcc up: %.3f vs %.3f", rDist.IPC(), rBase.IPC())
	}
}

func TestBankConflictsAddLatency(t *testing.T) {
	cfg := DefaultConfig()
	m := New(cfg)
	// Two back-to-back misses to the same bank (lines 3 and 35 with 32
	// banks): the second waits.
	s1 := m.missStall(0, 3, 1)
	s2 := m.missStall(0, 35, 1)
	if s2 <= s1 {
		t.Errorf("bank conflict not modelled: %.0f then %.0f", s1, s2)
	}
	// A different bank at a much later time is cheaper.
	s3 := m.missStall(2000, 4, 1)
	if s3 >= s2 {
		t.Errorf("unconflicted miss should be cheaper: %.0f vs %.0f", s3, s2)
	}
	if m.MemoryStats().BankConflicts == 0 {
		t.Error("dram stats should record the conflict")
	}
}

func TestMLPDividesExposure(t *testing.T) {
	m1 := New(DefaultConfig())
	m8 := New(DefaultConfig())
	a := m1.missStall(0, 0, 1)
	b := m8.missStall(0, 0, 8)
	if b >= a {
		t.Errorf("MLP=8 exposure %.0f should be below MLP=1 %.0f", b, a)
	}
	if b < a*DefaultConfig().MissExposedBaseline-1 {
		t.Errorf("exposure %.0f below the baseline floor", b)
	}
}

func TestDistillSystemEndToEnd(t *testing.T) {
	// Smoke test: a distill cache + distill timing on a favourable
	// workload produces a valid result and a higher IPC than the same
	// trace on the baseline when misses drop substantially.
	prof, err := workload.ByName("health")
	if err != nil {
		t.Fatal(err)
	}
	sysBase, _ := hierarchy.Traditional(cache.Config{Name: "base", SizeBytes: 1 << 20, Ways: 8})
	dcfg := paperDistill()
	dcfg.Seed = 42
	sysDist, _ := hierarchy.Distill(dcfg)

	rBase := New(DefaultConfig()).Run(sysBase, prof, prof.Stream(), 200000)
	rDist := New(DistillConfig()).Run(sysDist, prof, prof.Stream(), 200000)
	if rBase.IPC() <= 0 || rDist.IPC() <= 0 {
		t.Fatalf("degenerate IPCs: %.3f / %.3f", rBase.IPC(), rDist.IPC())
	}
	baseMPKI := float64(sysBase.L2.Misses()) / float64(rBase.Instructions) * 1000
	distMPKI := float64(sysDist.L2.Misses()) / float64(rDist.Instructions) * 1000
	if distMPKI < baseMPKI*0.9 && rDist.IPC() < rBase.IPC() {
		t.Errorf("misses dropped (%.1f -> %.1f MPKI) but IPC fell (%.3f -> %.3f)",
			baseMPKI, distMPKI, rBase.IPC(), rDist.IPC())
	}
}

// paperDistill is the paper's 1MB 8-way distill cache with 2 WOC ways,
// median-threshold filtering and the reverter.
func paperDistill() distill.Config {
	return distill.Config{Name: "distill", SizeBytes: 1 << 20, Ways: 8, WOCWays: 2,
		MedianThreshold: true, Reverter: true, Seed: 1}
}

func TestEmptyStream(t *testing.T) {
	sys, _ := hierarchy.Traditional(cache.Config{Name: "b", SizeBytes: 1 << 20, Ways: 8})
	prof, _ := workload.ByName("twolf")
	r := New(DefaultConfig()).Run(sys, prof, emptyStream{}, 100)
	if r.Accesses != 0 || r.Cycles != 0 {
		t.Errorf("empty stream result: %+v", r)
	}
	if r.IPC() != 0 {
		t.Error("empty-run IPC should be 0")
	}
}

type emptyStream struct{}

func (emptyStream) Next() (mem.Access, bool) { return mem.Access{}, false }

func TestBranchStreamEmergentRate(t *testing.T) {
	// The synthetic branch stream's emergent misprediction rate should
	// track the profile's configured rate within a factor of ~2.
	for _, name := range []string{"gcc", "swim"} {
		prof, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		bs := newBranchStream(prof)
		miss := 0
		for i := 0; i < 40000; i++ {
			miss += bs.run(25) // 1M instructions total
		}
		branches := bs.pred.Stats().Branches
		if branches == 0 {
			t.Fatalf("%s: no branches synthesized", name)
		}
		rate := float64(miss) / float64(branches)
		// The emergent rate carries a predictor warm-up floor on top of
		// the configured data-dependent component, so the tolerance is
		// loose; the absolute CPI impact of the gap is < 0.02.
		if rate < prof.MispredictRate*0.3 || rate > prof.MispredictRate*3+0.01 {
			t.Errorf("%s: emergent mispredict rate %.4f vs configured %.4f",
				name, rate, prof.MispredictRate)
		}
	}
}

// BenchmarkBranchStream drives gcc's synthetic branch stream through the
// hybrid predictor and reports the host time per simulated branch.
func BenchmarkBranchStream(b *testing.B) {
	prof, err := workload.ByName("gcc")
	if err != nil {
		b.Fatal(err)
	}
	bs := newBranchStream(prof)
	for b.Loop() {
		bs.run(1000)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(bs.pred.Stats().Branches), "ns/branch")
}

// TestRunAllocatesNothingPerAccess pins Model.Run's steady state: a run
// allocates its branch stream and predictor once, and nothing per
// access, so a run ten times as long allocates exactly as much. The
// warm-up run lets the distill cache's word-organized sets grow to
// their full line count first; that growth is the L2's, not the
// timing model's.
func TestRunAllocatesNothingPerAccess(t *testing.T) {
	prof, err := workload.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	dcfg := paperDistill()
	dcfg.Seed = prof.Seed
	sysBase, _ := hierarchy.Traditional(cache.Config{Name: "base", SizeBytes: 1 << 20, Ways: 8})
	sysDist, _ := hierarchy.Distill(dcfg)
	for _, c := range []struct {
		name string
		sys  *hierarchy.System
		cfg  Config
	}{{"base", sysBase, DefaultConfig()}, {"distill", sysDist, DistillConfig()}} {
		m, st := New(c.cfg), prof.Stream()
		m.Run(c.sys, prof, st, 400_000) // fill every L2 set and the MSHR
		short := testing.AllocsPerRun(10, func() { m.Run(c.sys, prof, st, 2_000) })
		long := testing.AllocsPerRun(10, func() { m.Run(c.sys, prof, st, 20_000) })
		if long != short {
			t.Errorf("%s: %v allocations for 20k accesses, %v for 2k", c.name, long, short)
		}
	}
}
