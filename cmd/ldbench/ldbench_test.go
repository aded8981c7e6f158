package main

import (
	"encoding/json"
	"errors"
	"os"
	"strings"
	"testing"

	"ldis/internal/exp"
	"ldis/internal/stats"
)

// testAccesses keeps every cell short; the checks are exact, so the
// length only needs to reach past the warm-up and a few epochs.
const testAccesses = 30_000

func mustPlan(t *testing.T, name string, seed uint64) *plan {
	t.Helper()
	p, err := newPlan(name, seed, testAccesses)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// mustRound runs one untraced round and fails on any cell failure.
func mustRound(t *testing.T, p *plan, tr *tracer) roundResult {
	t.Helper()
	bk := &bookkeeping{ref: make([]uint64, len(p.cells)), haveRef: make([]bool, len(p.cells))}
	rr := runRound(p, p.size, tr, bk, true)
	if bk.failed != 0 {
		t.Fatalf("%s: %d failed cells: %v", p.name, bk.failed, bk.errs)
	}
	return rr
}

// byName indexes a round's results as "<row>/<org>".
func byName(p *plan, rr roundResult) map[string]cellResult {
	m := map[string]cellResult{}
	for i, c := range p.cells {
		m[c.name] = rr.results[i]
	}
	return m
}

func expOptions() exp.Options {
	return exp.Options{Accesses: testAccesses, WarmupFrac: warmupFrac}
}

// The benchmark drives what ldisexp runs: at seed 0 every cell equals
// the matching exp figure cell.
func TestCellsMatchExpAtSeedZero(t *testing.T) {
	sweepPlan := mustPlan(t, wlSweep, 0)
	sweep := byName(sweepPlan, mustRound(t, sweepPlan, nil))
	fig6, err := exp.Fig6(expOptions())
	if err != nil {
		t.Fatal(err)
	}
	fig11, err := exp.Fig11(expOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range fig6 {
		base, ldis, fac := sweep[r.Benchmark+"/"+orgBase], sweep[r.Benchmark+"/"+orgLDIS], sweep[r.Benchmark+"/"+orgFAC]
		if base.mpki != r.BaselineMPKI {
			t.Errorf("%s base MPKI %v, exp.Fig6 %v", r.Benchmark, base.mpki, r.BaselineMPKI)
		}
		if got := stats.PctReduction(base.mpki, ldis.mpki); got != r.RC {
			t.Errorf("%s LDIS-MT-RC reduction %v, exp.Fig6 %v", r.Benchmark, got, r.RC)
		}
		if got := stats.PctReduction(base.mpki, fac.mpki); got != fig11[i].FAC4x {
			t.Errorf("%s FAC-4x reduction %v, exp.Fig11 %v", r.Benchmark, got, fig11[i].FAC4x)
		}
	}

	timingPlan := mustPlan(t, wlTiming, 0)
	timing := byName(timingPlan, mustRound(t, timingPlan, nil))
	fig9, err := exp.Fig9(expOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range fig9 {
		if got := timing[r.Benchmark+"/"+orgBase].ipc; got != r.BaseIPC {
			t.Errorf("%s base IPC %v, exp.Fig9 %v", r.Benchmark, got, r.BaseIPC)
		}
		if got := timing[r.Benchmark+"/"+orgLDIS].ipc; got != r.DistIPC {
			t.Errorf("%s distill IPC %v, exp.Fig9 %v", r.Benchmark, got, r.DistIPC)
		}
	}

	tenantsPlan := mustPlan(t, wlTenants, 0)
	tenants := byName(tenantsPlan, mustRound(t, tenantsPlan, nil))
	parts, err := exp.Partition(expOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range parts {
		for _, c := range row.Cells {
			got := tenants[row.Scenario+"/"+c.Policy].tenants
			if got == nil {
				t.Fatalf("no tenant cell %s/%s", row.Scenario, c.Policy)
			}
			for ti := 0; ti < c.Tenants; ti++ {
				if got.refs[ti] != c.Refs[ti] || got.misses[ti] != c.Misses[ti] ||
					got.finalWays[ti] != int(c.FinalWays[ti]) || got.effGain[ti] != c.EffGain[ti] {
					t.Errorf("%s/%s tenant %d: bench refs %d misses %d ways %d gain %v; exp %d %d %d %v",
						row.Scenario, c.Policy, ti, got.refs[ti], got.misses[ti], got.finalWays[ti], got.effGain[ti],
						c.Refs[ti], c.Misses[ti], c.FinalWays[ti], c.EffGain[ti])
				}
			}
			if got.epochs != c.Epochs || got.rebalances != c.Rebalances || got.agree != c.AgreeEpochs ||
				got.shadowed != c.ShadowEpochs || got.grainDiffers != c.GrainDiffers {
				t.Errorf("%s/%s controller: bench %+v, exp %+v", row.Scenario, c.Policy, *got, c)
			}
		}
	}
}

// The timed paths equal their reference paths, window and every
// counter: replay's sharded run over the decoded trace equals a
// sequential System.RunBatch over the same records, and sweep's
// batched run equals the scalar Stream.Next/System.Do one.
func TestTimedPathsMatchReferencePaths(t *testing.T) {
	for _, name := range []string{wlSweep, wlReplay} {
		p := mustPlan(t, name, 3)
		rr := mustRound(t, p, nil)
		for i, c := range p.cells {
			ref, err := c.ref(p.size)
			if err != nil {
				t.Fatal(err)
			}
			if got := rr.results[i].window; got != ref.window {
				t.Errorf("%s/%s: timed window %+v, reference %+v", name, c.name, got, ref.window)
			}
			if got := rr.results[i].digest; got != ref.digest {
				t.Errorf("%s/%s: timed digest %016x, reference %016x", name, c.name, got, ref.digest)
			}
		}
	}
}

// Tracing observes without perturbing: every cell of every workload
// has the same digest traced and untraced. And the layers' estimates do
// not claim more than the cells took: the residual no layer claims is
// not below -5% of wall time. (Its upper side is not checked here:
// time the test spends descheduled while other packages' tests run
// lands in that residual. The benchmark's traced runs report it as
// unattributed_frac.)
func TestTracedDigestsMatchUntraced(t *testing.T) {
	for _, name := range workloadNames {
		p := mustPlan(t, name, 5)
		plain := mustRound(t, p, nil)
		tr := newTracer()
		traced := mustRound(t, p, tr)
		for i, c := range p.cells {
			if plain.results[i].digest != traced.results[i].digest {
				t.Errorf("%s/%s: traced digest %016x, untraced %016x", name, c.name, traced.results[i].digest, plain.results[i].digest)
			}
		}
		if len(tr.spans) < 1+2*len(p.cells) || len(tr.aggs) == 0 {
			t.Errorf("%s: traced round recorded %d spans, %d aggregates", name, len(tr.spans), len(tr.aggs))
		}
		tt := newTraceTotals()
		tt.add(tr)
		if f := (tt.rootSelf + tt.spanSelf["cell"]) / tt.wall; f < -0.05 {
			t.Errorf("%s: layers claim %.1f%% more than the wall time", name, -100*f)
		}
	}
}

// A failing cell is counted and the round goes on: a panic, an
// invariant error, a digest that drifts from its first run, and a fast
// path that deterministically differs from its reference path each
// fail exactly their own cell.
func TestFailingCellsAreCounted(t *testing.T) {
	p := mustPlan(t, wlSweep, 0)
	p.cells = p.cells[:5]
	p.cells[1].run = func(*cellCtx, int) (cellResult, error) { panic("injected") }
	p.cells[2].run = func(*cellCtx, int) (cellResult, error) { return cellResult{}, errors.New("invariant broken") }
	drift := uint64(0)
	p.cells[3].ref = nil
	p.cells[3].run = func(*cellCtx, int) (cellResult, error) { drift++; return cellResult{accesses: 1, digest: drift}, nil }
	fast := p.cells[4].run
	p.cells[4].run = func(cx *cellCtx, n int) (cellResult, error) {
		res, err := fast(cx, n)
		res.digest++
		return res, err
	}
	bk := &bookkeeping{ref: make([]uint64, len(p.cells)), haveRef: make([]bool, len(p.cells))}
	referencePass(p, p.size, bk)
	if bk.attempted != 4 || bk.failed != 0 {
		t.Fatalf("reference pass: attempted %d failed %d, want 4 and 0", bk.attempted, bk.failed)
	}
	first := runRound(p, p.size, nil, bk, true)
	if bk.attempted != 9 || bk.failed != 3 {
		t.Fatalf("round 1: attempted %d failed %d, want 9 and 3", bk.attempted, bk.failed)
	}
	if first.results[0].accesses != p.size {
		t.Errorf("healthy cell did %d accesses, want %d", first.results[0].accesses, p.size)
	}
	runRound(p, p.size, nil, bk, true)
	if bk.attempted != 14 || bk.failed != 7 {
		t.Fatalf("round 2: attempted %d failed %d, want 14 and 7 (the drifting digest now fails)", bk.attempted, bk.failed)
	}
	if !strings.Contains(strings.Join(bk.errs, "\n"), "panic: injected") {
		t.Errorf("failures %v do not record the panic", bk.errs)
	}
}

// The metrics a run prints are exactly those BENCHMARK.json declares,
// and the last line has exactly the contract's keys.
func TestReportMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var wls []string
	for _, w := range spec.Workloads {
		wls = append(wls, w.Name)
	}
	if strings.Join(wls, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", wls, workloadNames)
	}
	for _, traced := range []bool{false, true} {
		want := map[string]string{}
		defs := spec.EndToEnd
		if traced {
			defs = spec.PerLayer
		}
		for _, d := range defs {
			want[d.Name] = d.Unit
		}
		rep, err := run(config{workload: wlTenants, seed: 7, seconds: 0.01, traced: traced,
			accesses: testAccesses, setupReps: 1})
		if err != nil {
			t.Fatal(err)
		}
		line, err := rep.json()
		if err != nil {
			t.Fatal(err)
		}
		var out map[string]json.RawMessage
		if err := json.Unmarshal([]byte(line), &out); err != nil {
			t.Fatal(err)
		}
		if len(out) != 4 || out["correct"] == nil || out["attempted"] == nil || out["failed"] == nil || out["metrics"] == nil {
			t.Fatalf("result line keys: %s", line)
		}
		var metrics map[string]struct {
			Value float64
			Unit  string
		}
		if err := json.Unmarshal(out["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		if len(metrics) != len(want) {
			t.Errorf("trace=%v: %d metrics, BENCHMARK.json declares %d", traced, len(metrics), len(want))
		}
		for name, m := range metrics {
			if unit, ok := want[name]; !ok || unit != m.Unit {
				t.Errorf("trace=%v: metric %s [%s] not declared as such in BENCHMARK.json", traced, name, m.Unit)
			}
		}
		if !rep.correct || rep.failed != 0 {
			t.Errorf("trace=%v: run not correct: %v", traced, rep.lines)
		}
	}
}
