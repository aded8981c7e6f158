package main

import (
	"bytes"
	"fmt"
	"time"

	"ldis/internal/cache"
	"ldis/internal/cpu"
	"ldis/internal/distill"
	"ldis/internal/exp"
	"ldis/internal/hierarchy"
	"ldis/internal/partition"
	"ldis/internal/sampler"
	"ldis/internal/stats"
	"ldis/internal/trace"
	"ldis/internal/workload"
)

// The four workloads. Each cell builds its organization through the
// same public constructors the internal/exp cells call, with the same
// configurations, so at seed 0 a cell reproduces the matching exp
// figure cell bit for bit (the package test checks this).
const (
	wlSweep   = "sweep"
	wlReplay  = "replay"
	wlTiming  = "timing"
	wlTenants = "tenants"
)

var workloadNames = []string{wlSweep, wlReplay, wlTiming, wlTenants}

// Organizations. Each names the l2.<org> layer its calls are traced
// under.
const (
	orgBase     = "base"      // traditional 1MB 8-way (base-1MB)
	orgLDIS     = "ldis"      // LDIS-MT-RC, 2 WOC ways (Figure 6 RC column)
	orgFAC      = "fac"       // footprint-aware compression, 3 WOC ways (Figure 11 FAC-4xTags)
	orgLDISBase = "ldis_base" // LDIS-Base with WOC-LRU: the shard-exact distill configuration
)

// warmupFrac mirrors exp.DefaultOptions: a quarter of every windowed
// cell's accesses warm the caches before the measurement window.
const warmupFrac = 0.25

// replayShards is the shard count of the replay workload: one shard
// per core of the two-core machine the benchmark is sized for.
const replayShards = 2

// Tenant-mix parameters, as exp.Partition runs them by default.
const (
	partSizeBytes  = 1 << 20
	partWays       = 16
	partWayBytes   = partSizeBytes / partWays
	partWOCWays    = 4
	partSampleRate = 0.5
	partEpoch      = 10_000
	partMaxSamples = 16 << 10
	partDecayAlpha = 0.75
)

// partScenarios are exp.Partition's bundled tenant mixes.
var partScenarios = [][]string{
	{"twolf", "mcf"},
	{"vpr", "wupwise"},
	{"art", "health"},
	{"twolf", "vpr", "mcf", "wupwise"},
}

// partPolicies are exp.Partition's policy columns.
var partPolicies = []string{"static", "ucp", "ldis"}

// replayBenchmarks are Table 5's eleven cache-insensitive benchmarks,
// in exp.Table5's row order.
var replayBenchmarks = []string{"equake", "lucas", "mgrid", "applu", "mesa", "crafty", "gap",
	"gzip", "fma3d", "perlbmk", "eon"}

// cellAccesses is every cell's length in a timed round: ldisexp's
// default, so per-cell costs (building a 1MB organization, warming it)
// weigh on each access as they do for ldisexp's users.
var cellAccesses = exp.DefaultOptions().Accesses

// window splits n accesses into warm-up and measurement exactly as
// exp.Options does.
func window(n int) (warm, measure int) {
	warm = int(float64(n) * warmupFrac)
	return warm, n - warm
}

// mixSeed derives a profile seed from its calibration seed and the
// benchmark's -seed. Seed 0 keeps the calibration seed, so seed-0
// results equal ldisexp's.
func mixSeed(base, seed uint64) uint64 {
	if seed == 0 {
		return base
	}
	x := base ^ (seed * 0x9e3779b97f4a7c15)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// seededProfile returns a copy of the named profile with its seed
// mixed with seed. The registry's profile is never modified.
func seededProfile(name string, seed uint64) (*workload.Profile, error) {
	p, err := workload.ByName(name)
	if err != nil {
		return nil, err
	}
	cp := *p
	cp.Seed = mixSeed(p.Seed, seed)
	return &cp, nil
}

// cellResult is one cell's simulated outcome.
type cellResult struct {
	accesses int
	digest   uint64
	// Figures the round metrics and the exp cross-check read.
	window     hierarchy.WindowTotals
	mpki, ipc  float64
	tenants    *tenantOutcome
	sim        simCounts
	shardLoads []uint64 // replay: demand accesses per shard
}

// Reference paths. A cell whose workload drives a fast path has a
// second, plainer driver for the same inputs; before the timed phase
// it runs once, and every timed run's digest must equal its digest:
//
//   - sweep: scalar Stream.Next and System.Do, where the timed path
//     uses the generator's native NextBatch and System.DoBatch;
//   - replay: a sequential System.RunBatch over the decoded records,
//     where the timed path shards them through RunSharded.
//
// timing already runs the scalar path and tenants the same calls as
// exp.partitionSim, so their reference is their own first timed run.

// simCounts are simulated counters summed into the per-layer ratios.
type simCounts struct {
	l1Accesses, l1Hits                       uint64
	ldisAccesses, locHits, wocHits, holeMiss uint64
}

func (s *simCounts) add(o simCounts) {
	s.l1Accesses += o.l1Accesses
	s.l1Hits += o.l1Hits
	s.ldisAccesses += o.ldisAccesses
	s.locHits += o.locHits
	s.wocHits += o.wocHits
	s.holeMiss += o.holeMiss
}

// tenantOutcome mirrors the fields of exp's partition cell.
type tenantOutcome struct {
	refs, misses                        [partition.MaxTenants]uint64
	finalWays                           [partition.MaxTenants]int
	effGain                             [partition.MaxTenants]float64
	epochs, rebalances, agree, shadowed int
	grainDiffers                        int
}

// cell is one unit of simulated work. run receives the access count
// for this invocation: the timed rounds pass the workload's size, the
// set-up warm-up pass a fraction of it. ref, when set, is the cell's
// reference path.
type cell struct {
	name string
	org  string
	prof *workload.Profile // the seeded profile (first tenant's for tenants)
	run  func(cx *cellCtx, n int) (cellResult, error)
	ref  func(n int) (cellResult, error)
}

// cellCtx carries a cell's tracing state; tr is nil when untraced.
type cellCtx struct {
	tr   *tracer
	span int
}

// wrapL2 installs a traced decorator over sys's L2 when tracing.
func (cx *cellCtx) wrapL2(sys *hierarchy.System) *tracedL2 {
	if cx.tr == nil {
		return nil
	}
	d := newTracedL2(sys.L2)
	sys.L2 = d
	return d
}

// attachL2 hangs the decorator's calls since the snapshots under span
// parent.
func (cx *cellCtx) attachL2(org string, parent, track int, d *tracedL2, access, wb probe) {
	if d == nil {
		return
	}
	cx.tr.attach("l2."+org+".access", parent, track, d.access, access)
	cx.tr.attach("l2."+org+".writeback", parent, track, d.wb, wb)
}

// plan is one set-up workload: its cells and what set-up measured.
type plan struct {
	name    string
	size    int // accesses per cell in a timed round
	cells   []cell
	encodeS float64 // replay: time in trace.Write
}

// newPlan builds a workload's inputs from seed, for cells of n
// accesses.
func newPlan(name string, seed uint64, n int) (*plan, error) {
	switch name {
	case wlSweep:
		return sweepPlan(seed, n)
	case wlReplay:
		return replayPlan(seed, n)
	case wlTiming:
		return timingPlan(seed, n)
	case wlTenants:
		return tenantsPlan(seed, n)
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// baseConfig is the 1MB 8-way baseline every figure compares against.
func baseConfig() cache.Config {
	return cache.Config{Name: "base-1MB", SizeBytes: 1 << 20, Ways: 8}
}

// ldisMTRC mirrors exp's LDIS-MT-RC configuration, including its
// narrowed PSEL band.
func ldisMTRC(wocWays int, seed uint64) distill.Config {
	c := distill.Config{
		Name: "ldis-mt-rc", SizeBytes: 1 << 20, Ways: 8, WOCWays: wocWays, Seed: seed,
		MedianThreshold: true, Reverter: true,
	}
	sc := sampler.DefaultConfig(c.Sets())
	sc.LowWatermark = 112
	sc.HighWatermark = 144
	c.SamplerConfig = &sc
	return c
}

// ldisBaseLRU is LDIS-Base with WOC-LRU replacement, the distill
// configuration whose results are exact under line-address sharding.
func ldisBaseLRU(seed uint64) distill.Config {
	return distill.Config{
		Name: "ldis-base", SizeBytes: 1 << 20, Ways: 8, WOCWays: 2, Seed: seed, WOCLRU: true,
	}
}

// buildSystem constructs one organization for a profile.
func buildSystem(org string, prof *workload.Profile) (*hierarchy.System, error) {
	switch org {
	case orgBase:
		sys, _ := hierarchy.Traditional(baseConfig())
		return sys, nil
	case orgLDIS:
		sys, _ := hierarchy.Distill(ldisMTRC(2, prof.Seed))
		return sys, nil
	case orgFAC:
		sys, _ := hierarchy.FAC(ldisMTRC(3, prof.Seed), prof.Values())
		return sys, nil
	case orgLDISBase:
		sys, _ := hierarchy.Distill(ldisBaseLRU(prof.Seed))
		return sys, nil
	}
	return nil, fmt.Errorf("unknown organization %q", org)
}

// ---------------------------------------------------------------------
// sweep: 16 main benchmarks × {base, ldis, fac}, generated on the fly
// through System.DoBatch on one goroutine.
// ---------------------------------------------------------------------

func sweepPlan(seed uint64, size int) (*plan, error) {
	p := &plan{name: wlSweep, size: size}
	for _, name := range workload.MainNames {
		prof, err := seededProfile(name, seed)
		if err != nil {
			return nil, err
		}
		for _, org := range []string{orgBase, orgLDIS, orgFAC} {
			p.cells = append(p.cells, sweepCell(prof, org))
		}
	}
	return p, nil
}

func sweepCell(prof *workload.Profile, org string) cell {
	return cell{name: prof.Name + "/" + org, org: org, prof: prof, run: func(cx *cellCtx, n int) (cellResult, error) {
		b := cx.tr.begin("build", cx.span)
		sys, err := buildSystem(org, prof)
		cx.tr.end(b)
		if err != nil {
			return cellResult{}, err
		}
		d := cx.wrapL2(sys)
		var bs trace.BatchStream = trace.Batched(prof.Stream())
		var gen *probe
		if cx.tr != nil {
			gen = newExactProbe()
			bs = &tracedBatchStream{inner: bs, fill: gen}
		}
		warm, measure := window(n)
		buf := make([]trace.Record, trace.DefaultBatchSize)
		done := driveBatches(cx, org, d, sys, bs, warm, buf)
		w := sys.StartWindow()
		done += driveBatches(cx, org, d, sys, bs, measure, buf)
		totals := w.Totals()
		cx.tr.attach("workload.next_batch", cx.span, 0, gen, probe{})
		defer cx.tr.end(cx.tr.begin("check", cx.span)) // digests and invariant checks
		return finish(sys, org, totals, done, n)
	}, ref: func(n int) (cellResult, error) {
		sys, err := buildSystem(org, prof)
		if err != nil {
			return cellResult{}, err
		}
		st := prof.Stream()
		warm, measure := window(n)
		done := doScalar(sys, st, warm)
		w := sys.StartWindow()
		done += doScalar(sys, st, measure)
		return finish(sys, org, w.Totals(), done, n)
	}}
}

// doScalar drives up to n accesses from st through sys one System.Do
// at a time and returns how many it drove.
func doScalar(sys *hierarchy.System, st trace.Stream, n int) int {
	for i := 0; i < n; i++ {
		a, ok := st.Next()
		if !ok {
			return i
		}
		sys.Do(a)
	}
	return n
}

// finish checks that a windowed cell ran all n accesses and digests
// its window, its access count and the system holding its (merged)
// counters.
func finish(sys *hierarchy.System, org string, totals hierarchy.WindowTotals, done, n int) (cellResult, error) {
	if done != n {
		return cellResult{}, fmt.Errorf("input ended after %d of %d accesses", done, n)
	}
	h := newDigest()
	h.window(totals)
	h.u64(uint64(done))
	res := cellResult{accesses: done, window: totals, mpki: totals.MPKI()}
	if err := digestSystem(&h, sys, org, &res.sim); err != nil {
		return cellResult{}, err
	}
	res.digest = h.sum
	return res, nil
}

// driveBatches feeds up to n records from bs into sys in buf-sized
// blocks, as exp's windowed runner does; when tracing, each DoBatch is
// a span carrying the L2 calls it made.
func driveBatches(cx *cellCtx, org string, d *tracedL2, sys *hierarchy.System, bs trace.BatchStream, n int, buf []trace.Record) int {
	done := 0
	for done < n {
		want := len(buf)
		if want > n-done {
			want = n - done
		}
		got := bs.NextBatch(buf[:want])
		if d == nil {
			sys.DoBatch(buf[:got])
		} else {
			id := cx.tr.begin("hierarchy.do_batch", cx.span)
			access, wb := *d.access, *d.wb
			sys.DoBatch(buf[:got])
			cx.tr.end(id)
			cx.attachL2(org, id, 0, d, access, wb)
		}
		done += got
		if got < want {
			break
		}
	}
	return done
}

// ---------------------------------------------------------------------
// replay: the eleven Table 5 benchmarks, generated and encoded with
// trace.Write during set-up, decoded by trace.BatchReader and driven
// through hierarchy.RunSharded at two shards.
// ---------------------------------------------------------------------

// Sizes of the binary trace format's header and records, so set-up
// can size each encode buffer once.
const (
	traceHeaderBytes = 16
	traceRecordBytes = 24
)

func replayPlan(seed uint64, size int) (*plan, error) {
	p := &plan{name: wlReplay, size: size}
	for _, name := range replayBenchmarks {
		prof, err := seededProfile(name, seed)
		if err != nil {
			return nil, err
		}
		accs := prof.Trace(size)
		t0 := time.Now()
		var buf bytes.Buffer
		buf.Grow(traceHeaderBytes + traceRecordBytes*len(accs))
		if err := trace.Write(&buf, accs); err != nil {
			return nil, fmt.Errorf("encoding %s: %w", name, err)
		}
		p.encodeS += time.Since(t0).Seconds()
		enc := buf.Bytes()
		for _, org := range []string{orgBase, orgLDISBase} {
			p.cells = append(p.cells, replayCell(prof, org, enc))
		}
	}
	return p, nil
}

func replayCell(prof *workload.Profile, org string, enc []byte) cell {
	return cell{name: prof.Name + "/" + org, org: org, prof: prof, run: func(cx *cellCtx, n int) (cellResult, error) {
		b := cx.tr.begin("build", cx.span)
		br, err := trace.NewBatchReader(bytes.NewReader(enc))
		cx.tr.end(b)
		if err != nil {
			return cellResult{}, err
		}
		var bs trace.BatchStream = br
		traced := cx.tr != nil
		var dec *probe
		if traced {
			dec = newExactProbe()
			bs = &tracedBatchStream{inner: br, fill: dec}
		}
		warm, measure := window(n)
		id := cx.tr.begin("hierarchy.run_sharded", cx.span)
		run, err := hierarchy.RunSharded(replayShards, trace.DefaultBatchSize, warm, measure, bs,
			func(int) *hierarchy.System {
				sys, _ := buildSystem(org, prof)
				if traced {
					sys.L2 = newTracedL2(sys.L2)
				}
				return sys
			})
		cx.tr.end(id)
		if err != nil {
			return cellResult{}, err
		}
		if err := br.Err(); err != nil {
			return cellResult{}, err
		}
		defer cx.tr.end(cx.tr.begin("check", cx.span)) // digests and invariant checks
		// Systems[0] holds the merged counters; its siblings keep their
		// own shard's, so shard 0's share is the remainder.
		merged := run.Systems[0]
		res, err := finish(merged, org, run.Window, run.Done, n)
		if err != nil {
			return cellResult{}, err
		}
		res.shardLoads = make([]uint64, len(run.Systems))
		res.shardLoads[0] = merged.DemandAccesses
		for s, sys := range run.Systems {
			if s > 0 {
				res.shardLoads[s] = sys.DemandAccesses
				res.shardLoads[0] -= sys.DemandAccesses
			}
			if err := checkL2(sys.L2); err != nil {
				return cellResult{}, fmt.Errorf("shard %d: %w", s, err)
			}
			if d, ok := sys.L2.(*tracedL2); ok {
				cx.attachL2(org, id, 1+s, d, probe{}, probe{})
			}
		}
		cx.tr.attach("trace.decode", id, 0, dec, probe{})
		return res, nil
	}, ref: func(n int) (cellResult, error) {
		br, err := trace.NewBatchReader(bytes.NewReader(enc))
		if err != nil {
			return cellResult{}, err
		}
		sys, err := buildSystem(org, prof)
		if err != nil {
			return cellResult{}, err
		}
		warm, measure := window(n)
		done := sys.RunBatch(br, warm)
		w := sys.StartWindow()
		done += sys.RunBatch(br, measure)
		if err := br.Err(); err != nil {
			return cellResult{}, err
		}
		return finish(sys, org, w.Totals(), done, n)
	}}
}

// ---------------------------------------------------------------------
// timing: the Figure 9 cells through cpu.Model.Run, which paces the
// scalar Stream.Next / System.Do path.
// ---------------------------------------------------------------------

func timingPlan(seed uint64, size int) (*plan, error) {
	p := &plan{name: wlTiming, size: size}
	for _, name := range workload.MainNames {
		prof, err := seededProfile(name, seed)
		if err != nil {
			return nil, err
		}
		for _, org := range []string{orgBase, orgLDIS} {
			p.cells = append(p.cells, timingCell(prof, org))
		}
	}
	return p, nil
}

func timingCell(prof *workload.Profile, org string) cell {
	return cell{name: prof.Name + "/" + org, org: org, prof: prof, run: func(cx *cellCtx, n int) (cellResult, error) {
		b := cx.tr.begin("build", cx.span)
		sys, err := buildSystem(org, prof)
		ccfg := cpu.DefaultConfig()
		if org != orgBase {
			ccfg = cpu.DistillConfig()
		}
		model := cpu.New(ccfg)
		cx.tr.end(b)
		if err != nil {
			return cellResult{}, err
		}
		d := cx.wrapL2(sys)
		var st = prof.Stream()
		var next *probe
		if cx.tr != nil {
			next = newSampledProbe(0xd1b54a32d192ed03)
			st = &tracedStream{inner: st, next: next}
		}
		id := cx.tr.begin("cpu.run", cx.span)
		r := model.Run(sys, prof, st, n)
		cx.tr.end(id)
		cx.tr.attach("workload.next", id, 0, next, probe{})
		cx.attachL2(org, id, 0, d, probe{}, probe{})
		if r.Accesses != uint64(n) {
			return cellResult{}, fmt.Errorf("stream ended after %d of %d accesses", r.Accesses, n)
		}
		defer cx.tr.end(cx.tr.begin("check", cx.span)) // digests and invariant checks
		res := cellResult{accesses: int(r.Accesses), ipc: r.IPC()}
		h := newDigest()
		h.u64(r.Instructions, r.Accesses)
		h.f64(r.Cycles, r.MissStall, r.HitStall, r.FrontStall, r.BaseCycles)
		ms := model.MemoryStats()
		h.u64(ms.Requests, ms.BankConflicts, ms.RowHits, ms.MSHRStalls)
		if err := digestSystem(&h, sys, org, &res.sim); err != nil {
			return cellResult{}, err
		}
		res.digest = h.sum
		return res, nil
	}}
}

// ---------------------------------------------------------------------
// tenants: exp.Partition's bundled mixes × {static, ucp, ldis}:
// interleaved tenant streams, Controller.Observe with SHARDS and exact
// shadow engines, and quota enforcement in the shared L2.
// ---------------------------------------------------------------------

func tenantsPlan(seed uint64, size int) (*plan, error) {
	p := &plan{name: wlTenants, size: size}
	for _, names := range partScenarios {
		profs := make([]*workload.Profile, len(names))
		for i, name := range names {
			prof, err := seededProfile(name, seed)
			if err != nil {
				return nil, err
			}
			profs[i] = prof
		}
		for _, pol := range partPolicies {
			p.cells = append(p.cells, tenantCell(profs, pol))
		}
	}
	return p, nil
}

// tenantProbes are the per-access boundaries of a tenant cell.
type tenantProbes struct {
	l2, observe, epoch, apply *probe
}

func tenantCell(profs []*workload.Profile, policyName string) cell {
	name := profs[0].Name
	for _, p := range profs[1:] {
		name += "+" + p.Name
	}
	return cell{name: name + "/" + policyName, org: "tenant", prof: profs[0], run: func(cx *cellCtx, n int) (cellResult, error) {
		nt := len(profs)
		b := cx.tr.begin("build", cx.span)
		streams := make([]trace.Stream, nt)
		seed := uint64(0x9a2b_71c5)
		for t, prof := range profs {
			streams[t] = prof.Stream()
			seed = seed*0x100000001b3 ^ prof.Seed
		}
		policy, ok := partition.ByName(policyName)
		if !ok {
			cx.tr.end(b)
			return cellResult{}, fmt.Errorf("unknown partition policy %q", policyName)
		}
		ctrl, err := partition.NewController(partition.Config{
			Tenants: nt, TotalWays: partWays, WayBytes: partWayBytes,
			EpochAccesses: partEpoch, Policy: policy, SampleRate: partSampleRate,
			MaxSamples: partMaxSamples, Seed: seed, DecayAlpha: partDecayAlpha,
			Shadow: true, AccessBudget: n,
		})
		if err != nil {
			cx.tr.end(b)
			return cellResult{}, err
		}
		var (
			conv     *cache.Cache
			dist     *distill.Cache
			locQuota []int
			wocMask  []uint64
		)
		if policyName == "ldis" {
			dist = distill.New(distill.Config{
				Name: "ldis-part", SizeBytes: partSizeBytes, Ways: partWays,
				WOCWays: partWOCWays, Seed: seed,
			})
			locQuota = make([]int, nt)
			wocMask = make([]uint64, nt)
		} else {
			conv = cache.New(cache.Config{Name: policyName + "-part", SizeBytes: partSizeBytes, Ways: partWays})
		}
		cx.tr.end(b)
		apply := func() {
			alloc := ctrl.Alloc()
			if conv != nil {
				conv.SetPartition(alloc)
				return
			}
			partition.ScaleAlloc(alloc, partWays-partWOCWays, 1, locQuota)
			partition.WayMasks(alloc, partWOCWays, wocMask)
			dist.SetPartition(locQuota, wocMask)
		}
		apply()

		var pr tenantProbes
		var bs trace.BatchStream = trace.Batched(trace.NewInterleave(streams...))
		var gen *probe
		if cx.tr != nil {
			pr = tenantProbes{
				l2:      newSampledProbe(0x2545f4914f6cdd1d),
				observe: newSampledProbe(0xd1b54a32d192ed03),
				epoch:   newExactProbe(),
				apply:   newExactProbe(),
			}
			gen = newExactProbe()
			bs = &tracedBatchStream{inner: bs, fill: gen}
		}
		out := &tenantOutcome{}
		buf := make([]trace.Record, trace.DefaultBatchSize)
		warm, _ := window(n)
		done := 0
		for done < n {
			want := len(buf)
			if want > n-done {
				want = n - done
			}
			got := bs.NextBatch(buf[:want])
			for i := 0; i < got; i++ {
				// Profiles are infinite, so strict round-robin keeps the
				// global position identifying the issuing tenant.
				tenant := (done + i) % nt
				a := buf[i]
				miss := tenantAccess(pr.l2, conv, dist, a, tenant)
				if done+i >= warm {
					out.refs[tenant]++
					if miss {
						out.misses[tenant]++
					}
				}
				if observe(pr, ctrl, done+i+1, tenant, a) {
					t0, timed := pr.apply.start()
					apply()
					if timed {
						pr.apply.stop(t0)
					}
				}
			}
			done += got
			if got < want {
				return cellResult{}, fmt.Errorf("tenant stream ended after %d of %d accesses", done, n)
			}
		}
		if cx.tr != nil {
			cx.tr.attach("workload.next_batch", cx.span, 0, gen, probe{})
			cx.tr.attach("l2.tenant.access", cx.span, 0, pr.l2, probe{})
			cx.tr.attach("partition.observe", cx.span, 0, pr.observe, probe{})
			cx.tr.attach("partition.epoch", cx.span, 0, pr.epoch, probe{})
			cx.tr.attach("partition.apply", cx.span, 0, pr.apply, probe{})
			if pr.epoch.calls != uint64(ctrl.Epochs()) {
				return cellResult{}, fmt.Errorf("traced %d epoch-closing Observe calls, controller ran %d epochs",
					pr.epoch.calls, ctrl.Epochs())
			}
		}

		defer cx.tr.end(cx.tr.begin("check", cx.span)) // digests and invariant checks
		alloc := ctrl.Alloc()
		sum := 0
		for t, w := range alloc {
			sum += w
			out.finalWays[t] = w
			line, word := ctrl.Curves(t, profs[t].Name)
			out.effGain[t] = exp.EffectiveCapacityGain(line, word, float64(w*partWayBytes))
		}
		if sum != partWays {
			return cellResult{}, fmt.Errorf("allocation %v sums to %d ways, want %d", alloc, sum, partWays)
		}
		out.epochs = ctrl.Epochs()
		out.rebalances = ctrl.Rebalances()
		out.agree, out.shadowed = ctrl.Agreement()
		out.grainDiffers = ctrl.GrainDisagreements()

		h := newDigest()
		for t := 0; t < nt; t++ {
			h.u64(out.refs[t], out.misses[t], uint64(out.finalWays[t]))
			h.f64(out.effGain[t])
		}
		h.u64(uint64(out.epochs), uint64(out.rebalances), uint64(out.agree), uint64(out.shadowed), uint64(out.grainDiffers))
		if conv != nil {
			if err := digestCache(&h, conv.Stats()); err != nil {
				return cellResult{}, err
			}
		} else {
			if err := digestDistill(&h, dist, nil); err != nil {
				return cellResult{}, err
			}
		}
		return cellResult{accesses: done, digest: h.sum, tenants: out}, nil
	}}
}

// tenantAccess performs one quota-enforced L2 access and reports a
// miss; p, when tracing, samples its duration.
func tenantAccess(p *probe, conv *cache.Cache, dist *distill.Cache, a trace.Record, tenant int) bool {
	t0, timed := p.start()
	var miss bool
	if conv != nil {
		miss = !conv.AccessInstallTenant(a.Line(), a.Word(), a.IsWrite(), tenant)
	} else {
		miss = dist.AccessTenant(a.Line(), a.Word(), a.IsWrite(), tenant).Outcome.IsMiss()
	}
	if timed {
		p.stop(t0)
	}
	return miss
}

// observe feeds the controller one access. When tracing, the call that
// closes an epoch (every partEpoch-th, per partition.Config) is always
// timed on the epoch probe; the others are sampled on the observe
// probe.
func observe(pr tenantProbes, ctrl *partition.Controller, seq, tenant int, a trace.Record) bool {
	p := pr.observe
	if seq%partEpoch == 0 {
		p = pr.epoch
	}
	t0, timed := p.start()
	changed := ctrl.Observe(tenant, a.Line(), a.Word())
	if timed {
		p.stop(t0)
	}
	return changed
}

// ipcGainPct is Figure 9's gmean IPC improvement over the timing
// cells of one round; cells come in (base, ldis) pairs per benchmark.
func ipcGainPct(cells []cell, res []cellResult) float64 {
	var pcts []float64
	for i := 0; i+1 < len(cells); i += 2 {
		if res[i].ipc > 0 && res[i+1].ipc > 0 {
			pcts = append(pcts, stats.PctIncrease(res[i].ipc, res[i+1].ipc))
		}
	}
	return stats.GeoMeanPct(pcts)
}
