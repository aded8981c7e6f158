package exp

import (
	"fmt"
	"strings"

	"ldis/internal/cache"
	"ldis/internal/distill"
	"ldis/internal/obs"
	"ldis/internal/partition"
	"ldis/internal/stats"
	"ldis/internal/trace"
	"ldis/internal/workload"
)

// The partition experiment shares one L2 among N co-running benchmarks
// and lets an online controller (internal/partition) divide its ways.
// Rows are tenant-mix scenarios, columns the allocation policies:
//
//	col 0  static  equal split, never rebalanced — the baseline;
//	col 1  ucp     lookahead marginal utility over the live line-grain
//	               SHARDS curves (Qureshi & Patt's UCP);
//	col 2  ldis    the same lookahead over the distilled word-grain
//	               curves, enforced on a distilling (LOC+WOC) cache.
//
// The static and ucp columns drive a conventional 16-way cache
// (partitioned victim selection); the ldis column drives the distill
// organization, scaling the controller's allocation onto the 12 LOC
// ways and masking the 4 WOC ways per tenant. Every column runs the
// controller with shadow exact-Mattson engines, so the rendered tables
// double as a standing validation that the sampled allocator tracks
// the exact one.

// Shared-cache geometry: 1MB, 16 ways, 1024 sets. One way (64KB)
// equals the default MRC curve resolution, so allocations map
// one-to-one onto curve points.
const (
	partSizeBytes = 1 << 20
	partWays      = 16
	partWayBytes  = partSizeBytes / partWays
	partWOCWays   = 4

	// partSampleRate and partMaxSamples are the controller's SHARDS
	// rate and fixed-size bound. They are partition constants, not the
	// mrc experiment's knobs: with 10k-access epochs split across
	// tenants, the per-decision sample counts at the mrc experiment's
	// 0.1 default are too thin to keep the allocator within a way of
	// the exact one through allocation drifts. Halving the stream is
	// still cheap next to the shadow engines the experiment runs
	// anyway.
	partSampleRate = 0.5
	partMaxSamples = 16 << 10
)

// partitionScenario is one bundled tenant mix. The mixes pair
// capacity-hungry benchmarks with modest ones so utility-driven
// allocation has headroom to beat the equal split, and include a
// word-sparse tenant so the word-grain policy has something to see.
type partitionScenario struct {
	Name    string
	Tenants []string
}

func bundledScenarios() []partitionScenario {
	return []partitionScenario{
		{"twolf+mcf", []string{"twolf", "mcf"}},
		{"vpr+wupwise", []string{"vpr", "wupwise"}},
		{"art+health", []string{"art", "health"}},
		{"twolf+vpr+mcf+wupwise", []string{"twolf", "vpr", "mcf", "wupwise"}},
	}
}

// PartitionParams are the partition experiment's knobs. A zero field
// takes its declared default.
type PartitionParams struct {
	// Tenants is the co-running benchmark mix, 2..partition.MaxTenants
	// workload names; empty runs the bundled scenarios.
	Tenants []string
	// Policy restricts the run to one policy column ("static", "ucp",
	// or "ldis"); empty runs all three.
	Policy string
	// Epoch is the controller's epoch length in accesses.
	Epoch int
}

func (p *PartitionParams) knobs() []Knob {
	return []Knob{
		// Tenants are joined with "+" so the ldisexp group's comma
		// separator stays unambiguous.
		{Key: "tenants", Name: "tenants", Syntax: "<bench+bench...>", ptr: &p.Tenants, check: func() error {
			if n := len(p.Tenants); n == 1 || n > partition.MaxTenants {
				return fmt.Errorf("a tenant mix needs 2..%d workloads, got %d", partition.MaxTenants, n)
			}
			for _, b := range p.Tenants {
				if _, err := workload.ByName(b); err != nil {
					return err
				}
			}
			return nil
		}},
		{Key: "policy", Name: "partition_policy", Syntax: strings.Join(partition.PolicyNames, "|"), ptr: &p.Policy, check: func() error {
			if _, ok := partition.ByName(p.Policy); p.Policy != "" && !ok {
				return fmt.Errorf("unknown policy %q (have %s)", p.Policy, strings.Join(partition.PolicyNames, ", "))
			}
			return nil
		}},
		// ~10 epochs inside a default 100k-access smoke run: enough
		// decisions for the agreement gate to be meaningful, short
		// enough that the controller adapts within a test trace.
		{Key: "epoch", Name: "epoch_accesses", Syntax: "<accesses>", ptr: &p.Epoch, def: 10_000, check: func() error {
			if p.Epoch < 0 {
				return fmt.Errorf("must be >= 0, got %d", p.Epoch)
			}
			return nil
		}},
	}
}

// scenarios returns the scenario rows for one run: the caller's tenant
// mix when one is set, the bundled mixes otherwise.
func (p PartitionParams) scenarios() []partitionScenario {
	if len(p.Tenants) > 0 {
		return []partitionScenario{{Name: strings.Join(p.Tenants, "+"), Tenants: p.Tenants}}
	}
	return bundledScenarios()
}

// policies returns the policy columns for one run.
func (p PartitionParams) policies() []string {
	if p.Policy != "" {
		return []string{p.Policy}
	}
	return partition.PolicyNames
}

// partitionCell is one (scenario, policy) result. Fixed arrays gob
// round-trip through the checkpoint; entries beyond the tenant count
// stay zero.
type partitionCell struct {
	Policy  string
	Tenants int

	// Measurement-window reference and miss counts per tenant.
	Refs   [partition.MaxTenants]uint64
	Misses [partition.MaxTenants]uint64
	// FinalWays is the allocation in force when the run ended.
	FinalWays [partition.MaxTenants]uint8
	// EffGain is the per-tenant effective-capacity gain of word-grain
	// over line-grain at the tenant's final allocated capacity, from
	// the controller's online curves.
	EffGain [partition.MaxTenants]float64

	Epochs       int
	Rebalances   int
	AgreeEpochs  int
	ShadowEpochs int
	GrainDiffers int
}

// aggMissRatio returns the all-tenant miss ratio of the measurement
// window.
func (c partitionCell) aggMissRatio() float64 {
	var refs, misses uint64
	for t := 0; t < c.Tenants; t++ {
		refs += c.Refs[t]
		misses += c.Misses[t]
	}
	if refs == 0 {
		return 0
	}
	return float64(misses) / float64(refs)
}

// meanEffGain averages the per-tenant effective-capacity gains.
func (c partitionCell) meanEffGain() float64 {
	if c.Tenants == 0 {
		return 1
	}
	sum := 0.0
	for t := 0; t < c.Tenants; t++ {
		sum += c.EffGain[t]
	}
	return sum / float64(c.Tenants)
}

// PartitionResult is one scenario's row of policy cells.
type PartitionResult struct {
	Scenario string
	Tenants  []string
	Cells    []partitionCell
}

// Partition runs the multi-tenant partitioning sweep.
func Partition(o Options) ([]PartitionResult, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	scens := o.Partition.scenarios()
	policies := o.Partition.policies()
	rowNames := make([]string, len(scens))
	for i, s := range scens {
		rowNames[i] = s.Name
	}
	keys := make([]string, len(policies))
	for i, p := range policies {
		keys[i] = "part-" + p
	}
	names, grid, err := runNamedGrid(o, rowNames, keys, func(row int, key string, co *obs.Cell) (partitionCell, error) {
		return partitionSim(o, scens[row], strings.TrimPrefix(key, "part-"), co)
	})
	if err != nil {
		return nil, err
	}
	rows := make([]PartitionResult, len(names))
	for i, name := range names {
		var scen partitionScenario
		for _, s := range scens {
			if s.Name == name {
				scen = s
			}
		}
		rows[i] = PartitionResult{Scenario: name, Tenants: scen.Tenants, Cells: grid[i]}
	}
	return rows, nil
}

// partitionSim is one cell: the named scenario's tenants interleaved
// round-robin into one shared cache under the named policy.
func partitionSim(o Options, scen partitionScenario, policyName string, co *obs.Cell) (partitionCell, error) {
	n := len(scen.Tenants)
	profs := make([]*workload.Profile, n)
	streams := make([]trace.Stream, n)
	seed := uint64(0x9a2b_71c5)
	for t, name := range scen.Tenants {
		prof, err := workload.ByName(name)
		if err != nil {
			return partitionCell{}, err
		}
		profs[t] = prof
		streams[t] = prof.Stream()
		seed = seed*0x100000001b3 ^ prof.Seed
	}
	policy, ok := partition.ByName(policyName)
	if !ok {
		return partitionCell{}, fmt.Errorf("exp: unknown partition policy %q", policyName)
	}

	ctrl, err := partition.NewController(partition.Config{
		Tenants:       n,
		TotalWays:     partWays,
		WayBytes:      partWayBytes,
		EpochAccesses: o.Partition.Epoch,
		Policy:        policy,
		SampleRate:    partSampleRate,
		MaxSamples:    partMaxSamples,
		Seed:          seed,
		// Keep three-quarters of the histogram across epochs: short
		// epochs see few samples per tenant, and the longer effective
		// window is what keeps the sampled allocator within a way of
		// the exact one (the shadow engines decay identically, so the
		// agreement comparison stays apples-to-apples).
		DecayAlpha:   0.75,
		Shadow:       true,
		AccessBudget: o.Accesses,
		Obs:          co,
	})
	if err != nil {
		return partitionCell{}, err
	}

	// The ldis policy partitions the distilling organization; the
	// line-grain policies partition a conventional cache of the same
	// size and associativity.
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
		locQuota = make([]int, n)
		wocMask = make([]uint64, n)
	} else {
		conv = cache.New(cache.Config{Name: policyName + "-part", SizeBytes: partSizeBytes, Ways: partWays})
	}
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

	cell := partitionCell{Policy: policyName, Tenants: n}
	bs := trace.Batched(trace.NewInterleave(streams...))
	buf := make([]trace.Record, o.batchSize())
	warm := o.warmup()
	done := 0
	for done < o.Accesses {
		want := len(buf)
		if want > o.Accesses-done {
			want = o.Accesses - done
		}
		got := bs.NextBatch(buf[:want])
		for i := 0; i < got; i++ {
			// Workload profiles are infinite generators, so strict
			// round-robin interleaving never loses a dry stream and the
			// global position identifies the issuing tenant.
			tenant := (done + i) % n
			a := buf[i]
			var miss bool
			if conv != nil {
				miss = !conv.AccessInstallTenant(a.Line(), a.Word(), a.IsWrite(), tenant)
			} else {
				miss = dist.AccessTenant(a.Line(), a.Word(), a.IsWrite(), tenant).Outcome.IsMiss()
			}
			if done+i >= warm {
				cell.Refs[tenant]++
				if miss {
					cell.Misses[tenant]++
				}
			}
			if ctrl.Observe(tenant, a.Line(), a.Word()) {
				apply()
			}
		}
		done += got
		if got < want {
			return partitionCell{}, fmt.Errorf("exp: tenant stream ended after %d of %d accesses", done, o.Accesses)
		}
	}

	for t, w := range ctrl.Alloc() {
		cell.FinalWays[t] = uint8(w)
		line, word := ctrl.Curves(t, scen.Tenants[t])
		cell.EffGain[t] = EffectiveCapacityGain(line, word, float64(w*partWayBytes))
	}
	cell.Epochs = ctrl.Epochs()
	cell.Rebalances = ctrl.Rebalances()
	cell.AgreeEpochs, cell.ShadowEpochs = ctrl.Agreement()
	cell.GrainDiffers = ctrl.GrainDisagreements()
	return cell, nil
}

// allocString renders an allocation as "10/4/2".
func allocString(c partitionCell) string {
	parts := make([]string, c.Tenants)
	for t := 0; t < c.Tenants; t++ {
		parts[t] = fmt.Sprint(c.FinalWays[t])
	}
	return strings.Join(parts, "/")
}

// partitionSummaryTable renders one row per (scenario, policy):
// aggregate miss ratio, final allocation, controller activity, the
// online-vs-exact agreement rate, and the word-grain effective-capacity
// gain.
func partitionSummaryTable(rows []PartitionResult) *stats.Table {
	t := stats.NewTable(
		"Partition summary: aggregate miss ratio, final ways, epochs/rebalances, online-vs-exact agreement, word-grain capacity gain",
		"scenario", "policy", "agg miss", "ways", "epochs", "rebal", "agree", "grain!=", "eff gain")
	for _, r := range rows {
		for _, c := range r.Cells {
			agree := "-"
			if c.ShadowEpochs > 0 {
				agree = fmt.Sprintf("%.0f%%", 100*float64(c.AgreeEpochs)/float64(c.ShadowEpochs))
			}
			t.AddRow(r.Scenario, c.Policy,
				fmt.Sprintf("%.4f", c.aggMissRatio()),
				allocString(c),
				fmt.Sprint(c.Epochs),
				fmt.Sprint(c.Rebalances),
				agree,
				fmt.Sprint(c.GrainDiffers),
				fmt.Sprintf("%.2fx", c.meanEffGain()))
		}
	}
	return t
}

// partitionTenantTable renders one scenario's per-tenant breakdown
// across policies.
func partitionTenantTable(r PartitionResult) *stats.Table {
	t := stats.NewTable(
		"Partition per-tenant: "+r.Scenario,
		"tenant", "policy", "refs", "misses", "miss ratio", "ways", "eff gain")
	for ti, name := range r.Tenants {
		for _, c := range r.Cells {
			mr := 0.0
			if c.Refs[ti] > 0 {
				mr = float64(c.Misses[ti]) / float64(c.Refs[ti])
			}
			t.AddRow(name, c.Policy,
				fmt.Sprint(c.Refs[ti]),
				fmt.Sprint(c.Misses[ti]),
				fmt.Sprintf("%.4f", mr),
				fmt.Sprint(c.FinalWays[ti]),
				fmt.Sprintf("%.2fx", c.EffGain[ti]))
		}
	}
	return t
}

// PartitionTables renders the summary plus one per-tenant table per
// scenario.
func PartitionTables(rows []PartitionResult) []*stats.Table {
	tables := []*stats.Table{partitionSummaryTable(rows)}
	for _, r := range rows {
		tables = append(tables, partitionTenantTable(r))
	}
	return tables
}

func init() {
	registerExp("partition", "multi-tenant way partitioning: static vs UCP vs LDIS-aware over online SHARDS curves", rendered(Partition, PartitionTables), func(o *Options) []Knob { return o.Partition.knobs() })
}
