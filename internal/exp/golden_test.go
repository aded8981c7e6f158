package exp

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"maps"
	"reflect"
	"slices"
	"testing"

	"ldis/internal/cache"
	"ldis/internal/distill"
	"ldis/internal/hierarchy"
	"ldis/internal/obs"
	"ldis/internal/partition"
	"ldis/internal/stats"
	"ldis/internal/trace"
	"ldis/internal/workload"
)

// goldenOrgAccesses is how many accesses of each profile the
// organization golden digests drive.
const goldenOrgAccesses = 150_000

// goldenOrgProfiles are the profiles every single-tenant organization
// digest covers.
var goldenOrgProfiles = []string{"mcf", "twolf", "health"}

// switchingLDIS is LDIS-MT-RC shrunk to 64kB with a narrow PSEL
// hysteresis band. On facerec its reverter flips three times inside
// the prefix, so follower sets widen to traditional mode and narrow
// back, distilling their overflow ways; at the paper's geometry no
// profile flips back within a short prefix.
func switchingLDIS(prof *workload.Profile, _ Options, _ *obs.Cell) *hierarchy.System {
	c := ldisMTRC(2, prof.Seed)
	c.SizeBytes = 64 << 10
	c.SamplerConfig = shortTraceSampler(c.Sets(), 0)
	c.SamplerConfig.LowWatermark, c.SamplerConfig.HighWatermark = 124, 132
	sys, _ := hierarchy.Distill(c)
	return sys
}

// goldenOrgDigests pins the L1D and L2 Stats each organization reaches
// over goldenOrgAccesses of every goldenOrgProfiles stream (facerec
// alone for ldis-mt-rc-switching), and the L2 Stats of the two
// partitioned caches over goldenOrgAccesses of a two-tenant interleave:
// FNV-1a over every counter and histogram bucket, in field order. A
// change meant to leave every simulated result unchanged must leave
// every entry unchanged; one that alters results on purpose updates
// the table and says so.
var goldenOrgDigests = map[string]uint64{
	"base-1MB":             0xac100a31c0bdb18f,
	"ldis-mt-rc-2":         0x90b802e5e78a2fbc,
	"ldis-mt-rc-switching": 0x97ebf686c9ddc21c,
	"fac-3":                0x44eb1038156bd3ed,
	"cmpr-4x":              0x91c1836ffad46651,
	"sfp-16k":              0x91a9ea6be0213bfe,
	"partitioned-cache":    0x0e8a8aaa8436b2ab,
	"partitioned-distill":  0xc89e1dd151aa4cf7,
}

// hashStats folds every uint64 counter and histogram bucket reachable
// from v (a Stats struct, pointer, or nested struct) into h.
func hashStats(h hash.Hash64, v reflect.Value) {
	var buf [8]byte
	switch v.Kind() {
	case reflect.Pointer:
		if hist, ok := v.Interface().(*stats.Histogram); ok {
			for i := 0; i < hist.Len(); i++ {
				binary.LittleEndian.PutUint64(buf[:], hist.Count(i))
				h.Write(buf[:])
			}
			return
		}
		hashStats(h, v.Elem())
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			hashStats(h, v.Field(i))
		}
	case reflect.Uint64:
		binary.LittleEndian.PutUint64(buf[:], v.Uint())
		h.Write(buf[:])
	}
}

// orgDigest drives n accesses of each named profile through a fresh
// system from build and hashes the L1D and L2 Stats after each one. It
// also returns the last profile's system.
func orgDigest(t *testing.T, build func(*workload.Profile, Options, *obs.Cell) *hierarchy.System, key string, profiles []string, n int) (uint64, *hierarchy.System) {
	t.Helper()
	h := fnv.New64a()
	var sys *hierarchy.System
	for _, name := range profiles {
		prof, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		sys = build(prof, Options{}, nil)
		if got := sys.Run(prof.Stream(), n); got != n {
			t.Fatalf("%s/%s: ran %d of %d accesses", key, name, got, n)
		}
		hashStats(h, reflect.ValueOf(sys.L1D.Stats()))
		switch l2 := sys.L2.(type) {
		case *hierarchy.TradL2:
			hashStats(h, reflect.ValueOf(l2.C.Stats()))
		case *hierarchy.DistillL2:
			if err := l2.C.CheckInvariants(); err != nil {
				t.Fatalf("%s/%s: %v", key, name, err)
			}
			hashStats(h, reflect.ValueOf(l2.C.Stats()))
		case *hierarchy.CMPRL2:
			hashStats(h, reflect.ValueOf(l2.C.Stats()))
		case *hierarchy.SFPL2:
			hashStats(h, reflect.ValueOf(l2.C.Stats()))
		default:
			t.Fatalf("%s: unexpected L2 %T", key, sys.L2)
		}
	}
	return h.Sum64(), sys
}

// tenantStreams returns the two tenants' streams of the partitioned
// digests: a capacity-hungry tenant beside a modest one.
func tenantStreams(t *testing.T) [2]trace.Stream {
	t.Helper()
	var sts [2]trace.Stream
	for i, name := range []string{"mcf", "twolf"} {
		prof, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		sts[i] = prof.Stream()
	}
	return sts
}

// partitionedCacheDigest drives a two-tenant interleave through a
// way-partitioned conventional cache, shrinking tenant 0's quota half
// way so lines drain through the over-quota victim rule.
func partitionedCacheDigest(t *testing.T, n int) uint64 {
	c := cache.New(cache.Config{Name: "part", SizeBytes: partSizeBytes, Ways: partWays})
	c.SetPartition([]int{10, 6})
	sts := tenantStreams(t)
	for i := 0; i < n; i++ {
		if i == n/2 {
			c.SetPartition([]int{4, 12})
		}
		a, _ := sts[i%2].Next()
		c.AccessInstallTenant(a.Line(), a.Word(), a.IsWrite(), i%2)
	}
	h := fnv.New64a()
	hashStats(h, reflect.ValueOf(c.Stats()))
	return h.Sum64()
}

// partitionedDistillDigest drives the same interleave through a
// way-partitioned distill cache: LOC quotas plus WOC way masks, the
// second allocation carrying a mask with bits above the WOC way count.
func partitionedDistillDigest(t *testing.T, n int) uint64 {
	c := distill.New(distill.Config{
		Name: "part", SizeBytes: partSizeBytes, Ways: partWays, WOCWays: partWOCWays, Seed: 7,
	})
	c.SetPartition([]int{8, 4}, []uint64{0b0011, 0b1100})
	sts := tenantStreams(t)
	for i := 0; i < n; i++ {
		if i == n/2 {
			c.SetPartition([]int{3, 9}, []uint64{0b0001, 0xf0})
		}
		a, _ := sts[i%2].Next()
		c.AccessTenant(a.Line(), a.Word(), a.IsWrite(), i%2)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	hashStats(h, reflect.ValueOf(c.Stats()))
	return h.Sum64()
}

// TestOrganizationGoldenDigests pins every organization's counters over
// fixed stream prefixes, so a refactor of a cache's access, install or
// evict path that is meant to be byte-identical is checked in tier 1.
func TestOrganizationGoldenDigests(t *testing.T) {
	got := map[string]uint64{}
	for _, key := range []string{"base-1MB", "ldis-mt-rc-2", "fac-3", "cmpr-4x", "sfp-16k"} {
		got[key], _ = orgDigest(t, configs[key].build, key, goldenOrgProfiles, goldenOrgAccesses)
	}
	var sys *hierarchy.System
	got["ldis-mt-rc-switching"], sys = orgDigest(t, switchingLDIS, "ldis-mt-rc-switching", []string{"facerec"}, goldenOrgAccesses)
	if flips := sys.L2.(*hierarchy.DistillL2).C.Sampler().Flips; flips < 2 {
		t.Errorf("ldis-mt-rc-switching: reverter flipped %d times, want at least 2 so sets narrow back", flips)
	}
	got["partitioned-cache"] = partitionedCacheDigest(t, goldenOrgAccesses)
	got["partitioned-distill"] = partitionedDistillDigest(t, goldenOrgAccesses)
	for _, key := range slices.Sorted(maps.Keys(got)) {
		d := got[key]
		want, ok := goldenOrgDigests[key]
		if !ok {
			t.Errorf("%s: no golden digest (got %#016x)", key, d)
			continue
		}
		if d != want {
			t.Errorf("%s: stats digest %#016x, want %#016x", key, d, want)
		}
	}
}

// goldenControllerAccesses is how many interleaved accesses each
// controller golden digest observes: twenty 10k-access epochs.
const goldenControllerAccesses = 200_000

// goldenControllerDigests pins the partition controller over the
// two-tenant and four-tenant bundled mixes under both curve-driven
// policies, with partitionSim's engine settings (SHARDS rate and
// fixed-size bound, 0.75 decay, exact shadow engines): FNV-1a over
// every epoch Decision, the agreement, rebalance and grain tallies,
// and each tenant's final online line- and word-grain curves. An MRC
// engine or controller change meant to keep every curve identical
// must leave every entry unchanged.
var goldenControllerDigests = map[string]uint64{
	"twolf+mcf/ucp":              0xf764215e4ceabb2e,
	"twolf+mcf/ldis":             0x1f4ae82e30e9d96e,
	"twolf+vpr+mcf+wupwise/ucp":  0x7841c00e6b8ca46a,
	"twolf+vpr+mcf+wupwise/ldis": 0x942a36703917868e,
}

// controllerDigest observes n round-robin accesses of the named
// tenants through a controller configured as partitionSim configures
// it, and hashes everything it decided and the curves it ends with.
func controllerDigest(t *testing.T, tenants []string, policyName string, n int) uint64 {
	t.Helper()
	streams := make([]trace.Stream, len(tenants))
	seed := uint64(0x9a2b_71c5)
	for i, name := range tenants {
		prof, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		streams[i] = prof.Stream()
		seed = seed*0x100000001b3 ^ prof.Seed
	}
	policy, ok := partition.ByName(policyName)
	if !ok {
		t.Fatalf("unknown policy %q", policyName)
	}
	ctrl, err := partition.NewController(partition.Config{
		Tenants: len(tenants), TotalWays: partWays, WayBytes: partWayBytes,
		EpochAccesses: 10_000, Policy: policy, SampleRate: partSampleRate,
		MaxSamples: partMaxSamples, Seed: seed, DecayAlpha: 0.75,
		Shadow: true, AccessBudget: n,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := trace.NewInterleave(streams...)
	for i := 0; i < n; i++ {
		a, ok := st.Next()
		if !ok {
			t.Fatalf("stream ended after %d of %d accesses", i, n)
		}
		ctrl.Observe(i%len(tenants), a.Line(), a.Word())
	}
	h := fnv.New64a()
	for _, d := range ctrl.Decisions() {
		fmt.Fprintf(h, "%v\n", d)
	}
	agree, total := ctrl.Agreement()
	if total != ctrl.Epochs() || ctrl.Rebalances() == 0 {
		t.Errorf("%v/%s: %d of %d epochs shadowed, %d rebalances; the digest must cover shadowed epochs and an adopted allocation",
			tenants, policyName, total, ctrl.Epochs(), ctrl.Rebalances())
	}
	fmt.Fprintf(h, "%d %d %d %d\n", agree, total, ctrl.Rebalances(), ctrl.GrainDisagreements())
	for i, name := range tenants {
		line, word := ctrl.Curves(i, name)
		fmt.Fprintf(h, "%v\n%v\n", line, word)
	}
	return h.Sum64()
}

// TestControllerGoldenDigests pins the controller's decisions and
// curves, so an MRC engine or controller refactor meant to be
// byte-identical is checked in tier 1.
func TestControllerGoldenDigests(t *testing.T) {
	scens := bundledScenarios()
	for _, scen := range []partitionScenario{scens[0], scens[3]} {
		for _, policy := range []string{"ucp", "ldis"} {
			key := scen.Name + "/" + policy
			d := controllerDigest(t, scen.Tenants, policy, goldenControllerAccesses)
			want, ok := goldenControllerDigests[key]
			if !ok {
				t.Errorf("%s: no golden digest (got %#016x)", key, d)
				continue
			}
			if d != want {
				t.Errorf("%s: controller digest %#016x, want %#016x", key, d, want)
			}
		}
	}
}
