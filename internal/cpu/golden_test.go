package cpu

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"ldis/internal/cache"
	"ldis/internal/distill"
	"ldis/internal/hierarchy"
	"ldis/internal/mem"
	"ldis/internal/sampler"
	"ldis/internal/trace"
	"ldis/internal/workload"
)

// goldenTimingAccesses is how many accesses of each profile every
// timing golden digest covers.
const goldenTimingAccesses = 150_000

// goldenTimingDigests pins Model.Run on four Figure 9 benchmarks under
// the baseline machine with the 1MB traditional L2 and the distill
// machine with LDIS-MT-RC: FNV-1a over every Result field (floats by
// their IEEE-754 bits), the DRAM counters, and the branch predictor's
// counters, little-endian. A change to the cpu, branch or dram packages
// that is meant to be a pure speed-up must leave every entry unchanged.
var goldenTimingDigests = map[string]uint64{
	"gcc/base-1MB":      0x16ff5bc60696da11,
	"gcc/ldis-mt-rc":    0xbda5af4f2958fb14,
	"mcf/base-1MB":      0xa1c966f1f0433c67,
	"mcf/ldis-mt-rc":    0xd05d410f75c10476,
	"health/base-1MB":   0x741a31a819b93cc5,
	"health/ldis-mt-rc": 0xa4c036b446251afe,
	"swim/base-1MB":     0x8ff0bfcc068429c0,
	"swim/ldis-mt-rc":   0x4af7a5c610626bc3,
}

// instretLog records the Instret of every access the model consumes,
// so the branch stream the run drove can be replayed afterwards.
type instretLog struct {
	inner   trace.Stream
	instret []uint32
}

func (l *instretLog) Next() (mem.Access, bool) {
	a, ok := l.inner.Next()
	if ok {
		l.instret = append(l.instret, a.Instret)
	}
	return a, ok
}

func putU64(h hash.Hash64, vs ...uint64) {
	var buf [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
}

// timingDigest runs n accesses of the named profile through a fresh
// system and model and hashes everything the run reports. The branch
// predictor lives inside Run, so its counters come from replaying the
// run's instret sequence through a fresh branch stream: the stream's
// outcomes depend on nothing else.
func timingDigest(t *testing.T, name string, distillOrg bool, n int) uint64 {
	t.Helper()
	prof, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	sys, _ := hierarchy.Traditional(cache.Config{Name: "base-1MB", SizeBytes: 1 << 20, Ways: 8})
	if distillOrg {
		cfg = DistillConfig()
		dc := distill.Config{
			Name: "ldis-mt-rc", SizeBytes: 1 << 20, Ways: 8, WOCWays: 2, Seed: prof.Seed,
			MedianThreshold: true, Reverter: true,
		}
		sc := sampler.DefaultConfig(dc.Sets())
		sc.LowWatermark, sc.HighWatermark = 112, 144
		dc.SamplerConfig = &sc
		sys, _ = hierarchy.Distill(dc)
	}
	m := New(cfg)
	log := &instretLog{inner: prof.Stream()}
	r := m.Run(sys, prof, log, n)
	if r.Accesses != uint64(n) {
		t.Fatalf("%s: ran %d of %d accesses", name, r.Accesses, n)
	}

	bs := newBranchStream(prof)
	for _, ir := range log.instret {
		bs.run(ir)
	}

	h := fnv.New64a()
	putU64(h, r.Instructions, r.Accesses)
	for _, f := range []float64{r.Cycles, r.MissStall, r.HitStall, r.FrontStall, r.BaseCycles} {
		putU64(h, math.Float64bits(f))
	}
	ms := m.MemoryStats()
	putU64(h, ms.Requests, ms.BankConflicts, ms.RowHits, ms.MSHRStalls)
	ps := bs.pred.Stats()
	putU64(h, ps.Branches, ps.Mispredicts, ps.GshareUsed, ps.PAsUsed)
	return h.Sum64()
}

func TestTimingGoldenDigests(t *testing.T) {
	for _, name := range []string{"gcc", "mcf", "health", "swim"} {
		for _, org := range []string{"base-1MB", "ldis-mt-rc"} {
			key := name + "/" + org
			got := timingDigest(t, name, org != "base-1MB", goldenTimingAccesses)
			want, ok := goldenTimingDigests[key]
			if !ok {
				t.Errorf("%s: no golden digest (got %#016x)", key, got)
				continue
			}
			if got != want {
				t.Errorf("%s: timing digest %#016x, want %#016x", key, got, want)
			}
		}
	}
}
