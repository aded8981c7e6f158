package hierarchy

import (
	"reflect"
	"testing"

	"ldis/internal/cache"
	"ldis/internal/distill"
	"ldis/internal/mem"
	"ldis/internal/sfp"
	"ldis/internal/trace"
	"ldis/internal/values"
	"ldis/internal/workload"

	ccompress "ldis/internal/compress"
)

// seqWindowed is the sequential reference the sharded runner must
// reproduce byte-for-byte: the same NextBatch call schedule (ceil(n/B)
// chunks per phase), the same snapshot boundary, the same zero-delta
// window when the stream dries up during warmup.
func seqWindowed(sys *System, bs trace.BatchStream, batchSize, warmup, measure int) (WindowTotals, int) {
	buf := make([]trace.Record, batchSize)
	done := 0
	drive := func(n int) bool {
		for n > 0 {
			want := batchSize
			if want > n {
				want = n
			}
			got := bs.NextBatch(buf[:want])
			sys.DoBatch(buf[:got])
			done += got
			n -= got
			if got < want {
				return false
			}
		}
		return true
	}
	var w *Window
	if drive(warmup) {
		w = sys.StartWindow()
		drive(measure)
	} else {
		w = sys.StartWindow()
	}
	return w.Totals(), done
}

func streamFor(t *testing.T, name string) trace.BatchStream {
	t.Helper()
	prof, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return trace.Batched(prof.Stream())
}

// requireSameSystem compares every counter the experiments read:
// hierarchy-level totals, the L1D, and the L2 organization's stats.
func requireSameSystem(t *testing.T, label string, got, want *System) {
	t.Helper()
	if got.Instructions != want.Instructions || got.DemandAccesses != want.DemandAccesses ||
		got.CompulsoryMisses != want.CompulsoryMisses {
		t.Errorf("%s: system totals = (%d, %d, %d), want (%d, %d, %d)", label,
			got.Instructions, got.DemandAccesses, got.CompulsoryMisses,
			want.Instructions, want.DemandAccesses, want.CompulsoryMisses)
	}
	if !reflect.DeepEqual(got.Classes, want.Classes) {
		t.Errorf("%s: class histogram diverged", label)
	}
	if !reflect.DeepEqual(got.L1D.Stats(), want.L1D.Stats()) {
		t.Errorf("%s: L1D stats diverged: %+v vs %+v", label, *got.L1D.Stats(), *want.L1D.Stats())
	}
	switch g := got.L2.(type) {
	case *TradL2:
		if !reflect.DeepEqual(g.C.Stats(), want.L2.(*TradL2).C.Stats()) {
			t.Errorf("%s: trad L2 stats diverged", label)
		}
	case *DistillL2:
		if !reflect.DeepEqual(g.C.Stats(), want.L2.(*DistillL2).C.Stats()) {
			t.Errorf("%s: distill L2 stats diverged", label)
		}
	case *CMPRL2:
		if !reflect.DeepEqual(g.C.Stats(), want.L2.(*CMPRL2).C.Stats()) {
			t.Errorf("%s: CMPR L2 stats diverged", label)
		}
	default:
		t.Fatalf("%s: unhandled L2 type %T", label, got.L2)
	}
}

// The equivalence matrix the PR's determinism claim rests on: a
// traditional system run sharded must reproduce the sequential window
// totals, done count, and every merged counter exactly, at every shard
// count and batch size.
func TestRunShardedMatchesSequentialTrad(t *testing.T) {
	const warmup, measure = 6_000, 18_000
	cfg := cache.Config{Name: "t", SizeBytes: 256 * 1024, Ways: 8}
	build := func(shard int) *System {
		sys, _ := Traditional(cfg)
		return sys
	}

	refSys, _ := Traditional(cfg)
	refWin, refDone := seqWindowed(refSys, streamFor(t, "twolf"), trace.DefaultBatchSize, warmup, measure)

	for _, shards := range []int{1, 2, 4, 8, MaxShards} {
		for _, batch := range []int{1, 64, 4096} {
			run, err := RunSharded(shards, batch, warmup, measure, streamFor(t, "twolf"), build)
			if err != nil {
				t.Fatalf("shards=%d batch=%d: %v", shards, batch, err)
			}
			name := "shards=" + itoa(shards) + " batch=" + itoa(batch)
			if run.Window != refWin {
				t.Errorf("%s: window %+v, want %+v", name, run.Window, refWin)
			}
			if run.Done != refDone {
				t.Errorf("%s: done %d, want %d", name, run.Done, refDone)
			}
			requireSameSystem(t, name, run.Systems[0], refSys)
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// A shard-exact distill configuration (WOC-LRU, no median filter, no
// reverter, no noise, no slots hook) must also shard exactly — this is
// the configuration class merge.go certifies via Config.ShardExact.
func TestRunShardedMatchesSequentialDistill(t *testing.T) {
	const warmup, measure = 4_000, 12_000
	cfg := distill.Config{
		Name: "d", SizeBytes: 128 * 1024, Ways: 4, WOCWays: 1, Seed: 3, WOCLRU: true,
	}
	if !cfg.ShardExact() {
		t.Fatal("test config must be shard-exact")
	}
	build := func(shard int) *System {
		sys, _ := Distill(cfg)
		return sys
	}
	refSys, _ := Distill(cfg)
	refWin, refDone := seqWindowed(refSys, streamFor(t, "mcf"), 512, warmup, measure)

	run, err := RunSharded(4, 512, warmup, measure, streamFor(t, "mcf"), build)
	if err != nil {
		t.Fatal(err)
	}
	if run.Window != refWin || run.Done != refDone {
		t.Errorf("window/done = %+v/%d, want %+v/%d", run.Window, run.Done, refWin, refDone)
	}
	requireSameSystem(t, "distill", run.Systems[0], refSys)
}

func TestRunShardedMatchesSequentialCMPR(t *testing.T) {
	const warmup, measure = 4_000, 12_000
	cfg := ccompress.CMPRConfig{Name: "c", SizeBytes: 128 * 1024, Ways: 8, TagFactor: 2}
	model := func() *values.Model { return values.NewModel(7, values.Mix{Zero: 0.4, Half: 0.3, Full: 0.3}) }
	build := func(shard int) *System {
		return NewSystem(NewCMPRL2(ccompress.NewCMPR(cfg, model())))
	}
	refSys := NewSystem(NewCMPRL2(ccompress.NewCMPR(cfg, model())))
	refWin, refDone := seqWindowed(refSys, streamFor(t, "art"), 256, warmup, measure)

	run, err := RunSharded(2, 256, warmup, measure, streamFor(t, "art"), build)
	if err != nil {
		t.Fatal(err)
	}
	if run.Window != refWin || run.Done != refDone {
		t.Errorf("window/done = %+v/%d, want %+v/%d", run.Window, run.Done, refWin, refDone)
	}
	requireSameSystem(t, "cmpr", run.Systems[0], refSys)
}

func TestRunShardedRejectsBadParameters(t *testing.T) {
	build := func(shard int) *System {
		sys, _ := Traditional(cache.Config{Name: "t", SizeBytes: 64 * 8 * mem.LineSize, Ways: 8})
		return sys
	}
	empty := trace.NewSliceStream(nil)
	cases := []struct {
		name                           string
		shards, batch, warmup, measure int
	}{
		{"zero shards", 0, 64, 10, 10},
		{"non-power-of-two", 3, 64, 10, 10},
		{"too many shards", 2 * MaxShards, 64, 10, 10},
		{"zero batch", 2, 0, 10, 10},
		{"negative warmup", 2, 64, -1, 10},
		{"negative measure", 2, 64, 10, -1},
	}
	for _, c := range cases {
		if _, err := RunSharded(c.shards, c.batch, c.warmup, c.measure, empty, build); err == nil {
			t.Errorf("%s: no error", c.name)
		}
	}
}

func TestRunShardedRejectsNonShardable(t *testing.T) {
	build := func(shard int) *System {
		return NewSystem(NewSFPL2(sfp.New(sfp.Config{Name: "s", SizeBytes: 64 * 8 * mem.LineSize, Ways: 8,
			PredictorEntries: 256, TagsPerSet: 22, Seed: 3})))
	}
	_, err := RunSharded(2, 64, 10, 10, trace.NewSliceStream(nil), build)
	if err == nil {
		t.Fatal("SFP (global predictor) must not be accepted for sharding")
	}
}

func TestRunShardedDryStream(t *testing.T) {
	build := func(shard int) *System {
		sys, _ := Traditional(cache.Config{Name: "t", SizeBytes: 64 * 8 * mem.LineSize, Ways: 8})
		return sys
	}
	run, err := RunSharded(4, 64, 1000, 1000, trace.NewSliceStream(nil), build)
	if err != nil {
		t.Fatal(err)
	}
	if run.Done != 0 {
		t.Errorf("done = %d on an empty stream", run.Done)
	}
	if run.Window != (WindowTotals{}) {
		t.Errorf("window = %+v, want zero", run.Window)
	}
}

// When the stream dries up mid-warmup the measurement boundary never
// arrives; the sharded run must report the same zero-delta window the
// sequential path does, while still accounting every driven record.
func TestRunShardedStreamEndsDuringWarmup(t *testing.T) {
	accs := make([]mem.Access, 100)
	for i := range accs {
		accs[i] = access(i, i%8, i%3 == 0, 1)
	}
	build := func(shard int) *System {
		sys, _ := Traditional(cache.Config{Name: "t", SizeBytes: 64 * 8 * mem.LineSize, Ways: 8})
		return sys
	}
	refSys, _ := Traditional(cache.Config{Name: "t", SizeBytes: 64 * 8 * mem.LineSize, Ways: 8})
	refWin, refDone := seqWindowed(refSys, trace.NewSliceStream(accs), 32, 1000, 1000)

	run, err := RunSharded(2, 32, 1000, 1000, trace.NewSliceStream(accs), build)
	if err != nil {
		t.Fatal(err)
	}
	if run.Done != refDone || run.Done != 100 {
		t.Errorf("done = %d, want %d", run.Done, refDone)
	}
	if run.Window != refWin || run.Window != (WindowTotals{}) {
		t.Errorf("window = %+v, want zero (%+v)", run.Window, refWin)
	}
	requireSameSystem(t, "short stream", run.Systems[0], refSys)
}

// A worker that panics mid-run must surface through par's recovery as
// an error — and the producer and sibling workers must still terminate
// (the refcounted drain keeps the pipeline from deadlocking).
func TestRunShardedWorkerPanicSurfaces(t *testing.T) {
	accs := make([]mem.Access, 4096)
	for i := range accs {
		accs[i] = access(i, 0, false, 1)
	}
	build := func(shard int) *System {
		sys, _ := Traditional(cache.Config{Name: "t", SizeBytes: 64 * 8 * mem.LineSize, Ways: 8})
		if shard == 1 {
			// A nil inner cache makes the first L2-reaching access on this
			// shard dereference nil — a stand-in for any worker fault.
			sys.L2 = &TradL2{C: nil}
		}
		return sys
	}
	_, err := RunSharded(2, 64, 2048, 2048, trace.NewSliceStream(accs), build)
	if err == nil {
		t.Fatal("worker panic did not surface as an error")
	}
}

// The steady-state sharded/batched hot paths must not allocate.

func warmTradSystem() (*System, []trace.Record) {
	sys, _ := Traditional(cache.Config{Name: "t", SizeBytes: 64 * 8 * mem.LineSize, Ways: 8})
	recs := make([]trace.Record, 256)
	for i := range recs {
		recs[i] = access(i%64, i%8, i%5 == 0, 1)
	}
	sys.DoBatch(recs) // populate caches and the compulsory line set
	return sys, recs
}

func TestDoBatchZeroAllocs(t *testing.T) {
	sys, recs := warmTradSystem()
	if n := testing.AllocsPerRun(500, func() { sys.DoBatch(recs) }); n != 0 {
		t.Errorf("DoBatch allocates %.1f/op", n)
	}
}

// cycleStream serves its records round and round, without allocating.
type cycleStream struct {
	recs []trace.Record
	pos  int
}

func (c *cycleStream) NextBatch(dst []trace.Record) int {
	for i := range dst {
		dst[i] = c.recs[c.pos]
		c.pos = (c.pos + 1) % len(c.recs)
	}
	return len(dst)
}

// RunBatch is replay's drive loop: once its block buffer exists, a call
// allocates nothing, DoBatch handed to trace.Drive included.
func TestRunBatchZeroAllocs(t *testing.T) {
	sys, recs := warmTradSystem()
	bs := &cycleStream{recs: recs}
	sys.RunBatch(bs, 1)
	if n := testing.AllocsPerRun(100, func() { sys.RunBatch(bs, 2*trace.DefaultBatchSize+17) }); n != 0 {
		t.Errorf("RunBatch allocates %.1f/op", n)
	}
}

func TestDoBatchShardZeroAllocs(t *testing.T) {
	sys, recs := warmTradSystem()
	if n := testing.AllocsPerRun(500, func() { sys.doBatchShard(recs, 3, 1) }); n != 0 {
		t.Errorf("doBatchShard allocates %.1f/op", n)
	}
}

func TestMergeShardZeroAllocs(t *testing.T) {
	a, recs := warmTradSystem()
	b, _ := warmTradSystem()
	_ = recs
	if n := testing.AllocsPerRun(500, func() { a.MergeShard(b) }); n != 0 {
		t.Errorf("MergeShard allocates %.1f/op", n)
	}
}

// BenchmarkRunSharded measures the intra-run scaling the PR claims:
// the same materialized trace driven at increasing shard counts.
func BenchmarkRunSharded(b *testing.B) {
	prof, err := workload.ByName("twolf")
	if err != nil {
		b.Fatal(err)
	}
	const n = 200_000
	accs := make([]mem.Access, n)
	st := prof.Stream()
	for i := range accs {
		a, ok := st.Next()
		if !ok {
			b.Fatal("workload stream dried up")
		}
		accs[i] = a
	}
	cfg := cache.Config{Name: "t", SizeBytes: 1 << 20, Ways: 8}
	for _, shards := range []int{1, 2, 4} {
		b.Run("shards="+itoa(shards), func(b *testing.B) {
			b.SetBytes(n)
			for i := 0; i < b.N; i++ {
				run, err := RunSharded(shards, trace.DefaultBatchSize, n/4, n-n/4,
					trace.NewSliceStream(accs), func(shard int) *System {
						sys, _ := Traditional(cfg)
						return sys
					})
				if err != nil {
					b.Fatal(err)
				}
				if run.Done != n {
					b.Fatalf("done = %d", run.Done)
				}
			}
		})
	}
}
