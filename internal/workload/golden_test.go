package workload

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"ldis/internal/mem"
)

// goldenAccesses is how many accesses of each profile's stream the
// golden digests cover.
const goldenAccesses = 200_000

// goldenDigests pins the first goldenAccesses accesses of every
// registered profile's stream: FNV-1a over each access's Addr, PC,
// Kind and Instret, little-endian. Every stream consumer — the
// figures, ldbench's digests, recorded traces — depends on these bytes,
// so a generator change that is meant to be a pure speed-up must leave
// every entry unchanged. A change that alters the streams on purpose
// updates the table and says so.
var goldenDigests = map[string]uint64{
	"ammp":     0x7f53a0e09b0596d2,
	"applu":    0x5a9943ed21602654,
	"apsi":     0xaf10a86c258f4ef6,
	"art":      0x47af5ea2350490a7,
	"bzip2":    0x712b8ecd9659e9ee,
	"crafty":   0x306921fcedf199c5,
	"eon":      0xdaddf02970a9a235,
	"equake":   0xb153cc8252818aa5,
	"facerec":  0xc15cc6f971ee5c96,
	"fma3d":    0x0d5cad44c3f49212,
	"galgel":   0xb0ac0e04f3d4592d,
	"gap":      0x61d3dcaf59b2be8b,
	"gcc":      0xa17967f57861701e,
	"gzip":     0xb16f01eae9b844a5,
	"health":   0x795038dae08f3a26,
	"lucas":    0xe5cd71264e9bf544,
	"mcf":      0x2118579bc141dcc1,
	"mesa":     0x7e6a2f324d93aea8,
	"mgrid":    0x9ddc7717da6c3f04,
	"parser":   0x8753501a64f14765,
	"perlbmk":  0xfb00c6406c38f320,
	"sixtrack": 0x05d52d111372cac5,
	"swim":     0xddadce1fb98a01e4,
	"twolf":    0x1ecf598db73458f2,
	"vortex":   0xee06e78be173ea53,
	"vpr":      0x8c423e7f29206d7d,
	"wupwise":  0xff46ab28e899af03,
}

// streamDigest hashes the first n accesses of p's stream.
func streamDigest(t *testing.T, p *Profile, n int) uint64 {
	t.Helper()
	h := fnv.New64a()
	var buf [8 + 8 + 1 + 4]byte
	st := p.Stream()
	for i := 0; i < n; i++ {
		a, ok := st.Next()
		if !ok {
			t.Fatalf("%s: stream dried up at %d", p.Name, i)
		}
		binary.LittleEndian.PutUint64(buf[0:], uint64(a.Addr))
		binary.LittleEndian.PutUint64(buf[8:], uint64(a.PC))
		buf[16] = byte(a.Kind)
		binary.LittleEndian.PutUint32(buf[17:], a.Instret)
		h.Write(buf[:])
	}
	return h.Sum64()
}

func TestStreamGoldenDigests(t *testing.T) {
	names := Names()
	if len(names) != len(goldenDigests) {
		t.Errorf("%d registered profiles, %d golden digests", len(names), len(goldenDigests))
	}
	for _, name := range names {
		p, _ := ByName(name)
		got := streamDigest(t, p, goldenAccesses)
		want, ok := goldenDigests[name]
		if !ok {
			t.Errorf("%s: no golden digest (got %#016x)", name, got)
			continue
		}
		if got != want {
			t.Errorf("%s: stream digest %#016x, want %#016x", name, got, want)
		}
	}
}

// referenceSample is the word-count sampler countCDF replaced: it
// re-sums the weights and walks them to the first boundary above u on
// every call. It stays here as the oracle for countCDF.sample.
func referenceSample(d WordCountDist, u float64) int {
	var tot float64
	for _, w := range d.Weights {
		tot += w
	}
	if tot <= 0 {
		return mem.WordsPerLine
	}
	acc := 0.0
	for i, w := range d.Weights {
		acc += w / tot
		if u < acc {
			return i + 1
		}
	}
	return mem.WordsPerLine
}

// specDists collects the word-count distributions of a spec tree.
func specDists(s VisitorSpec) []WordCountDist {
	switch t := s.(type) {
	case TierSpec:
		return []WordCountDist{t.Words}
	case ScanSpec:
		return []WordCountDist{t.Words}
	case MixSpec:
		var ds []WordCountDist
		for _, c := range t.Components {
			ds = append(ds, specDists(c.Spec)...)
		}
		return ds
	}
	return nil
}

// TestCountCDFMatchesReference compares the precomputed sampler with
// the re-summing one on every registered distribution (plus the
// constructors' shapes and all-zero weights), at each cumulative
// boundary and at its nearest floats on both sides within [0,1), where
// a summation order difference or an off-by-one comparison would show.
func TestCountCDFMatchesReference(t *testing.T) {
	// Besides the constructors' shapes, weights whose total is not a
	// power of two, where w/tot and any reassociated form round apart.
	dists := []WordCountDist{{}, UniformWords(), SingleCount(1), SingleCount(8), Counts(0, 0, 1),
		Counts(1, 2, 3, 4, 5, 6, 7, 8), Counts(0.1, 0.7, 0.2), Counts(3, 0, 7, 0, 11, 0, 0, 13)}
	registered := 0
	for _, name := range Names() {
		p, _ := ByName(name)
		ds := specDists(p.Pattern)
		registered += len(ds)
		dists = append(dists, ds...)
	}
	// The registered profiles declare 40 distributions; fewer means
	// specDists skipped a spec type and left some of them untested.
	if registered < 40 {
		t.Fatalf("collected %d registered distributions, want 40", registered)
	}
	for di, d := range dists {
		c := d.cdf()
		us := []float64{0, 0.5, math.Nextafter(1, 0)}
		var tot, acc float64
		for _, w := range d.Weights {
			tot += w
		}
		for _, w := range d.Weights {
			if tot > 0 {
				acc += w / tot
			}
			us = append(us, acc, math.Nextafter(acc, math.Inf(-1)), math.Nextafter(acc, math.Inf(1)))
		}
		for _, u := range us {
			if u < 0 || u >= 1 {
				continue // outside the sampler's domain
			}
			if got, want := c.sample(u), referenceSample(d, u); got != want {
				t.Errorf("dist %d %v: sample(%v) = %d, reference %d", di, d.Weights, u, got, want)
			}
		}
	}
}

// TestMaskWordsTable checks every entry of the mask table against
// AppendWords: the ascending word list, twice.
func TestMaskWordsTable(t *testing.T) {
	for m := 0; m < 1<<mem.WordsPerLine; m++ {
		once := mem.Footprint(m).AppendWords(nil)
		want := append(append([]int{}, once...), once...)
		got := maskWords[m]
		if len(got) != len(want) || cap(got) != len(want) {
			t.Fatalf("mask %#x: len/cap %d/%d, want %d", m, len(got), cap(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("mask %#x: words %v, want %v", m, got, want)
			}
		}
	}
}
