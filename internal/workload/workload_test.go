package workload

import (
	"errors"
	"math"
	"strings"
	"testing"

	"ldis/internal/mem"
	"ldis/internal/trace"
)

func TestWordCountDistMean(t *testing.T) {
	if got := SingleCount(8).Mean(); got != 8 {
		t.Errorf("SingleCount(8).Mean = %v", got)
	}
	if got := UniformWords().Mean(); math.Abs(got-4.5) > 1e-12 {
		t.Errorf("UniformWords.Mean = %v, want 4.5", got)
	}
	if got := (WordCountDist{}).Mean(); got != 0 {
		t.Errorf("zero dist Mean = %v", got)
	}
}

func TestSingleCountPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	SingleCount(0)
}

func TestDistSample(t *testing.T) {
	d := Counts(0.5, 0, 0, 0, 0, 0, 0, 0.5).cdf()
	if got := d.sample(0.2); got != 1 {
		t.Errorf("sample(0.2) = %d, want 1", got)
	}
	if got := d.sample(0.9); got != 8 {
		t.Errorf("sample(0.9) = %d, want 8", got)
	}
	empty := WordCountDist{}.cdf()
	if got := empty.sample(0.5); got != mem.WordsPerLine {
		t.Errorf("empty sample = %d", got)
	}
}

func TestMaskForDeterministicAndSized(t *testing.T) {
	d := Counts(0.3, 0.3, 0.2, 0.2).cdf()
	for line := mem.LineAddr(0); line < 500; line++ {
		for _, style := range []MaskStyle{MaskContig, MaskStride, MaskScatter} {
			a := maskFor(7, line, &d, style)
			b := maskFor(7, line, &d, style)
			if a != b {
				t.Fatalf("mask not deterministic for line %d style %d", line, style)
			}
			if a.Count() < 1 || a.Count() > 4 {
				t.Fatalf("mask count %d outside distribution support [1,4]", a.Count())
			}
		}
	}
}

func TestMaskMeanTracksDistribution(t *testing.T) {
	d := Counts(0.5, 0, 0, 0, 0, 0, 0, 0.5).cdf() // mean 4.5
	var sum int
	const n = 20000
	for line := mem.LineAddr(0); line < n; line++ {
		sum += maskFor(3, line, &d, MaskScatter).Count()
	}
	got := float64(sum) / n
	if math.Abs(got-4.5) > 0.15 {
		t.Errorf("empirical mask mean %.3f, want ~4.5", got)
	}
}

func TestMaskContigIsContiguous(t *testing.T) {
	d := SingleCount(3).cdf()
	for line := mem.LineAddr(0); line < 200; line++ {
		f := maskFor(11, line, &d, MaskContig)
		ws := f.Words()
		if len(ws) != 3 {
			t.Fatalf("count = %d", len(ws))
		}
		// Contiguous modulo 8: the gaps pattern must be a single run when
		// rotated; check that some rotation makes it consecutive.
		ok := false
		for r := 0; r < mem.WordsPerLine; r++ {
			if f.Has(r) && f.Has((r+1)%8) && f.Has((r+2)%8) {
				ok = true
				break
			}
		}
		if !ok {
			t.Fatalf("mask %v not a contiguous run", f)
		}
	}
}

func TestBurstRotationCoversMask(t *testing.T) {
	bs := newBurstState(5, SingleCount(8), MaskContig, 2)
	line := mem.LineAddr(77)
	seen := mem.Footprint(0)
	for i := 0; i < 64; i++ {
		for _, w := range bs.wordsOf(line) {
			seen = seen.Set(w)
		}
	}
	if seen != mem.FullFootprint {
		t.Errorf("64 burst-2 visits covered only %v", seen)
	}
	// Each visit returns exactly burst words.
	if got := len(bs.wordsOf(line)); got != 2 {
		t.Errorf("burst visit touched %d words", got)
	}
}

func TestProfileStreamDeterminism(t *testing.T) {
	p, err := ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	a := p.Trace(5000)
	b := p.Trace(5000)
	if len(a) != 5000 || len(b) != 5000 {
		t.Fatalf("trace lengths %d/%d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("stream not deterministic at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestTraceMatchesStream: Trace's one-allocation batch fill yields
// exactly the accesses the scalar stream does, and exactly n of them.
func TestTraceMatchesStream(t *testing.T) {
	for _, name := range Names() {
		p, _ := ByName(name)
		got := p.Trace(3000)
		want := trace.Collect(p.Stream(), 3000)
		if len(got) != 3000 || len(want) != 3000 {
			t.Fatalf("%s: trace lengths %d/%d", name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: access %d = %v, want %v", name, i, got[i], want[i])
			}
		}
	}
}

func TestProfileInstretRate(t *testing.T) {
	p, err := ByName("twolf")
	if err != nil {
		t.Fatal(err)
	}
	accs := p.Trace(20000)
	inst := trace.CountInstructions(accs)
	refsPerK := float64(len(accs)) * 1000 / float64(inst)
	if math.Abs(refsPerK-p.MemRefsPerKInst)/p.MemRefsPerKInst > 0.02 {
		t.Errorf("refs/kinst = %.1f, want ~%.1f", refsPerK, p.MemRefsPerKInst)
	}
}

func TestProfileStoreFraction(t *testing.T) {
	p, err := ByName("swim")
	if err != nil {
		t.Fatal(err)
	}
	accs := p.Trace(30000)
	stores := 0
	for _, a := range accs {
		if a.Kind == mem.Store {
			stores++
		}
	}
	got := float64(stores) / float64(len(accs))
	if math.Abs(got-p.StoreFrac) > 0.02 {
		t.Errorf("store fraction %.3f, want ~%.2f", got, p.StoreFrac)
	}
}

func TestAllProfilesValidate(t *testing.T) {
	for _, name := range append(append([]string{}, MainNames...), InsensitiveNames...) {
		p, err := ByName(name)
		if err != nil {
			t.Fatalf("missing profile %s: %v", name, err)
		}
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		// Streams must produce accesses inside the profile's 64MB
		// region window; instruction fetches appear at roughly the
		// profile's L1I miss rate.
		ifetches := 0
		accs := p.Trace(20000)
		for i, a := range accs {
			if a.Line() < p.BaseLine || a.Line() >= p.BaseLine+mem.LineAddr(MB(64)) {
				t.Fatalf("%s access %d outside region window: %v", name, i, a.Line())
			}
			if a.Kind == mem.IFetch {
				ifetches++
			}
		}
		inst := trace.CountInstructions(accs)
		wantIF := float64(inst) * p.L1IMPKI / 1000
		if wantIF > 50 && math.Abs(float64(ifetches)-wantIF)/wantIF > 0.2 {
			t.Errorf("%s: %d ifetches, want ~%.0f", name, ifetches, wantIF)
		}
	}
}

func TestMainAndInsensitiveLists(t *testing.T) {
	if got := len(Main()); got != 16 {
		t.Errorf("Main returned %d profiles", got)
	}
	if got := len(Insensitive()); got != 11 {
		t.Errorf("Insensitive returned %d profiles", got)
	}
	if Main()[0].Name != "art" || Main()[15].Name != "health" {
		t.Error("Main order wrong")
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("nope"); err == nil {
		t.Error("expected error for unknown benchmark")
	}
}

func TestNamesSorted(t *testing.T) {
	names := Names()
	if len(names) != 27 {
		t.Errorf("registry has %d profiles, want 27", len(names))
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Errorf("Names not sorted: %q >= %q", names[i-1], names[i])
		}
	}
}

func TestRegionsDoNotOverlap(t *testing.T) {
	// Profiles occupy disjoint 64MB windows.
	type span struct {
		name string
		lo   mem.LineAddr
	}
	var spans []span
	for _, n := range Names() {
		p, _ := ByName(n)
		spans = append(spans, span{n, p.BaseLine})
	}
	for i := range spans {
		for j := i + 1; j < len(spans); j++ {
			if spans[i].lo == spans[j].lo {
				t.Errorf("%s and %s share a base region", spans[i].name, spans[j].name)
			}
		}
	}
}

func TestTwoPhasePattern(t *testing.T) {
	spec := TwoPhaseSpec{Lines: 1000, GapShortLines: 100, GapLongLines: 400, LongFrac: 0.5}
	v := spec.build(3, 0)
	oneWord, fullWord := 0, 0
	for i := 0; i < 2000; i++ {
		vis := v.next()
		switch len(vis.words) {
		case 1:
			oneWord++
		case mem.WordsPerLine:
			fullWord++
		default:
			t.Fatalf("visit with %d words", len(vis.words))
		}
		if vis.line >= mem.LineAddr(spec.Lines) {
			t.Fatalf("visit outside region: %v", vis.line)
		}
	}
	if oneWord != fullWord {
		t.Errorf("phases unbalanced: %d one-word vs %d full", oneWord, fullWord)
	}
}

func TestScanWraps(t *testing.T) {
	spec := ScanSpec{Lines: 10, Words: SingleCount(1)}
	v := spec.build(1, 100)
	seen := map[mem.LineAddr]int{}
	for i := 0; i < 30; i++ {
		seen[v.next().line]++
	}
	if len(seen) != 10 {
		t.Errorf("scan covered %d distinct lines, want 10", len(seen))
	}
	//ldis:nondet-ok per-entry assertions; no output depends on iteration order
	for l, c := range seen {
		if c != 3 {
			t.Errorf("line %v visited %d times, want 3", l, c)
		}
	}
}

func TestTierVisitorRespectsTierSizes(t *testing.T) {
	spec := TierSpec{
		Tiers: []Tier{{Frac: 0.8, Lines: 10}, {Frac: 0.2, Lines: 1000}},
		Words: SingleCount(1),
	}
	v := spec.build(9, 0)
	inHot := 0
	const n = 10000
	for i := 0; i < n; i++ {
		if v.next().line < 10 {
			inHot++
		}
	}
	// Hot tier gets its 80% plus the ~1% of cold picks landing there.
	frac := float64(inHot) / n
	if frac < 0.75 || frac > 0.87 {
		t.Errorf("hot tier fraction %.3f, want ~0.8", frac)
	}
}

func TestValidateSpecErrors(t *testing.T) {
	bad := []VisitorSpec{
		TierSpec{},
		TierSpec{Tiers: []Tier{{Frac: 1, Lines: 0}}},
		ScanSpec{},
		TwoPhaseSpec{},
		TwoPhaseSpec{Lines: 10, GapShortLines: -1},
		MixSpec{},
		MixSpec{Components: []Component{{Frac: 1, Spec: ScanSpec{}}}},
	}
	for i, s := range bad {
		if err := validateSpec(s); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}

	// Weights and fractions must be finite and non-negative; the error
	// names the spec, the field and the index.
	scan := func(w ...float64) ScanSpec { return ScanSpec{Lines: 10, Words: Counts(w...)} }
	tiers := func(fracs ...float64) TierSpec {
		s := TierSpec{Words: UniformWords()}
		for _, f := range fracs {
			s.Tiers = append(s.Tiers, Tier{Frac: f, Lines: 10})
		}
		return s
	}
	mix := func(fracs ...float64) MixSpec {
		var s MixSpec
		for _, f := range fracs {
			s.Components = append(s.Components, Component{Frac: f, Spec: scan(1)})
		}
		return s
	}
	nan, inf := math.NaN(), math.Inf(1)
	weightCases := []struct {
		spec  VisitorSpec
		want  SpecError
		isNaN bool
	}{
		{scan(1, -0.5), SpecError{"ScanSpec", "Words.Weights", 1, -0.5}, false},
		{scan(1, 1, nan), SpecError{"ScanSpec", "Words.Weights", 2, 0}, true},
		{scan(inf), SpecError{"ScanSpec", "Words.Weights", 0, inf}, false},
		{TierSpec{Tiers: []Tier{{Frac: 1, Lines: 10}}, Words: Counts(0, 0, 0, -inf)},
			SpecError{"TierSpec", "Words.Weights", 3, -inf}, false},
		{tiers(0.5, -0.1), SpecError{"TierSpec", "Tiers.Frac", 1, -0.1}, false},
		{tiers(nan), SpecError{"TierSpec", "Tiers.Frac", 0, 0}, true},
		{tiers(0.2, 0.3, inf), SpecError{"TierSpec", "Tiers.Frac", 2, inf}, false},
		{mix(-1), SpecError{"MixSpec", "Components.Frac", 0, -1}, false},
		{mix(0.5, nan), SpecError{"MixSpec", "Components.Frac", 1, 0}, true},
		{mix(0.5, -inf), SpecError{"MixSpec", "Components.Frac", 1, -inf}, false},
		{MixSpec{Components: []Component{{Frac: 1, Spec: scan(1, -1)}}},
			SpecError{"ScanSpec", "Words.Weights", 1, -1}, false},
	}
	for i, c := range weightCases {
		err := validateSpec(c.spec)
		var se *SpecError
		if !errors.As(err, &se) {
			t.Errorf("weight case %d: got %v, want a *SpecError", i, err)
			continue
		}
		got := *se
		if c.isNaN {
			if !math.IsNaN(got.Value) {
				t.Errorf("weight case %d: value %v, want NaN", i, got.Value)
			}
			got.Value = 0
		}
		if got != c.want {
			t.Errorf("weight case %d: got %+v, want %+v", i, got, c.want)
		}
		if !strings.Contains(err.Error(), c.want.Spec) || !strings.Contains(err.Error(), c.want.Field) {
			t.Errorf("weight case %d: message %q does not name the spec and field", i, err)
		}
	}
	// The structured error survives Profile.Validate's wrapping.
	p := &Profile{Name: "neg", Pattern: scan(1, -0.5), MemRefsPerKInst: 100}
	var se *SpecError
	if err := p.Validate(); !errors.As(err, &se) || *se != weightCases[0].want {
		t.Errorf("Profile.Validate: got %v, want a wrapped %+v", err, weightCases[0].want)
	}
	// Zero weights and fractions stay legal: all-zero word weights
	// mean full lines, and a zero fraction is a component never chosen.
	for i, s := range []VisitorSpec{scan(), tiers(0, 1), mix(0, 1)} {
		if err := validateSpec(s); err != nil {
			t.Errorf("zero case %d: %v", i, err)
		}
	}
}

// TestProfileValidateCPURates covers the rate fields (the access mix
// and those only the CPU timing model reads): each bad value, NaN and
// infinities included, must be rejected, and every bundled profile
// must stay valid under any seed.
func TestProfileValidateCPURates(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Profile)
	}{
		{"NaN MLP", func(p *Profile) { p.MLP = math.NaN() }},
		{"negative BaseCPI", func(p *Profile) { p.BaseCPI = -0.1 }},
		{"NaN BaseCPI", func(p *Profile) { p.BaseCPI = math.NaN() }},
		{"infinite BaseCPI", func(p *Profile) { p.BaseCPI = math.Inf(1) }},
		{"negative BranchPerKInst", func(p *Profile) { p.BranchPerKInst = -1 }},
		{"BranchPerKInst above 1k", func(p *Profile) { p.BranchPerKInst = 1e12 }},
		{"NaN BranchPerKInst", func(p *Profile) { p.BranchPerKInst = math.NaN() }},
		{"negative MispredictRate", func(p *Profile) { p.MispredictRate = -0.01 }},
		{"MispredictRate above one", func(p *Profile) { p.MispredictRate = 1.5 }},
		{"NaN MispredictRate", func(p *Profile) { p.MispredictRate = math.NaN() }},
		{"zero MemRefsPerKInst", func(p *Profile) { p.MemRefsPerKInst = 0 }},
		{"NaN MemRefsPerKInst", func(p *Profile) { p.MemRefsPerKInst = math.NaN() }},
		{"infinite MemRefsPerKInst", func(p *Profile) { p.MemRefsPerKInst = math.Inf(1) }},
		{"negative StoreFrac", func(p *Profile) { p.StoreFrac = -0.1 }},
		{"StoreFrac above one", func(p *Profile) { p.StoreFrac = 1.5 }},
		{"NaN StoreFrac", func(p *Profile) { p.StoreFrac = math.NaN() }},
		{"negative L1IMPKI", func(p *Profile) { p.L1IMPKI = -1 }},
		{"NaN L1IMPKI", func(p *Profile) { p.L1IMPKI = math.NaN() }},
		{"infinite L1IMPKI", func(p *Profile) { p.L1IMPKI = math.Inf(1) }},
	}
	base, err := ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		p := *base
		c.mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: Validate accepted it", c.name)
		}
	}
	for _, name := range Names() {
		p, _ := ByName(name)
		for _, seed := range []uint64{0, 1, 5, 0x9e3779b97f4a7c15, ^uint64(0)} {
			cp := *p
			cp.Seed ^= seed
			if err := cp.Validate(); err != nil {
				t.Errorf("%s seed %#x: %v", name, cp.Seed, err)
			}
		}
	}
}

func TestProfileValuesDeterministic(t *testing.T) {
	p, _ := ByName("mcf")
	a, b := p.Values(), p.Values()
	for i := 0; i < 100; i++ {
		if a.Word32(mem.Addr(i*4)) != b.Word32(mem.Addr(i*4)) {
			t.Fatal("Values model not deterministic")
		}
	}
}
