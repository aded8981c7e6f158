package server

import (
	"bytes"
	"strings"
	"testing"

	"ldis/internal/exp"
)

// FuzzDecodeSpec hammers the job-spec decoder — the first thing ldisd
// does with untrusted bytes — with hostile input. Invariants:
//
//   - DecodeSpec never panics and never returns (nil, nil);
//   - whatever decodes also survives Validate (the semantic pass must
//     tolerate any syntactically valid spec);
//   - a tracesim spec whose cache names no configuration key is
//     refused on the cache field;
//   - accepted specs have stable identities: canonical(), ID(), and
//     workKey() are pure, and a decode → canonical round trip is
//     deterministic.
//
// Run via `make fuzz-smoke`; the seed corpus under
// testdata/fuzz/FuzzDecodeSpec is committed.
func FuzzDecodeSpec(f *testing.F) {
	f.Add(`{"kind":"exp","experiments":["fig6"]}`)
	f.Add(`{"kind":"tracesim","trace":"t0123456789abcdef","cache":"ldis-mt-rc-2"}`)
	f.Add(`{"kind":"exp","experiments":["fig6","table5"],"accesses":60000,"warmup_frac":0.25,` +
		`"benchmarks":["mcf"],"keep_going":true,"retries":2,"format":"csv","fault_seed":7}`)
	f.Add(``)
	f.Add(`{}`)
	f.Add(`null`)
	f.Add(`{"kind":"exp"} trailing`)
	f.Add(`{"unknown_field":true}`)
	f.Add(`{"accesses":1e309}`)
	f.Add(`[1,2,3]`)
	f.Add(strings.Repeat(`{"kind":`, 64))

	cfg := Config{DataDir: "unused"}.withDefaults()
	f.Fuzz(func(t *testing.T, input string) {
		spec, err := DecodeSpec(strings.NewReader(input))
		if err != nil {
			if spec != nil {
				t.Fatalf("error %v with non-nil spec", err)
			}
			return
		}
		if spec == nil {
			t.Fatal("nil spec with nil error")
		}
		// Validate must diagnose, never panic, on any decoded spec; it
		// normalizes in place, so identity is taken afterwards.
		vErr := spec.Validate(&cfg)
		if spec.Kind == "tracesim" && exp.CheckKey(spec.Cache) != nil && !hasFieldError(vErr, "cache") {
			t.Fatalf("unknown cache %q not refused on the cache field: %v", spec.Cache, vErr)
		}
		c1, c2 := spec.canonical(), spec.canonical()
		if c1 != c2 {
			t.Fatalf("canonical not deterministic: %q vs %q", c1, c2)
		}
		if vErr != nil {
			return
		}
		if id := spec.ID(); len(id) != 17 || !jobIDPattern.MatchString(id) {
			t.Fatalf("malformed job id %q from valid spec", id)
		}
		if wk := spec.workKey(); len(wk) != 17 || !bytes.HasPrefix([]byte(wk), []byte("w")) {
			t.Fatalf("malformed work key %q from valid spec", wk)
		}
	})
}

// hasFieldError reports whether a Validate error lists a problem on the
// named field.
func hasFieldError(err error, field string) bool {
	errs, _ := err.(interface{ Unwrap() []error })
	if errs == nil {
		return false
	}
	for _, e := range errs.Unwrap() {
		if se, ok := e.(*SpecError); ok && se.Field == field {
			return true
		}
	}
	return false
}
