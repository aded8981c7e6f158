package server

import (
	"strings"
	"testing"

	"ldis/internal/exp"
)

// TestSpecCacheAcceptsExactlyTheKeys: a tracesim spec's cache field
// takes every configuration key and nothing else. An empty field
// defaults to ldis-mt-rc-2; a retired organization name, or any other
// name, is refused on the cache field with a message that lists the
// keys.
func TestSpecCacheAcceptsExactlyTheKeys(t *testing.T) {
	cfg := Config{DataDir: "unused"}.withDefaults()
	spec := func(cache string) *Spec {
		return &Spec{Kind: "tracesim", Trace: "t0123456789abcdef", Cache: cache}
	}
	for _, key := range exp.Keys() {
		if err := spec(key).Validate(&cfg); err != nil {
			t.Errorf("cache %q refused: %v", key, err)
		}
	}
	s := spec("")
	if err := s.Validate(&cfg); err != nil || s.Cache != "ldis-mt-rc-2" {
		t.Errorf("empty cache: err %v, normalized to %q; want ldis-mt-rc-2", err, s.Cache)
	}
	for _, name := range []string{"baseline", "trad", "distill", "LDIS-MT-RC"} {
		err := spec(name).Validate(&cfg)
		if !hasFieldError(err, "cache") {
			t.Errorf("cache %q: %v, want a cache field error", name, err)
			continue
		}
		for _, key := range exp.Keys() {
			if !strings.Contains(err.Error(), key) {
				t.Errorf("cache %q: error %q does not list %s", name, err, key)
			}
		}
	}
}
