package main

import (
	"bytes"
	"strings"
	"testing"

	"ldis/internal/exp"
)

// TestCacheFlagAcceptsExactlyTheKeys: -cache takes every configuration
// key and nothing else. A retired organization name, or any other
// name, exits 2 with an error that lists the keys.
func TestCacheFlagAcceptsExactlyTheKeys(t *testing.T) {
	for _, key := range exp.Keys() {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-cache", key, "-accesses", "2000"}, &stdout, &stderr); code != 0 {
			t.Errorf("-cache %s: exit %d: %s", key, code, stderr.String())
			continue
		}
		if !strings.Contains(stdout.String(), "2000 accesses") {
			t.Errorf("-cache %s: output %q does not report the run", key, stdout.String())
		}
	}
	for _, name := range []string{"baseline", "trad", "distill", "cmpr", "fac", "sfp"} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-cache", name, "-accesses", "2000"}, &stdout, &stderr); code != 2 {
			t.Errorf("-cache %s: exit %d, want 2", name, code)
		}
		for _, key := range exp.Keys() {
			if !strings.Contains(stderr.String(), key) {
				t.Errorf("-cache %s: error %q does not list %s", name, stderr.String(), key)
			}
		}
	}
}

// TestListPrintsTheKeys: -list prints every configuration key.
func TestListPrintsTheKeys(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-list: exit %d: %s", code, stderr.String())
	}
	for _, key := range exp.Keys() {
		if !strings.Contains(stdout.String(), "\n  "+key+"\n") {
			t.Errorf("-list output does not list %s", key)
		}
	}
}
