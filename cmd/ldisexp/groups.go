package main

import (
	"fmt"
	"sort"
	"strings"

	"ldis/internal/exp"
)

// Grouped experiment flags: each experiment that declares knobs
// (exp.Knobs) gets one flag named after it holding comma-separated
// key=value items, e.g. -mrc rate=0.2,max-samples=8192, so a new knob
// needs no edit here. The parser mirrors exp.Options.Validate's
// collect-everything style: it reports every unknown key, malformed
// item, duplicate, and empty or bad value in one pass instead of
// stopping at the first.

// group is one grouped flag: an experiment id and its knobs by key.
type group struct {
	name string
	keys map[string]exp.Knob
}

// knobGroups returns one group per experiment with knobs, in
// experiment id order.
func knobGroups() []group {
	var gs []group
	for _, k := range exp.Knobs() {
		if len(gs) == 0 || gs[len(gs)-1].name != k.Exp {
			gs = append(gs, group{name: k.Exp, keys: map[string]exp.Knob{}})
		}
		gs[len(gs)-1].keys[k.Key] = k
	}
	return gs
}

// usage renders the group's key=value vocabulary for the flag help.
func (g group) usage() string {
	names := make([]string, 0, len(g.keys))
	for k := range g.keys {
		names = append(names, k)
	}
	sort.Strings(names)
	parts := make([]string, len(names))
	for i, k := range names {
		parts[i] = k + "=" + g.keys[k].Syntax
	}
	return strings.Join(parts, ",")
}

// apply parses spec ("k=v[,k=v...]", empty = all defaults) into o,
// returning one problem string per defect — never a partial success
// hidden behind the first error.
func (g group) apply(o *exp.Options, spec string) []string {
	var problems []string
	if spec == "" {
		return nil
	}
	seen := make(map[string]bool)
	for _, item := range strings.Split(spec, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			problems = append(problems, fmt.Sprintf("-%s: empty item (stray comma?)", g.name))
			continue
		}
		k, v, ok := strings.Cut(item, "=")
		if !ok {
			problems = append(problems, fmt.Sprintf("-%s: %q is not key=value", g.name, item))
			continue
		}
		key, known := g.keys[k]
		if !known {
			problems = append(problems, fmt.Sprintf("-%s: unknown key %q (valid: %s)", g.name, k, g.usage()))
			continue
		}
		if seen[k] {
			problems = append(problems, fmt.Sprintf("-%s: duplicate key %q", g.name, k))
			continue
		}
		seen[k] = true
		if err := o.SetKnob(key.Name, v); err != nil {
			problems = append(problems, fmt.Sprintf("-%s: %s: %v", g.name, k, err))
		}
	}
	return problems
}
