package main

import (
	"strings"
	"testing"

	"ldis/internal/exp"
)

// groupNamed returns the grouped flag of one experiment.
func groupNamed(t *testing.T, name string) group {
	t.Helper()
	for _, g := range knobGroups() {
		if g.name == name {
			return g
		}
	}
	t.Fatalf("no -%s flag group", name)
	return group{}
}

// TestGroupApply pins the grouped-flag parser: every defect class —
// unknown key, malformed item, duplicate key, empty or bad value — is
// reported (all of them, not just the first), and valid specs land in
// the right exp.Options fields.
func TestGroupApply(t *testing.T) {
	cases := []struct {
		name  string
		group string
		spec  string
		// wantProblems: substrings that must each appear in the joined
		// problem list.
		wantProblems []string
		// minProblems: least number of distinct problems expected (0 =
		// exactly len(wantProblems) defects need not be distinct).
		minProblems int
		check       func(t *testing.T, o exp.Options)
	}{
		{
			name:  "empty spec is all defaults",
			group: "mrc",
			spec:  "",
		},
		{
			name:  "mrc full set",
			group: "mrc",
			spec:  "rate=0.2,max-samples=8192,resolution=131072,max=2097152",
			check: func(t *testing.T, o exp.Options) {
				if o.MRC != (exp.MRCParams{SampleRate: 0.2, MaxSamples: 8192, Resolution: 131072, MaxBytes: 2097152}) {
					t.Errorf("mrc knobs not applied: %+v", o)
				}
			},
		},
		{
			name:  "unknown key lists the vocabulary",
			group: "mrc",
			spec:  "rte=0.2",
			wantProblems: []string{
				`unknown key "rte"`, "max-samples=",
			},
		},
		{
			name:  "bad value",
			group: "mrc",
			spec:  "rate=fast",
			wantProblems: []string{
				`bad value "fast"`,
			},
		},
		{
			name:  "duplicate key",
			group: "mrc",
			spec:  "rate=0.1,rate=0.2",
			wantProblems: []string{
				`duplicate key "rate"`,
			},
		},
		{
			name:  "missing equals",
			group: "mrc",
			spec:  "rate",
			wantProblems: []string{
				`"rate" is not key=value`,
			},
		},
		{
			name:  "stray comma",
			group: "mrc",
			spec:  "rate=0.1,,max=65536",
			wantProblems: []string{
				"empty item",
			},
		},
		{
			name:  "every defect reported at once",
			group: "mrc",
			spec:  "rte=1,rate=x,max=64,max=65",
			wantProblems: []string{
				`unknown key "rte"`, `bad value "x"`, `duplicate key "max"`,
			},
			minProblems: 3,
		},
		{
			name:  "partition tenants split on plus",
			group: "partition",
			spec:  "tenants=twolf+mcf+art,policy=ucp,epoch=6000",
			check: func(t *testing.T, o exp.Options) {
				p := o.Partition
				if len(p.Tenants) != 3 || p.Tenants[0] != "twolf" || p.Tenants[2] != "art" {
					t.Errorf("tenants not split: %v", p.Tenants)
				}
				if p.Policy != "ucp" || p.Epoch != 6000 {
					t.Errorf("partition knobs not applied: %+v", o)
				}
			},
		},
		{
			name:  "partition empty tenants",
			group: "partition",
			spec:  "tenants=",
			wantProblems: []string{
				`bad value "": want <bench+bench...>`,
			},
		},
		{
			name:  "partition empty policy",
			group: "partition",
			spec:  "policy=",
			wantProblems: []string{
				`policy: bad value "": want static|ucp|ldis`,
			},
		},
		{
			name:  "orgs knobs",
			group: "orgs",
			spec:  "touche-sb-lines=8,copyback-max-reuse=65536,waymemo-entries=16",
			check: func(t *testing.T, o exp.Options) {
				if o.Orgs != (exp.OrgsParams{ToucheSBLines: 8, CopyBackMaxReuse: 65536, WayMemoEntries: 16}) {
					t.Errorf("orgs knobs not applied: %+v", o)
				}
			},
		},
		{
			name:  "orgs float where int expected",
			group: "orgs",
			spec:  "waymemo-entries=4.5",
			wantProblems: []string{
				`bad value "4.5": want <pow2>`,
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var o exp.Options
			problems := groupNamed(t, tc.group).apply(&o, tc.spec)
			if len(tc.wantProblems) == 0 && len(problems) > 0 {
				t.Fatalf("unexpected problems: %v", problems)
			}
			joined := strings.Join(problems, "\n")
			for _, want := range tc.wantProblems {
				if !strings.Contains(joined, want) {
					t.Errorf("problems %q missing %q", joined, want)
				}
			}
			if len(problems) < tc.minProblems {
				t.Errorf("got %d problems, want at least %d: %v", len(problems), tc.minProblems, problems)
			}
			if tc.check != nil {
				tc.check(t, o)
			}
		})
	}
}

// TestGroupUsageDeterministic: the usage string enumerates keys
// sorted, so flag help is stable run to run.
func TestGroupUsageDeterministic(t *testing.T) {
	for _, g := range knobGroups() {
		u := g.usage()
		if u != g.usage() {
			t.Errorf("-%s usage not deterministic", g.name)
		}
		items := strings.Split(u, ",")
		for i := 1; i < len(items); i++ {
			prev, _, _ := strings.Cut(items[i-1], "=")
			cur, _, _ := strings.Cut(items[i], "=")
			if prev >= cur {
				t.Errorf("-%s usage keys not sorted: %q", g.name, u)
			}
		}
	}
}

// TestEveryDeclaredKnob drives every knob the experiments declare
// through its ldisexp flag: spelling out the default leaves the
// checkpoint fingerprint unchanged, and a non-default value lands in
// the manifest params and moves the fingerprint. The table pins the
// knob vocabulary itself — flag keys and manifest names — so a knob
// added, renamed or dropped fails here until the table says so.
func TestEveryDeclaredKnob(t *testing.T) {
	// One valid non-default item per knob, keyed by manifest name.
	items := map[string]string{
		"mrc_sample_rate":        "rate=0.2",
		"mrc_max_samples":        "max-samples=8192",
		"mrc_resolution":         "resolution=131072",
		"mrc_max_bytes":          "max=2097152",
		"tenants":                "tenants=twolf+mcf",
		"partition_policy":       "policy=ucp",
		"epoch_accesses":         "epoch=6000",
		"org_touche_sb_lines":    "touche-sb-lines=8",
		"org_copyback_max_reuse": "copyback-max-reuse=65536",
		"org_waymemo_entries":    "waymemo-entries=8",
	}
	knobs := exp.Knobs()
	if len(knobs) != len(items) {
		t.Errorf("%d knobs declared, table has %d", len(knobs), len(items))
	}
	base := exp.Options{Accesses: 1000}
	fp, defaults := base.Fingerprint(), base.ManifestParams()
	for _, k := range knobs {
		t.Run(k.Name, func(t *testing.T) {
			item, ok := items[k.Name]
			if !ok {
				t.Fatalf("knob -%s %s has no table row", k.Exp, k.Key)
			}
			key, val, _ := strings.Cut(item, "=")
			if key != k.Key {
				t.Fatalf("flag key %q, table says %q", k.Key, key)
			}
			g := groupNamed(t, k.Exp)

			// String and list knobs default to empty, which no flag item
			// can spell.
			if def := defaults[k.Name]; def != "" {
				o := base
				if p := g.apply(&o, k.Key+"="+def); len(p) > 0 {
					t.Fatalf("explicit default rejected: %v", p)
				}
				if o.Fingerprint() != fp {
					t.Errorf("explicit default %s=%s changed the fingerprint", k.Key, def)
				}
			}

			o := base
			if p := g.apply(&o, item); len(p) > 0 {
				t.Fatalf("%s rejected: %v", item, p)
			}
			if err := o.Validate(); err != nil {
				t.Fatalf("%s fails validation: %v", item, err)
			}
			if got, want := o.ManifestParams()[k.Name], strings.ReplaceAll(val, "+", ","); got != want {
				t.Errorf("-%s %s: manifest param %s = %q, want %q", k.Exp, item, k.Name, got, want)
			}
			if o.Fingerprint() == fp {
				t.Errorf("-%s %s did not change the fingerprint", k.Exp, item)
			}
		})
	}
}
