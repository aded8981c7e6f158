package exp

import (
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"
)

// Knob is one experiment knob. An experiment declares its knobs once,
// in its own file, as rows bound to the fields of its params struct,
// and hands them to registerExp beside its Runner; Validate,
// ManifestParams (and through it Fingerprint), SetKnob and the ldisexp
// grouped flags all read that one declaration.
type Knob struct {
	Exp    string // experiment id, which names the ldisexp flag group ("mrc")
	Key    string // key inside the flag group ("rate")
	Name   string // manifest param, ldisd JSON field and OptionError.Field ("mrc_sample_rate")
	Syntax string // value syntax for usage text and parse errors ("<0..1>")

	ptr   any          // the params field: *int, *float64, *string or *[]string
	def   any          // what a zero *int or *float64 field means
	check func() error // range check, run after defaults are filled
}

// knobs binds every declared knob to o's params fields: experiments in
// id order, each experiment's knobs in declaration order.
func (o *Options) knobs() []Knob {
	var ks []Knob
	for _, id := range IDs() {
		declare := experiments[id].knobs
		if declare == nil {
			continue
		}
		for _, k := range declare(o) {
			k.Exp = id
			ks = append(ks, k)
		}
	}
	return ks
}

// Knobs lists every declared experiment knob, in the order Validate
// checks them.
func Knobs() []Knob { return new(Options).knobs() }

// withKnobDefaults returns o with every zero numeric knob set to its
// declared default.
func (o Options) withKnobDefaults() Options {
	for _, k := range o.knobs() {
		switch p := k.ptr.(type) {
		case *int:
			if *p == 0 {
				*p = k.def.(int)
			}
		case *float64:
			if *p == 0 {
				*p = k.def.(float64)
			}
		}
	}
	return o
}

// value renders the knob's field as the manifest records it.
func (k Knob) value() string {
	switch p := k.ptr.(type) {
	case *string:
		return *p
	case *[]string:
		return strings.Join(*p, ",")
	case *int:
		return fmt.Sprint(*p)
	}
	return fmt.Sprint(*k.ptr.(*float64))
}

// SetKnob sets the knob with the given manifest name from text: a
// number, a name, or a list joined with "+". Zero selects the knob's
// default; empty or malformed text is an error, and range checks are
// left to Validate.
func (o *Options) SetKnob(name, text string) error {
	for _, k := range o.knobs() {
		if k.Name != name {
			continue
		}
		var err error
		switch p := k.ptr.(type) {
		case *int:
			*p, err = strconv.Atoi(text)
		case *float64:
			*p, err = strconv.ParseFloat(text, 64)
		case *string:
			*p = text
		case *[]string:
			*p = strings.Split(text, "+")
		}
		if err != nil || text == "" {
			return fmt.Errorf("bad value %q: want %s", text, k.Syntax)
		}
		return nil
	}
	return fmt.Errorf("exp: unknown knob %q", name)
}

// ManifestParams returns the result-relevant options as strings, for
// the run manifest's params block: the scale options plus every
// declared knob, defaults filled in. Scheduling knobs stay out — they
// cannot change results.
func (o Options) ManifestParams() map[string]string {
	params := map[string]string{
		"accesses":    fmt.Sprint(o.Accesses),
		"warmup_frac": fmt.Sprint(o.WarmupFrac),
		"benchmarks":  strings.Join(o.benchmarks(), ","),
	}
	d := o.withKnobDefaults()
	for _, k := range d.knobs() {
		params[k.Name] = k.value()
	}
	return params
}

// Fingerprint returns the checkpoint compatibility fingerprint of the
// options: an FNV-1a hash of the ManifestParams, which fmt prints in
// key-sorted order. Exactly the fields that change simulated results
// key a checkpoint, and an explicit default fingerprints like an
// implicit one.
func (o Options) Fingerprint() uint64 {
	h := fnv.New64a()
	fmt.Fprint(h, o.ManifestParams())
	return h.Sum64()
}
