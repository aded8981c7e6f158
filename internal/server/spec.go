package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"regexp"
	"strings"

	"ldis/internal/exp"
	"ldis/internal/workload"
)

// Spec is one job request: which analysis to run and at what scale.
// The zero value is invalid — a spec must name at least one registered
// experiment (kind "exp", the default) or an uploaded trace (kind
// "tracesim"). Everything else defaults server-side, and the server's
// admission caps (accesses, experiment count) bound what a single
// request can cost.
type Spec struct {
	// Kind selects the job type: "exp" (default) runs registered
	// experiments over the synthetic benchmarks; "tracesim" replays an
	// uploaded trace through one cache organization.
	Kind string `json:"kind,omitempty"`

	// Experiments are the registered experiment ids to run (kind exp).
	Experiments []string `json:"experiments,omitempty"`
	// Accesses per benchmark per configuration; 0 means the server
	// default. Capped by the server's MaxAccesses admission limit.
	Accesses int `json:"accesses,omitempty"`
	// WarmupFrac is the fraction of accesses excluded from measurement.
	WarmupFrac float64 `json:"warmup_frac,omitempty"`
	// Benchmarks restricts the run to a benchmark subset (default: the
	// paper's 16).
	Benchmarks []string `json:"benchmarks,omitempty"`
	// KeepGoing runs every cell to completion instead of aborting at
	// the first failure; failed cells land in the job's failure table.
	KeepGoing bool `json:"keep_going,omitempty"`
	// Retries gives each failing cell extra attempts (transient-fault
	// absorption); capped at MaxRetries.
	Retries int `json:"retries,omitempty"`
	// Format renders result tables as "text" (default), "csv", or
	// "markdown".
	Format string `json:"format,omitempty"`

	// MRC knobs, passed to the mrc experiment by knob name; 0 means default.
	MRCRate       float64 `json:"mrc_sample_rate,omitempty"`
	MRCResolution int     `json:"mrc_resolution,omitempty"`
	MRCMaxBytes   int     `json:"mrc_max_bytes,omitempty"`

	// FaultSeed deterministically panics a seeded subset of cells via
	// internal/faultinject — the chaos-testing hook. Excluded from the
	// job's work fingerprint, so a faulted job's checkpoint resumes
	// under a clean respin of the same spec.
	FaultSeed uint64 `json:"fault_seed,omitempty"`

	// Trace is the id of an uploaded trace (kind tracesim).
	Trace string `json:"trace,omitempty"`
	// Cache is the configuration key of the organization a tracesim
	// replays through, one of exp.Keys (default "ldis-mt-rc-2"). A
	// trace has no profile, so the machine is built for
	// ldis.DefaultBenchmark.
	Cache string `json:"cache,omitempty"`
}

// MaxRetries caps per-cell retry attempts a spec may request.
const MaxRetries = 5

// MaxExperiments caps how many experiment ids one job may name.
const MaxExperiments = 8

// SpecError is one diagnosed problem with a job spec, mirroring
// exp.OptionError so clients get the complete problem list in one
// response instead of fixing fields one round-trip at a time.
type SpecError struct {
	Field string
	Msg   string
}

func (e *SpecError) Error() string { return "spec: " + e.Field + ": " + e.Msg }

// DecodeSpec reads one JSON job spec from r. It is strict: unknown
// fields, malformed JSON, trailing garbage, and empty bodies are all
// errors — a hardened decoder, fuzzed to never panic on hostile input.
// Semantic checks live in Validate; DecodeSpec only guarantees the
// bytes parsed to exactly one well-formed Spec.
func DecodeSpec(r io.Reader) (*Spec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		if errors.Is(err, io.EOF) {
			return nil, errors.New("spec: empty body")
		}
		return nil, fmt.Errorf("spec: %w", err)
	}
	// Exactly one JSON value: trailing bytes mean a second document or
	// garbage, both grounds for rejection at the door.
	if dec.More() {
		return nil, errors.New("spec: trailing data after job spec")
	}
	return &s, nil
}

// traceIDPattern is the only shape a trace id may take — the
// content-derived name the upload endpoint assigns. Anything else
// (path separators, dots) is rejected before it reaches the
// filesystem.
var traceIDPattern = regexp.MustCompile(`^t[0-9a-f]{16}$`)

// jobIDPattern is the shape of job ids in URLs.
var jobIDPattern = regexp.MustCompile(`^j[0-9a-f]{16}$`)

// Validate checks the spec against the server's admission limits and
// normalizes defaults in place. It returns nil or an errors.Join of
// *SpecError values — every problem found, never just the first.
func (s *Spec) Validate(cfg *Config) error {
	var problems []error
	seen := map[string]bool{}
	bad := func(field, format string, args ...any) {
		seen[field] = true
		problems = append(problems, &SpecError{Field: field, Msg: fmt.Sprintf(format, args...)})
	}
	switch s.Kind {
	case "":
		s.Kind = "exp"
	case "exp", "tracesim":
	default:
		bad("kind", "unknown kind %q (want \"exp\" or \"tracesim\")", s.Kind)
	}
	if s.Accesses == 0 {
		s.Accesses = cfg.DefaultAccesses
	}
	if s.Accesses < 0 {
		bad("accesses", "must be positive, got %d", s.Accesses)
	} else if s.Accesses > cfg.MaxAccesses {
		bad("accesses", "%d exceeds the admission cap %d", s.Accesses, cfg.MaxAccesses)
	}
	if s.WarmupFrac < 0 || s.WarmupFrac >= 1 {
		bad("warmup_frac", "%v out of [0,1)", s.WarmupFrac)
	}
	if s.Retries < 0 || s.Retries > MaxRetries {
		bad("retries", "must be in [0,%d], got %d", MaxRetries, s.Retries)
	}
	switch s.Format {
	case "":
		s.Format = "text"
	case "text", "csv", "markdown":
	default:
		bad("format", "unknown format %q (want text, csv, or markdown)", s.Format)
	}
	for _, b := range s.Benchmarks {
		if _, err := workload.ByName(b); err != nil {
			bad("benchmarks", "%v", err)
		}
	}

	switch s.Kind {
	case "exp":
		if len(s.Experiments) == 0 {
			bad("experiments", "at least one experiment id required; see GET /v1/experiments")
		}
		if len(s.Experiments) > MaxExperiments {
			bad("experiments", "%d ids exceed the per-job cap %d", len(s.Experiments), MaxExperiments)
		}
		for _, id := range s.Experiments {
			if _, ok := exp.About(id); !ok {
				bad("experiments", "unknown experiment %q; see GET /v1/experiments", id)
			}
		}
		if s.Trace != "" {
			bad("trace", "only valid with kind tracesim")
		}
	case "tracesim":
		if s.Trace == "" {
			bad("trace", "tracesim requires the id of an uploaded trace")
		} else if !traceIDPattern.MatchString(s.Trace) {
			bad("trace", "malformed trace id %q", s.Trace)
		}
		if s.Cache == "" {
			s.Cache = "ldis-mt-rc-2"
		} else if err := exp.CheckKey(s.Cache); err != nil {
			bad("cache", "%v", err)
		}
		if len(s.Experiments) > 0 {
			bad("experiments", "only valid with kind exp")
		}
	}

	// The engine's option check is the one authority on the knobs a
	// spec passes through (the MRC curve geometry): a spec it would
	// refuse is refused here, on the matching JSON field, instead of
	// failing later as a job. Every problem names its manifest field,
	// which is the JSON field. Fields diagnosed above and the engine's
	// benchmark-name errors are not repeated.
	o := s.expOptions(cfg)
	if errs, ok := o.Validate().(interface{ Unwrap() []error }); ok {
		for _, e := range errs.Unwrap() {
			oe, ok := e.(*exp.OptionError)
			if !ok {
				continue
			}
			if !seen[oe.Field] {
				bad(oe.Field, "%s", oe.Msg)
			}
		}
	}
	return errors.Join(problems...)
}

// expOptions builds the experiment-engine options a spec asks for:
// Validate checks them, and exp-kind jobs run with them. Scheduling
// knobs (cell workers) come from the server config, not the request —
// clients size the work, the operator sizes the parallelism.
func (s *Spec) expOptions(cfg *Config) exp.Options {
	o := exp.DefaultOptions()
	o.Accesses = s.Accesses
	if s.WarmupFrac > 0 {
		o.WarmupFrac = s.WarmupFrac
	}
	o.Benchmarks = s.Benchmarks
	o.Parallel = cfg.CellWorkers
	o.KeepGoing = s.KeepGoing
	o.Retries = s.Retries
	o.FaultSeed = s.FaultSeed
	for name, v := range map[string]any{
		"mrc_sample_rate": s.MRCRate, "mrc_resolution": s.MRCResolution, "mrc_max_bytes": s.MRCMaxBytes,
	} {
		// Every number prints in a form SetKnob parses, so only an
		// unregistered knob name, a bug, can fail here.
		if err := o.SetKnob(name, fmt.Sprint(v)); err != nil {
			panic(err)
		}
	}
	return o
}

// fnvHex is the content-hash used for job and trace ids: FNV-1a,
// rendered as 16 hex digits.
func fnvHex(data []byte) string {
	h := uint64(14695981039346656037)
	for _, b := range data {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return fmt.Sprintf("%016x", h)
}

// canonical renders the spec's identity fields in a fixed order. Two
// requests with the same canonical string are the same job: submission
// is idempotent on it.
func (s *Spec) canonical() string {
	var b strings.Builder
	fmt.Fprintf(&b, "kind=%s|exps=%s|acc=%d|warm=%g|bench=%s|keep=%v|retries=%d|fmt=%s",
		s.Kind, strings.Join(s.Experiments, ","), s.Accesses, s.WarmupFrac,
		strings.Join(s.Benchmarks, ","), s.KeepGoing, s.Retries, s.Format)
	fmt.Fprintf(&b, "|mrc=%g/%d/%d|fault=%d|trace=%s|cache=%s",
		s.MRCRate, s.MRCResolution, s.MRCMaxBytes, s.FaultSeed, s.Trace, s.Cache)
	return b.String()
}

// ID derives the job id from the full spec, chaos knobs included: a
// faulted submission and its clean respin are distinct jobs.
func (s *Spec) ID() string { return "j" + fnvHex([]byte(s.canonical())) }

// workKey derives the job's work-directory key from the
// result-relevant fields only. FaultSeed and Retries are resilience
// knobs that cannot change what a cell computes (mirroring
// exp.Options.Fingerprint), so a faulted job and its clean respin
// share a directory — and therefore a checkpoint, which is what makes
// kill-mid-sweep recovery resume instead of restart.
func (s *Spec) workKey() string {
	var b strings.Builder
	fmt.Fprintf(&b, "kind=%s|exps=%s|acc=%d|warm=%g|bench=%s|keep=%v|fmt=%s",
		s.Kind, strings.Join(s.Experiments, ","), s.Accesses, s.WarmupFrac,
		strings.Join(s.Benchmarks, ","), s.KeepGoing, s.Format)
	fmt.Fprintf(&b, "|mrc=%g/%d/%d|trace=%s|cache=%s",
		s.MRCRate, s.MRCResolution, s.MRCMaxBytes, s.Trace, s.Cache)
	return "w" + fnvHex([]byte(b.String()))
}
