package obs

import (
	"encoding/json"
	"fmt"
	"os"
)

// ManifestVersion is bumped whenever the manifest schema changes
// incompatibly; ReadManifest rejects versions it does not understand.
const ManifestVersion = 1

// ManifestFile is the file name written next to experiment output.
const ManifestFile = "manifest.json"

// CellReport is one grid cell's entry in the manifest: its
// coordinates, the config key its column reads, outcome, span
// aggregates, and metric snapshot. A replayed cell was served from the
// run's cell store and carries no spans or metrics.
type CellReport struct {
	Experiment string       `json:"experiment"`
	Benchmark  string       `json:"benchmark"`
	Col        int          `json:"col"`
	Key        string       `json:"key,omitempty"`
	Status     string       `json:"status"`
	Spans      []SpanReport `json:"spans,omitempty"`
	Metrics    []Metric     `json:"metrics,omitempty"`
}

// Failure is one failed cell in the manifest's failure table.
type Failure struct {
	Experiment string `json:"experiment,omitempty"`
	Benchmark  string `json:"benchmark"`
	Col        int    `json:"col"`
	Attempts   int    `json:"attempts"`
	Err        string `json:"error"`
}

// Manifest is the versioned record written next to each experiment
// run: enough to identify what ran (tool, git describe, config
// fingerprint, parameters), what happened (per-cell reports, failure
// table, merged metrics), and how long it took. Every field except
// the ones cleared by StripTimings is a pure function of the
// configuration, so manifests from the same sweep diff clean at any
// worker count.
type Manifest struct {
	Version     int      `json:"version"`
	Tool        string   `json:"tool"`
	GoVersion   string   `json:"go_version,omitempty"`
	GitDescribe string   `json:"git_describe,omitempty"`
	Generated   string   `json:"generated,omitempty"` // RFC3339; timing field
	Workers     int      `json:"workers,omitempty"`   // environment field
	Fingerprint uint64   `json:"fingerprint"`
	Experiments []string `json:"experiments"`

	// Params records the result-relevant option values (accesses,
	// warmup, benchmark subset, mrc knobs) as printable strings.
	Params map[string]string `json:"params,omitempty"`

	Cells    []CellReport   `json:"cells,omitempty"`
	Failures []Failure      `json:"failures,omitempty"`
	Metrics  []Metric       `json:"metrics,omitempty"` // run-level merged snapshot
	Sched    []Metric       `json:"sched,omitempty"`   // scheduler counters
	Progress ProgressReport `json:"progress"`
}

// Snapshot assembles the run's current state into m: cell reports,
// merged metrics, scheduler counters, and progress.
func (m *Manifest) Snapshot(r *Run) {
	m.Version = ManifestVersion
	m.Cells = r.CellReports()
	m.Metrics = r.Registry().Snapshot()
	m.Sched = r.Sched().Snapshot()
	m.Progress = r.Progress().Snapshot()
}

// StripTimings clears every field that legitimately varies between
// runs of the same configuration — timestamps, durations, ETA, worker
// count — leaving only the deterministic skeleton. Two sweeps of the
// same options at different -parallel values must be deeply equal
// after StripTimings; the determinism tests pin exactly that.
func (m *Manifest) StripTimings() {
	m.Generated = ""
	m.Workers = 0
	m.Progress.ElapsedSeconds = 0
	m.Progress.ETASeconds = 0
	for i := range m.Cells {
		for j := range m.Cells[i].Spans {
			m.Cells[i].Spans[j].Nanos = 0
		}
	}
}

// WriteManifest writes m as indented JSON to path.
func WriteManifest(path string, m *Manifest) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("obs: marshal manifest: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("obs: write manifest: %w", err)
	}
	return nil
}

// ReadManifest reads and validates a manifest written by
// WriteManifest. It rejects unknown schema versions and manifests
// missing required identity fields, so round-tripping through it is a
// real integrity check, not just a parse.
func ReadManifest(path string) (*Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("obs: read manifest: %w", err)
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("obs: parse manifest %s: %w", path, err)
	}
	if m.Version != ManifestVersion {
		return nil, fmt.Errorf("obs: manifest %s: unsupported version %d (want %d)", path, m.Version, ManifestVersion)
	}
	if m.Tool == "" {
		return nil, fmt.Errorf("obs: manifest %s: missing tool", path)
	}
	if len(m.Experiments) == 0 {
		return nil, fmt.Errorf("obs: manifest %s: no experiments recorded", path)
	}
	return &m, nil
}
