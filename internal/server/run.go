package server

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"ldis"
	"ldis/internal/exp"
	"ldis/internal/obs"
	"ldis/internal/stats"
	"ldis/internal/trace"
)

// runExperiments executes an exp-kind job: every requested experiment
// through the engine's cell scheduler, with the job's work directory
// holding the CRC-guarded checkpoint and the per-job manifest. The
// returned retryable flag is true only for failures that an identical
// resubmission can complete (drain abandonment) — cell failures are
// deterministic and rerunning them without change would fail again.
func (s *Server) runExperiments(j *Job) (err error, retryable bool) {
	if mkErr := os.MkdirAll(j.dir, 0o755); mkErr != nil {
		return fmt.Errorf("job workdir: %w", mkErr), true
	}
	o := j.Spec.expOptions(&s.cfg)
	run := obs.NewRun(nil)
	o.Obs = run
	if o.KeepGoing {
		o.Failures = exp.NewFailureLog()
	}
	ck, ckErr := exp.OpenCheckpoint(filepath.Join(j.dir, exp.CheckpointFile), o)
	if ckErr != nil {
		return fmt.Errorf("opening checkpoint: %w", ckErr), false
	}
	defer ck.Close()
	o.Checkpoint = ck
	if n := ck.Loaded(); n > 0 {
		s.logf("job %s req %s: resuming with %d checkpointed cell(s)", j.ID, j.RequestID, n)
	}

	// The manifest is written on every exit path — success, failure,
	// abandonment — so a poller always finds the run's observable
	// state next to its checkpoint.
	defer func() {
		j.setReplayed(ck.Replayed())
		if mErr := s.writeManifest(j, run, o); mErr != nil && err == nil {
			err = mErr
		}
	}()

	for _, id := range j.Spec.Experiments {
		if s.abandoned() {
			return fmt.Errorf("job abandoned at drain deadline before experiment %s (completed cells are checkpointed; resubmit to resume)", id), true
		}
		tables, runErr := exp.Run(id, o)
		if runErr != nil {
			return fmt.Errorf("%s: %w", id, runErr), false
		}
		var out strings.Builder
		for _, t := range tables {
			out.WriteString(renderTable(t, j.Spec.Format))
			out.WriteByte('\n')
		}
		j.appendResult(id, out.String())
	}
	if o.Failures != nil && o.Failures.Len() > 0 {
		j.setFailures(o.Failures.Len())
		return fmt.Errorf("%d cell(s) failed; healthy benchmarks rendered, failures recorded in the manifest", o.Failures.Len()), false
	}
	return nil, false
}

// renderTable applies the job's output format.
func renderTable(t *stats.Table, format string) string {
	switch format {
	case "csv":
		return t.CSV()
	case "markdown":
		return t.Markdown()
	default:
		return t.String()
	}
}

// writeManifest emits the per-job run manifest, request id included,
// and re-reads it through the validating parser so a torn write can
// never masquerade as a result.
func (s *Server) writeManifest(j *Job, run *obs.Run, o exp.Options) error {
	params := o.ManifestParams()
	params["job_id"] = j.ID
	params["request_id"] = j.RequestID
	m := &obs.Manifest{
		Tool:        "ldisd",
		GoVersion:   runtime.Version(),
		Workers:     s.cfg.CellWorkers,
		Fingerprint: o.Fingerprint(),
		Experiments: j.Spec.Experiments,
		Params:      params,
	}
	m.Snapshot(run)
	if o.Failures != nil {
		m.Failures = o.Failures.Manifest()
	}
	path := filepath.Join(j.dir, obs.ManifestFile)
	if err := obs.WriteManifest(path, m); err != nil {
		return err
	}
	if _, err := obs.ReadManifest(path); err != nil {
		return fmt.Errorf("manifest verification: %w", err)
	}
	return nil
}

// runTraceSim replays an uploaded trace through one cache
// organization, streaming the decode so replay memory stays flat in
// the trace length. Mid-replay corruption is a structured failure,
// never a silent short result.
func (s *Server) runTraceSim(j *Job) error {
	path := s.tracePath(j.Spec.Trace)
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return fmt.Errorf("trace %s not found; upload it first via POST /v1/traces", j.Spec.Trace)
		}
		return err
	}
	defer f.Close()
	br, err := trace.NewBatchReader(f)
	if err != nil {
		return fmt.Errorf("trace %s: %w", j.Spec.Trace, err)
	}
	reg := ldis.NewObserver()
	sim, err := ldis.New(j.Spec.Cache, ldis.DefaultBenchmark, reg)
	if err != nil {
		return err
	}
	n := j.Spec.Accesses
	if c := br.Count(); uint64(n) > c {
		n = int(c)
	}
	res := sim.RunStream(j.Spec.Trace, br, n)
	if cerr := br.Err(); cerr != nil {
		return fmt.Errorf("trace %s corrupt mid-replay: %w", j.Spec.Trace, cerr)
	}
	var out strings.Builder
	fmt.Fprintf(&out, "trace %s via %s\n%s\n", j.Spec.Trace, j.Spec.Cache, res)
	if ds := sim.DistillStats(); ds != nil {
		fmt.Fprintf(&out, "distilled=%d threshold-skips=%d woc-evictions=%d mode-switches=%d writebacks=%d\n",
			ds.Distilled, ds.ThresholdSkips, ds.WOCEvictions, ds.ModeSwitches, ds.Writebacks)
	}
	j.appendResult("tracesim", out.String())

	if err := os.MkdirAll(j.dir, 0o755); err != nil {
		return err
	}
	m := &obs.Manifest{
		Version:     obs.ManifestVersion,
		Tool:        "ldisd",
		GoVersion:   runtime.Version(),
		Experiments: []string{"tracesim"},
		Params: map[string]string{
			"job_id": j.ID, "request_id": j.RequestID,
			"trace": j.Spec.Trace, "cache": j.Spec.Cache, "benchmark": ldis.DefaultBenchmark,
			"accesses": fmt.Sprint(n),
		},
		Metrics: reg.Snapshot(),
	}
	return obs.WriteManifest(filepath.Join(j.dir, obs.ManifestFile), m)
}

// tracePath maps a validated trace id onto its storage path.
func (s *Server) tracePath(id string) string {
	return filepath.Join(s.cfg.DataDir, "traces", id+".ldtr")
}
