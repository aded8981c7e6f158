// Command ldbench is the repository's benchmark: it measures the host
// time the simulator takes per simulated access, end to end and layer
// by layer, on four closed-loop workloads (see README.md).
//
//	ldbench -workload sweep|replay|timing|tenants -seed N -seconds S -trace 0|1
//
// The workload's inputs are derived from -seed. Set-up (building the
// inputs plus a short warm-up pass) runs three times and reports its
// median. An untimed reference pass then records each cell's digest on
// its reference path (or, where the timed path is the reference, its
// first timed run gives it). The timed phase runs rounds — every cell
// of the workload once — until -seconds have passed, and checks each
// cell's statistics against its reference. With -trace 1 every other round is
// traced from outside the program and the run reports per-layer
// metrics instead of end-to-end ones. The last line of standard output
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// maxProcs is the number of goroutines allowed to run Go code at once:
// the two cores of the reference machine. Only replay's RunSharded
// pipeline uses more than one goroutine.
const maxProcs = 2

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ldbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	wl := fs.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := fs.Uint64("seed", 0, "input seed; 0 keeps the calibration seeds")
	seconds := fs.Int("seconds", 10, "length of the timed phase in seconds")
	traced := fs.Int("trace", 0, "1 traces every other round and reports per-layer metrics")
	spans := fs.String("spans", ".bench_out", "directory for the traced round's span file (empty: none)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) || fs.NArg() != 0 {
		fmt.Fprintln(stderr, "ldbench: need -seconds >= 1, -trace 0|1 and no positional arguments")
		return 2
	}
	runtime.GOMAXPROCS(maxProcs)
	cfg := config{
		workload:  *wl,
		seed:      *seed,
		seconds:   float64(*seconds),
		traced:    *traced == 1,
		accesses:  cellAccesses,
		setupReps: 3,
	}
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "ldbench:", err)
		return 1
	}
	for _, l := range rep.lines {
		fmt.Fprintln(stdout, "#", l)
	}
	if cfg.traced && *spans != "" && rep.spans != nil {
		path := filepath.Join(*spans, fmt.Sprintf("ldbench-%s-seed%d-spans.json", cfg.workload, cfg.seed))
		if err := writeSpans(path, rep.spans); err != nil {
			fmt.Fprintln(stderr, "ldbench:", err)
			return 1
		}
		fmt.Fprintln(stdout, "# spans of the last traced round:", path)
	}
	line, err := rep.json()
	if err != nil {
		fmt.Fprintln(stderr, "ldbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, line)
	return 0
}

// json renders the result line.
func (r *report) json() (string, error) {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{r.correct, r.attempted, r.failed, map[string]val{}}
	for _, m := range r.metrics {
		out.Metrics[m.name] = val{m.value, m.unit}
	}
	b, err := json.Marshal(out)
	return string(b), err
}

// writeSpans writes a traced round's spans and aggregates as JSON.
func writeSpans(path string, s *spanDump) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(s, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
