// Command benchab gives a performance verdict for the working tree
// against a base revision on the repository benchmark (cmd/ldbench,
// declared in BENCHMARK.json). It builds the base revision in a git
// worktree under .bench_build and the working tree, each through the
// unchanged cmd/ldbench/run.sh; refuses to time anything unless both
// sides print the same "# digest" and "correct":true for every
// workload; runs pairs alternating which side goes first, each pair
// refused unless its two runs print the same digest; and prints, for
// every end-to-end metric, both medians, both interquartile ranges, the
// pairs won and a verdict. BENCHMARK.json sets the workloads and each
// run's length; every workload runs 10 pairs, pair i at seed 1+i. The
// run is appended to BENCH_history.json.
//
//	go run ./cmd/benchab -base HEAD~1
//
// -base HEAD measures the working tree against its own commit: an A/A
// run that shows each workload's noise floor on the machine at hand.
// Run it from the repository root (make bench-ab BASE=<rev>).
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

// Each workload runs pairs alternating base/work pairs; pair i runs
// seed seed+i.
const (
	pairs = 10
	seed  = 1
)

// bench is what benchab reads from BENCHMARK.json.
type bench struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metric `json:"end_to_end"`
}

// metric is one BENCHMARK.json end-to-end metric.
type metric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// run is one ldbench invocation's outcome: its digest line and the
// summary on its last line.
type run struct {
	digest  string
	Correct bool `json:"correct"`
	Failed  int  `json:"failed"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// result is one metric's comparison, as printed and recorded.
type result struct {
	Workload   string    `json:"workload"`
	Metric     string    `json:"metric"`
	Unit       string    `json:"unit"`
	Base       []float64 `json:"base"`
	Work       []float64 `json:"work"`
	BaseMedian float64   `json:"base_median"`
	WorkMedian float64   `json:"work_median"`
	BaseIQR    float64   `json:"base_iqr"`
	WorkIQR    float64   `json:"work_iqr"`
	Won        int       `json:"won"`
	Lost       int       `json:"lost"`
	Verdict    string    `json:"verdict"`
}

func main() {
	base := flag.String("base", "", "base revision (required)")
	history := flag.String("history", "BENCH_history.json", "file the run is appended to")
	flag.Parse()
	if *base == "" {
		fmt.Fprintln(os.Stderr, "benchab: -base is required")
		os.Exit(2)
	}
	if err := abRun(*base, *history); err != nil {
		fmt.Fprintln(os.Stderr, "benchab:", err)
		os.Exit(1)
	}
}

func abRun(baseRev, history string) error {
	b, err := readBench("BENCHMARK.json")
	if err != nil {
		return err
	}
	sha, err := git("rev-parse", "--verify", baseRev+"^{commit}")
	if err != nil {
		return err
	}
	head, _ := git("rev-parse", "HEAD")
	dirty, _ := git("status", "--porcelain", "--untracked-files=no")
	baseDir, err := filepath.Abs(filepath.Join(".bench_build", "ab-base-"+sha[:12]))
	if err != nil {
		return err
	}
	if _, err := os.Stat(baseDir); errors.Is(err, fs.ErrNotExist) {
		if _, err := git("worktree", "add", "--detach", baseDir, sha); err != nil {
			return err
		}
	}
	defer git("worktree", "remove", "--force", baseDir)
	sides := [2]string{baseDir, "."}

	// Correctness gate, a 1 s run of each workload on both sides,
	// before anything is timed.
	for _, w := range b.Workloads {
		var pair [2]run
		for i, dir := range sides {
			if pair[i], err = ldbench(dir, w.Name, seed, 1); err != nil {
				return err
			}
		}
		if err := samePair(w.Name, -1, pair); err != nil {
			return err
		}
		fmt.Printf("# %s: digest %s on both sides\n", w.Name, pair[0].digest)
	}

	var results []result
	for _, w := range b.Workloads {
		runs, err := timePairs(w.Name, func(i, seed int) (run, error) {
			return ldbench(sides[i], w.Name, seed, b.RunSeconds)
		})
		if err != nil {
			return err
		}
		for _, m := range b.EndToEnd {
			results = append(results, compare(w.Name, m, values(runs[0], m.Name), values(runs[1], m.Name)))
		}
	}
	printTable(os.Stdout, results)
	return appendHistory(history, map[string]any{
		"time":       time.Now().UTC().Format(time.RFC3339),
		"base":       sha,
		"work":       head,
		"work_dirty": dirty != "",
		"pairs":      pairs,
		"seconds":    b.RunSeconds,
		"seed":       seed,
		"cpus":       runtime.NumCPU(),
		"results":    results,
	})
}

// timePairs runs one workload's pairs through runOne(side, seed), side
// 0 the base and 1 the working tree, alternating which side runs first,
// and returns each side's runs in pair order.
func timePairs(workload string, runOne func(i, seed int) (run, error)) ([2][]run, error) {
	var runs [2][]run
	for p := 0; p < pairs; p++ {
		var pair [2]run
		for k := 0; k < 2; k++ {
			i := (p + k) % 2
			r, err := runOne(i, seed+p)
			if err != nil {
				return runs, err
			}
			pair[i] = r
		}
		if err := samePair(workload, p, pair); err != nil {
			return runs, err
		}
		for i := range pair {
			runs[i] = append(runs[i], pair[i])
		}
		fmt.Fprintf(os.Stderr, "# %s: pair %d/%d done\n", workload, p+1, pairs)
	}
	return runs, nil
}

func side(i int) string { return [2]string{"base", "working-tree"}[i] }

// samePair refuses a pair of runs (base, working tree) unless both are
// correct and print the same digest: a timing of two programs with
// different outputs is no verdict. p is the pair's index, -1 for the
// gate run.
func samePair(workload string, p int, pair [2]run) error {
	at := workload
	if p >= 0 {
		at = fmt.Sprintf("%s pair %d", workload, p)
	}
	for i, r := range pair {
		if !r.Correct || r.Failed != 0 || r.digest == "" {
			return fmt.Errorf("%s: %s run not correct (correct %v, failed %d, digest %q)", at, side(i), r.Correct, r.Failed, r.digest)
		}
	}
	if pair[0].digest != pair[1].digest {
		return fmt.Errorf("%s: digest %s at base, %s in the working tree; refusing to time different outputs", at, pair[0].digest, pair[1].digest)
	}
	return nil
}

func git(args ...string) (string, error) {
	out, err := exec.Command("git", args...).CombinedOutput()
	if err != nil {
		return "", fmt.Errorf("git %s: %v: %s", strings.Join(args, " "), err, bytes.TrimSpace(out))
	}
	return strings.TrimSpace(string(out)), nil
}

// readBench reads the workloads, the run length and the end-to-end
// metrics BENCHMARK.json declares.
func readBench(path string) (bench, error) {
	var b bench
	raw, err := os.ReadFile(path)
	if err != nil {
		return b, err
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		return b, fmt.Errorf("%s: %v", path, err)
	}
	if b.RunSeconds < 1 || len(b.Workloads) == 0 || len(b.EndToEnd) == 0 {
		return b, fmt.Errorf("%s: needs run_seconds, workloads and end_to_end", path)
	}
	return b, nil
}

// ldbench runs one workload through dir's cmd/ldbench/run.sh.
func ldbench(dir, workload string, seed, seconds int) (run, error) {
	cmd := exec.Command("bash", "cmd/ldbench/run.sh", "--workload", workload,
		"--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds), "--spans", "")
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return run{}, fmt.Errorf("%s: ldbench %s: %v", dir, workload, err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var r run
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		return run{}, fmt.Errorf("%s: ldbench %s: last line: %v", dir, workload, err)
	}
	for _, l := range lines {
		if d, ok := strings.CutPrefix(l, "# digest "); ok {
			r.digest = strings.TrimSpace(d)
		}
	}
	return r, nil
}

func values(runs []run, name string) []float64 {
	v := make([]float64, len(runs))
	for i, r := range runs {
		v[i] = r.Metrics[name].Value
	}
	return v
}

// compare applies the verdict rule to one metric's pairs: met when the
// working tree wins at least 8 pairs in 10 and its median differs from
// the base's by more than the base's interquartile range; regressed in
// the mirror case; unresolved otherwise. Ties count for neither side.
func compare(workload string, m metric, base, work []float64) result {
	r := result{Workload: workload, Metric: m.Name, Unit: m.Unit, Base: base, Work: work}
	r.BaseMedian, r.BaseIQR = quartiles(base)
	r.WorkMedian, r.WorkIQR = quartiles(work)
	sign := 1.0
	if m.Better == "lower" {
		sign = -1
	}
	for i := range base {
		switch d := sign * (work[i] - base[i]); {
		case d > 0:
			r.Won++
		case d < 0:
			r.Lost++
		}
	}
	delta := sign * (r.WorkMedian - r.BaseMedian)
	switch {
	case 10*r.Won >= 8*len(base) && delta > r.BaseIQR:
		r.Verdict = "met"
	case 10*r.Lost >= 8*len(base) && -delta > r.BaseIQR:
		r.Verdict = "regressed"
	default:
		r.Verdict = "unresolved"
	}
	return r
}

// quartiles returns the median and the interquartile range, each
// quartile interpolated linearly between order statistics.
func quartiles(v []float64) (median, iqr float64) {
	s := slices.Sorted(slices.Values(v))
	q := func(p float64) float64 {
		x := p * float64(len(s)-1)
		i := int(x)
		if i+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[i] + (x-float64(i))*(s[i+1]-s[i])
	}
	return q(0.5), q(0.75) - q(0.25)
}

func printTable(f *os.File, results []result) {
	fmt.Fprintf(f, "%-8s %-20s %12s %10s %12s %10s %8s %7s  %s\n",
		"workload", "metric", "base median", "base IQR", "work median", "work IQR", "delta", "won", "verdict")
	for _, r := range results {
		delta := 100 * (r.WorkMedian - r.BaseMedian) / r.BaseMedian
		fmt.Fprintf(f, "%-8s %-20s %12.4g %10.3g %12.4g %10.3g %+7.1f%% %3d/%-3d  %s\n",
			r.Workload, r.Metric, r.BaseMedian, r.BaseIQR, r.WorkMedian, r.WorkIQR, delta, r.Won, len(r.Base), r.Verdict)
	}
}

// appendHistory adds one entry to the JSON array in path, creating it.
func appendHistory(path string, entry map[string]any) error {
	var entries []json.RawMessage
	raw, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(raw, &entries); err != nil {
			return fmt.Errorf("%s: %v", path, err)
		}
	case !errors.Is(err, fs.ErrNotExist):
		return err
	}
	e, err := json.Marshal(entry)
	if err != nil {
		return err
	}
	out, err := json.MarshalIndent(append(entries, e), "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
