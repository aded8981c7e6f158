// Command distillsim runs one synthetic benchmark through one cache
// organization, named by its configuration key, and prints the
// resulting statistics.
//
//	distillsim -benchmark mcf -cache ldis-mt-rc-2 -accesses 2000000
//	distillsim -benchmark swim -cache base-1MB
//	distillsim -benchmark health -cache ldis-mt-2
//	distillsim -list
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"ldis"
	"ldis/internal/mem"
	"ldis/internal/obs"
	"ldis/internal/trace"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command on its arguments and output streams; it returns
// the exit status: 2 for bad flags, 1 for a failed run.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("distillsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	benchmark := fs.String("benchmark", ldis.DefaultBenchmark, "synthetic benchmark name; with -trace, the benchmark the machine is built for")
	traceFile := fs.String("trace", "", "replay a binary trace file (from tracegen) instead of a synthetic benchmark")
	lenient := fs.Bool("lenient", false, "with -trace: replay the valid prefix of a corrupt trace instead of refusing it")
	cacheKey := fs.String("cache", "ldis-mt-rc-2", "cache organization key (see -list)")
	accesses := fs.Int("accesses", 1_000_000, "number of memory accesses to simulate")
	ipc := fs.Bool("ipc", false, "also run the execution-driven timing model")
	metrics := fs.Bool("metrics", false, "attach an observer and print the metric snapshot and span timings after the run")
	list := fs.Bool("list", false, "list cache organization keys and benchmarks and exit")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "distillsim:", err)
		return 1
	}

	if *list {
		fmt.Fprintf(stdout, "caches:\n  %s\nbenchmarks:\n  %s\n",
			strings.Join(ldis.Keys(), "\n  "), strings.Join(ldis.Benchmarks(), "\n  "))
		return 0
	}

	// Collect every configuration problem and report them all at once.
	var problems []string
	if *accesses <= 0 {
		problems = append(problems, fmt.Sprintf("-accesses must be positive, got %d", *accesses))
	}

	var reg *ldis.Observer
	var decodeSpans *obs.Spans
	if *metrics {
		reg = ldis.NewObserver()
		decodeSpans = obs.NewSpans(nil)
	}
	sim, err := ldis.New(*cacheKey, *benchmark, reg)
	if err != nil {
		problems = append(problems, err.Error())
	}
	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintln(stderr, "distillsim:", p)
		}
		return 2
	}

	var res ldis.Result
	if *traceFile != "" {
		// Streaming decode: records flow from the file through the
		// batched pipeline without materializing the whole trace, so
		// replay memory stays flat in the trace length.
		f, err := os.Open(*traceFile)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		br, err := trace.NewBatchReader(f)
		if err != nil {
			return fail(err)
		}
		res = sim.RunStream(*traceFile, &timedStream{br: br, sp: decodeSpans}, *accesses)
		if cerr := br.Err(); cerr != nil {
			if !*lenient {
				return fail(cerr)
			}
			fmt.Fprintf(stderr, "distillsim: warning: %v; replayed the valid prefix\n", cerr)
		}
	} else {
		res, err = sim.RunWorkload(*benchmark, *accesses)
		if err != nil {
			return fail(err)
		}
	}
	fmt.Fprintln(stdout, res)
	if ds := sim.DistillStats(); ds != nil {
		fmt.Fprintf(stdout, "distilled=%d threshold-skips=%d woc-evictions=%d mode-switches=%d writebacks=%d\n",
			ds.Distilled, ds.ThresholdSkips, ds.WOCEvictions, ds.ModeSwitches, ds.Writebacks)
		fmt.Fprintf(stdout, "words used at LOC eviction: %v\n", ds.WordsUsedAtEvict)
	}
	if *metrics {
		printMetrics(stdout, reg, decodeSpans)
	}

	if *ipc {
		base, dist, err := ldis.MeasureIPC(*benchmark, *accesses)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "IPC: baseline %.3f (MPKI %.2f)  distill %.3f (MPKI %.2f)  improvement %.1f%%\n",
			base.IPC, base.MPKI, dist.IPC, dist.MPKI, 100*(dist.IPC-base.IPC)/base.IPC)
	}
	return 0
}

// timedStream adapts the streaming trace decoder to the simulator,
// charging each refill to the decode span so -metrics reports decode
// time separately from simulation. It forwards both the scalar and the
// block interface; the batched pipeline uses the latter.
type timedStream struct {
	br *trace.BatchReader
	sp *obs.Spans
}

func (t *timedStream) Next() (mem.Access, bool) {
	tok := t.sp.Begin(obs.StageDecode)
	a, ok := t.br.Next()
	t.sp.End(obs.StageDecode, tok)
	return a, ok
}

func (t *timedStream) NextBatch(dst []trace.Record) int {
	tok := t.sp.Begin(obs.StageDecode)
	n := t.br.NextBatch(dst)
	t.sp.End(obs.StageDecode, tok)
	return n
}

// printMetrics dumps the observer's registry snapshot and the trace
// decode span aggregate in a stable, grep-friendly form.
func printMetrics(w io.Writer, reg *ldis.Observer, decode *obs.Spans) {
	fmt.Fprintln(w, "metrics:")
	for _, m := range reg.Snapshot() {
		switch m.Kind {
		case "histogram":
			fmt.Fprintf(w, "  %-9s %-28s bounds=%v buckets=%v\n", m.Kind, m.Name, m.Bounds, m.Buckets)
		case "gauge":
			fmt.Fprintf(w, "  %-9s %-28s %g\n", m.Kind, m.Name, m.Value)
		default:
			fmt.Fprintf(w, "  %-9s %-28s %d\n", m.Kind, m.Name, m.Count)
		}
	}
	for _, s := range decode.Report() {
		fmt.Fprintf(w, "  span      %-28s calls=%d timed=%d nanos=%d\n", s.Stage, s.Calls, s.Timed, s.Nanos)
	}
}
