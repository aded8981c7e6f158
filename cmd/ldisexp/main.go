// Command ldisexp regenerates the paper's tables and figures from the
// synthetic benchmark suite. Run with one or more experiment ids
// (fig1, fig2, fig6..fig11, fig13, table1..table6, overheads, mrc,
// partition, orgs, ablation-*) or "all". Each experiment that declares
// knobs gets one grouped flag named after it, holding key=value items
// (the keys and their syntax are listed by -help):
//
//	ldisexp -accesses 2000000 fig6 fig7
//	ldisexp -mrc rate=0.2,max-samples=8192 mrc
//	ldisexp -partition tenants=twolf+mcf,epoch=6000 partition
//	ldisexp -orgs touche-sb-lines=8,waymemo-entries=8 orgs
//	ldisexp all
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strings"
	"time"

	"ldis/internal/exp"
	"ldis/internal/obs"
	"ldis/internal/stats"
	"ldis/internal/trace"
)

func main() {
	accesses := flag.Int("accesses", 1_000_000, "accesses per benchmark per configuration")
	warmup := flag.Float64("warmup", 0.25, "fraction of accesses excluded from measurement")
	benchmarks := flag.String("benchmarks", "", "comma-separated benchmark subset (default: the paper's 16)")
	list := flag.Bool("list", false, "list experiment ids and exit")
	markdown := flag.Bool("markdown", false, "emit tables as markdown")
	csv := flag.Bool("csv", false, "emit tables as CSV")
	parallel := flag.Int("parallel", 0, "worker goroutines for (benchmark × configuration) cells (0 = GOMAXPROCS)")
	shards := flag.Int("shards", 0, "split each shardable cell's cache state across this many workers by line-address hash; power of two, results byte-identical (0 = sequential)")
	batch := flag.Int("batch", 0, "record-block size of the batched access pipeline (0 = default "+fmt.Sprint(trace.DefaultBatchSize)+")")
	outDir := flag.String("out", "", "also write each experiment's tables to <dir>/<id>.txt (or .md/.csv per format flag)")
	resume := flag.Bool("resume", false, "checkpoint completed cells to <out>/"+exp.CheckpointFile+" and replay them on restart (requires -out)")
	keepGoing := flag.Bool("keep-going", false, "run every cell to completion; report failed cells in a table and exit nonzero instead of aborting at the first failure")
	retries := flag.Int("retries", 0, "extra attempts per failing cell before its failure counts")
	faultSeed := flag.Uint64("fault-seed", 0, "chaos testing: deterministically panic a seeded subset of cells (0 = off)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	groups := knobGroups()
	groupFlags := make([]*string, len(groups))
	for i, g := range groups {
		groupFlags[i] = flag.String(g.name, "", g.name+" experiment knobs, comma-separated key=value items: "+g.usage())
	}
	obsAddr := flag.String("obs-addr", "", "serve live progress, metric snapshots, and net/http/pprof on this address (e.g. localhost:6060)")
	manifestPath := flag.String("manifest", "", "write the versioned run manifest to this path (default: <out>/"+obs.ManifestFile+" with -out, else ./"+obs.ManifestFile+")")
	verifyManifest := flag.Bool("verify-manifest", false, "after writing the manifest, read it back through the validating parser")
	flag.Parse()

	if *list {
		for _, id := range exp.IDs() {
			line, _ := exp.Describe(id)
			fmt.Println(line)
		}
		return
	}

	ids := flag.Args()
	if len(ids) == 0 {
		fmt.Fprintln(os.Stderr, "usage: ldisexp [flags] <experiment-id>... | all  (-list to enumerate)")
		os.Exit(2)
	}
	if len(ids) == 1 && ids[0] == "all" {
		ids = exp.IDs()
	}

	o := exp.DefaultOptions()
	o.Accesses = *accesses
	o.WarmupFrac = *warmup
	o.Parallel = *parallel
	o.Shards = *shards
	o.BatchSize = *batch
	o.Retries = *retries
	o.FaultSeed = *faultSeed
	if *benchmarks != "" {
		o.Benchmarks = strings.Split(*benchmarks, ",")
	}
	if *keepGoing {
		o.KeepGoing = true
		o.Failures = exp.NewFailureLog()
	}

	// Collect every configuration problem — CLI flag conflicts and
	// option validation — and report them all at once rather than one
	// per invocation.
	var problems []string
	for i, g := range groups {
		problems = append(problems, g.apply(&o, *groupFlags[i])...)
	}
	if *markdown && *csv {
		problems = append(problems, "-markdown and -csv are mutually exclusive; pick one output format")
	}
	if *resume && *outDir == "" {
		problems = append(problems, "-resume requires -out (the checkpoint lives in the output directory)")
	}
	if err := o.Validate(); err != nil {
		problems = append(problems, strings.Split(err.Error(), "\n")...)
	}
	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, "ldisexp:", p)
		}
		os.Exit(2)
	}

	run := obs.NewRun(nil)
	o.Obs = run
	if *obsAddr != "" {
		srv, err := obs.StartServer(*obsAddr, run)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ldisexp:", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Printf("[obs: live progress and pprof at http://%s/]\n", srv.Addr())
	}

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "ldisexp:", err)
			os.Exit(1)
		}
	}
	var ck *exp.Checkpoint
	if *resume {
		path := filepath.Join(*outDir, exp.CheckpointFile)
		var err error
		if ck, err = exp.OpenCheckpoint(path, o); err != nil {
			fmt.Fprintln(os.Stderr, "ldisexp:", err)
			os.Exit(1)
		}
		defer ck.Close()
		if n := ck.Loaded(); n > 0 {
			fmt.Printf("[resuming: %d completed cells in %s]\n", n, path)
		}
		o.Checkpoint = ck
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ldisexp:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "ldisexp:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "ldisexp:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "ldisexp:", err)
			}
		}()
	}
	workers := o.Parallel
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	mpath := *manifestPath
	if mpath == "" {
		if *outDir != "" {
			mpath = filepath.Join(*outDir, obs.ManifestFile)
		} else {
			mpath = obs.ManifestFile
		}
	}
	emitManifest := func() {
		m := &obs.Manifest{
			Tool:        "ldisexp",
			GoVersion:   runtime.Version(),
			GitDescribe: gitDescribe(),
			Generated:   time.Now().UTC().Format(time.RFC3339),
			Workers:     workers,
			Fingerprint: o.Fingerprint(),
			Experiments: ids,
			Params:      o.ManifestParams(),
		}
		m.Snapshot(run)
		if o.Failures != nil {
			m.Failures = o.Failures.Manifest()
		}
		if err := obs.WriteManifest(mpath, m); err != nil {
			fmt.Fprintln(os.Stderr, "ldisexp:", err)
			os.Exit(1)
		}
		if *verifyManifest {
			if _, err := obs.ReadManifest(mpath); err != nil {
				fmt.Fprintln(os.Stderr, "ldisexp: manifest verification failed:", err)
				os.Exit(1)
			}
		}
		fmt.Printf("[manifest: %s]\n", mpath)
	}
	render := func(t *stats.Table) string {
		switch {
		case *csv:
			return t.CSV()
		case *markdown:
			return t.Markdown()
		default:
			return t.String()
		}
	}
	ext := ".txt"
	if *csv {
		ext = ".csv"
	} else if *markdown {
		ext = ".md"
	}
	for _, id := range ids {
		start := time.Now()
		tables, err := exp.Run(id, o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ldisexp: %s: %v\n", id, err)
			if ck != nil {
				ck.Close()
				fmt.Fprintf(os.Stderr, "ldisexp: %d completed cells checkpointed; rerun with -resume to continue\n", ck.Recorded()+ck.Loaded())
			}
			emitManifest()
			os.Exit(1)
		}
		elapsed := time.Since(start)
		var out strings.Builder
		for _, t := range tables {
			out.WriteString(render(t))
			out.WriteByte('\n')
		}
		fmt.Print(out.String())
		if *outDir != "" {
			path := filepath.Join(*outDir, id+ext)
			if err := os.WriteFile(path, []byte(out.String()), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "ldisexp: %s: %v\n", id, err)
				os.Exit(1)
			}
		}
		fmt.Printf("[%s done in %v]\n\n", id, elapsed.Round(time.Millisecond))
	}
	emitManifest()
	if ck != nil {
		fmt.Printf("[checkpoint: %d cells replayed, %d newly recorded]\n", ck.Replayed(), ck.Recorded())
	}
	if o.Failures != nil && o.Failures.Len() > 0 {
		failuresExit(o, ck)
	}
}

// failuresExit renders the failure table and exits nonzero; split out
// so the main run path reads top to bottom.
func failuresExit(o exp.Options, ck *exp.Checkpoint) {
	// The failure table is deterministic: same cells, same order,
	// at any worker count.
	fmt.Fprint(os.Stderr, o.Failures.Table().String())
	fmt.Fprintf(os.Stderr, "ldisexp: %d cells failed; healthy benchmarks rendered above\n", o.Failures.Len())
	if ck != nil {
		ck.Close()
	}
	os.Exit(1)
}

// gitDescribe identifies the source tree the binary was built from:
// `git describe` when a repository is reachable, else the VCS stamp
// embedded by the Go toolchain, else empty.
func gitDescribe() string {
	if out, err := exec.Command("git", "describe", "--always", "--dirty").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return ""
	}
	var rev, dirty string
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "-dirty"
			}
		}
	}
	if rev == "" {
		return ""
	}
	if len(rev) > 12 {
		rev = rev[:12]
	}
	return rev + dirty
}
