package exp

import (
	"fmt"
	"slices"

	"ldis/internal/faultinject"
	"ldis/internal/obs"
	"ldis/internal/par"
	"ldis/internal/workload"
)

// The experiment engine fans out over (benchmark × config key) cells:
// every cell is one full simulation — its own caches, its own
// deterministic stream — so a 16-benchmark, 6-configuration figure
// exposes 96 independent units of work to the scheduler instead of 16.
// Cells are pure functions of (benchmark, config key) under the run's
// options, which keeps the assembled tables byte-identical at any
// worker count and lets one run share a cell between every experiment
// that reads it.
//
// The fan-out is also where the engine's resilience features hook in,
// from innermost to outermost wrapper around the cell function:
//
//   - the cell store (Options.Checkpoint): a (row, key) cell already
//     in the store — simulated earlier in this run by any experiment,
//     or loaded from a checkpoint file — is served from it; otherwise
//     the cell is simulated and stored (and, for a file-backed store,
//     appended to the checkpoint file);
//   - fault injection (Options.FaultSeed): a deterministic, seeded
//     injector panics selected cells, keyed experiment/benchmark/col —
//     the chaos-suite's way of proving the layers above isolate
//     failures. It runs before the store lookup, so a site's fault
//     does not depend on which experiments ran earlier;
//   - panic isolation and policy (internal/par): a panicking cell
//     becomes a *par.TaskError; fail-fast aborts the sweep on the
//     smallest-index failure, keep-going runs every cell and reports
//     all failures deterministically.

// cellSep joins experiment, benchmark, and column into the cell site
// keys used by fault injection and error messages.
const cellSep = "/"

// runGrid runs one simulation cell per (benchmark, config key) pair,
// up to o.Parallel workers (GOMAXPROCS when zero). It returns the
// surviving benchmark names and their result rows, aligned
// index-for-index with keys: in the default fail-fast mode that is
// every requested benchmark or an error, while under Options.KeepGoing
// benchmarks with a failed cell are pruned from the results (and
// logged to Options.Failures) so the healthy rows still render exactly
// as in a fault-free run. fn must derive all randomness from the
// profile's seed so results are independent of scheduling, and must
// return the same value for a key in every experiment that lists it.
//
// fn's co argument is the cell's observability surface (nil when
// Options.Obs is nil): fn wires it into the simulator configs it
// builds, so the cache/distill/mrc counters land on the right
// (experiment × benchmark × column) coordinates in the manifest.
func runGrid[T any](o Options, keys []string, fn func(prof *workload.Profile, key string, co *obs.Cell) (T, error)) ([]string, [][]T, error) {
	return runNamedGrid(o, o.benchmarks(), keys, func(row int, key string, co *obs.Cell) (T, error) {
		prof, err := workload.ByName(o.benchmarks()[row])
		if err != nil {
			var zero T
			return zero, err
		}
		return fn(prof, key, co)
	})
}

// runNamedGrid is the engine under runGrid with the row vocabulary
// generalized: rows are arbitrary names (single benchmarks for the
// classic figure sweeps, tenant-mix scenarios for the partition
// experiment), and fn receives the row index instead of a resolved
// workload profile. All the grid machinery — span wrapping, fault
// injection, the cell store keyed (name, key), panic isolation,
// fail-fast/keep-going row pruning — lives here, so every grid-shaped
// experiment shares one deterministic fan-out path.
func runNamedGrid[T any](o Options, names, keys []string, fn func(row int, key string, co *obs.Cell) (T, error)) ([]string, [][]T, error) {
	for i, k := range keys {
		if slices.Contains(keys[:i], k) {
			// Two columns of one row would race to simulate the same
			// cell.
			return nil, nil, fmt.Errorf("exp: %s lists config key %q twice", o.expID, k)
		}
	}
	store := o.Checkpoint
	if store == nil {
		store = newStore(o.Fingerprint())
	}
	var inj *faultinject.Injector
	if o.FaultSeed != 0 {
		inj = faultinject.NewDefault(o.FaultSeed)
	}
	cell := func(row, col int, co *obs.Cell) (T, error) {
		if inj != nil {
			inj.MaybePanic(o.expID + cellSep + names[row] + cellSep + fmt.Sprint(col))
		}
		if v, ok := storeGet[T](store, names[row], keys[col]); ok {
			co.MarkReplayed()
			return v, nil
		}
		tok := co.Spans().Begin(obs.StageSimulate)
		v, err := fn(row, keys[col], co)
		co.Spans().End(obs.StageSimulate, tok)
		if err != nil {
			return v, err
		}
		return v, storePut(store, names[row], keys[col], v, co)
	}

	o.Obs.Progress().AddTotal(len(names) * len(keys))
	p := par.Policy{Retries: o.Retries, FailFast: !o.KeepGoing, Budget: o.FailBudget, Obs: o.Obs.Sched()}
	grid, errs := par.GridPolicy(p, o.Parallel, len(names), len(keys), func(row, col int) (T, error) {
		co := o.Obs.StartCell(o.expID, names[row], col, keys[col])
		v, err := cell(row, col, co)
		status := obs.StatusOK
		switch {
		case err != nil:
			status = obs.StatusFailed
		case co.Replayed():
			status = obs.StatusReplayed
		}
		o.Obs.FinishCell(co, status)
		return v, err
	})
	if errs == nil {
		return names, grid, nil
	}
	if !o.KeepGoing {
		// Deterministic smallest-index failure, annotated with its
		// cell coordinates.
		prefix := ""
		if o.expID != "" {
			prefix = o.expID + cellSep
		}
		for r := range errs {
			for c, err := range errs[r] {
				te, ok := err.(*par.TaskError)
				if !ok || te == nil || te.Attempts == 0 {
					continue
				}
				if te.Panic == nil && te.Err != nil {
					return nil, nil, fmt.Errorf("cell %s%s%s%d: %w", prefix, names[r], cellSep, c, te.Err)
				}
				return nil, nil, fmt.Errorf("cell %s%s%s%d: %w", prefix, names[r], cellSep, c, te)
			}
		}
		return nil, nil, fmt.Errorf("exp: scheduler reported failure without an error")
	}
	// Keep-going: log every failed cell, keep only fully-healthy rows.
	keepNames := make([]string, 0, len(names))
	keep := make([][]T, 0, len(grid))
	for r, name := range names {
		healthy := true
		for c, err := range errs[r] {
			if err != nil {
				healthy = false
				o.Failures.add(o.expID, name, c, err)
			}
		}
		if healthy {
			keepNames = append(keepNames, name)
			keep = append(keep, grid[r])
		}
	}
	return keepNames, keep, nil
}
