// Pointerchase: the paper's motivating scenario. Linked-data workloads
// (mcf, olden/health) touch only one or two 8-byte words per 64-byte
// line, so most of the cache stores bytes that are never read. This
// example sweeps the WOC size (0 = traditional) on the health benchmark
// and shows how filtering unused words converts dead space into hits —
// and how the capacity compares against simply buying bigger caches.
package main

import (
	"fmt"

	"ldis"
)

func main() {
	const benchmark = "health"
	const accesses = 1_000_000

	fmt.Printf("benchmark %s: pointer chasing, ~2 of 8 words used per line\n\n", benchmark)

	base, err := mustNew("base-1MB", benchmark).RunWorkload(benchmark, accesses)
	if err != nil {
		panic(err)
	}
	fmt.Printf("%-28s MPKI %6.2f\n", "traditional 1MB 8-way", base.MPKI)

	for _, woc := range []int{1, 2, 3} {
		res, err := mustNew(fmt.Sprintf("ldis-mt-rc-%d", woc), benchmark).RunWorkload(benchmark, accesses)
		if err != nil {
			panic(err)
		}
		fmt.Printf("distill %d LOC + %d WOC ways    MPKI %6.2f  (%.1f%% fewer misses)\n",
			8-woc, woc, res.MPKI, 100*(base.MPKI-res.MPKI)/base.MPKI)
	}

	// Against bigger traditional caches (paper Figure 8: for health the
	// distill cache beats even doubling the capacity).
	// The paper grows capacity by adding ways at a fixed 2048 sets.
	for _, mb := range []int{2, 4} {
		res, err := mustNew(fmt.Sprintf("trad-%dMB", mb), benchmark).RunWorkload(benchmark, accesses)
		if err != nil {
			panic(err)
		}
		fmt.Printf("%-28s MPKI %6.2f  (%.1f%% fewer misses)\n",
			fmt.Sprintf("traditional %dMB %d-way", mb, 8*mb), res.MPKI,
			100*(base.MPKI-res.MPKI)/base.MPKI)
	}
}

// mustNew builds the keyed organization for the benchmark.
func mustNew(key, benchmark string) *ldis.Sim {
	sim, err := ldis.New(key, benchmark, nil)
	if err != nil {
		panic(err)
	}
	return sim
}
