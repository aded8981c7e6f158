// Quickstart: build the paper's distill cache (LDIS-MT-RC, key
// ldis-mt-rc-2), run a pointer-chasing benchmark against it and against
// the 1MB 8-way baseline (base-1MB), and print the four-outcome
// breakdown of Section 5.2.
package main

import (
	"fmt"

	"ldis"
)

func main() {
	const benchmark = "mcf"
	const accesses = 500_000

	base, err := mustNew("base-1MB", benchmark).RunWorkload(benchmark, accesses)
	if err != nil {
		panic(err)
	}
	dist, err := mustNew("ldis-mt-rc-2", benchmark).RunWorkload(benchmark, accesses)
	if err != nil {
		panic(err)
	}

	fmt.Println("baseline:", base)
	fmt.Println("distill: ", dist)
	fmt.Printf("\nMPKI: %.2f -> %.2f (%.1f%% reduction)\n",
		base.MPKI, dist.MPKI, 100*(base.MPKI-dist.MPKI)/base.MPKI)

	total := float64(dist.LOCHits + dist.WOCHits + dist.HoleMisses + dist.LineMisses)
	fmt.Printf("\ndistill-cache access outcomes (Section 5.2):\n")
	fmt.Printf("  LOC-hit   %5.1f%%\n", 100*float64(dist.LOCHits)/total)
	fmt.Printf("  WOC-hit   %5.1f%%   <- capacity recovered from unused words\n", 100*float64(dist.WOCHits)/total)
	fmt.Printf("  hole-miss %5.1f%%\n", 100*float64(dist.HoleMisses)/total)
	fmt.Printf("  line-miss %5.1f%%\n", 100*float64(dist.LineMisses)/total)
}

// mustNew builds the keyed organization for the benchmark.
func mustNew(key, benchmark string) *ldis.Sim {
	sim, err := ldis.New(key, benchmark, nil)
	if err != nil {
		panic(err)
	}
	return sim
}
