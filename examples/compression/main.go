// Compression: Section 8 of the paper. Cache compression and line
// distillation exploit different inefficiencies (value redundancy vs
// never-used words) and compose: footprint-aware compression (FAC)
// compresses only the used words of a distilled line, packing far more
// lines into the word-organized cache than either technique alone.
package main

import (
	"fmt"

	"ldis"
)

func main() {
	const benchmark = "mcf" // pointer data: low word usage AND compressible values
	const accesses = 1_000_000

	base, err := mustNew("base-1MB", benchmark).RunWorkload(benchmark, accesses)
	if err != nil {
		panic(err)
	}
	fmt.Printf("%-40s MPKI %6.2f\n", "traditional 1MB 8-way", base.MPKI)

	report := func(label string, res ldis.Result) {
		fmt.Printf("%-40s MPKI %6.2f  (%.1f%% fewer misses)\n",
			label, res.MPKI, 100*(base.MPKI-res.MPKI)/base.MPKI)
	}

	// LDIS alone, 1 to 4 WOC ways (2 and 3 are the paper's 3x and 4x
	// tag budgets).
	for woc := 1; woc <= 4; woc++ {
		res, err := mustNew(fmt.Sprintf("ldis-mt-rc-%d", woc), benchmark).RunWorkload(benchmark, accesses)
		if err != nil {
			panic(err)
		}
		report(fmt.Sprintf("LDIS (%d WOC ways)", woc), res)
	}

	// Compression alone (CMPR-4xTags, whole-line compression).
	res, err := mustNew("cmpr-4x", benchmark).RunWorkload(benchmark, accesses)
	if err != nil {
		panic(err)
	}
	report("CMPR (compressed traditional, 4x tags)", res)

	// Footprint-aware compression: distill + compress the used words.
	res, err = mustNew("fac-3", benchmark).RunWorkload(benchmark, accesses)
	if err != nil {
		panic(err)
	}
	report("FAC (footprint-aware compression)", res)

	fmt.Println("\nFAC compresses only the words the footprint proved useful,")
	fmt.Println("so each WOC way holds several compressed distilled lines.")
}

// mustNew builds the keyed organization for the benchmark.
func mustNew(key, benchmark string) *ldis.Sim {
	sim, err := ldis.New(key, benchmark, nil)
	if err != nil {
		panic(err)
	}
	return sim
}
