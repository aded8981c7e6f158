// Reverter: the paper's adversarial case (Section 7.1). swim first
// touches one word of a line and returns for the other seven a long
// reuse-distance later — exactly the words eager distillation throws
// away, so LDIS-Base *increases* misses via hole-misses. The reverter
// circuit (Section 5.5) detects this with dynamic set sampling and
// turns LDIS off, restoring baseline behaviour.
package main

import (
	"fmt"

	"ldis"
)

func main() {
	const benchmark = "swim"
	const accesses = 2_000_000

	base, err := mustNew("base-1MB", benchmark).RunWorkload(benchmark, accesses)
	if err != nil {
		panic(err)
	}
	fmt.Printf("%-34s MPKI %6.2f\n", "traditional 1MB 8-way", base.MPKI)

	run := func(label, key string) {
		sim := mustNew(key, benchmark)
		res, err := sim.RunWorkload(benchmark, accesses)
		if err != nil {
			panic(err)
		}
		delta := 100 * (base.MPKI - res.MPKI) / base.MPKI
		fmt.Printf("%-34s MPKI %6.2f  (%+.1f%%), hole-misses %d\n",
			label, res.MPKI, delta, res.HoleMisses)
		if ds := sim.DistillStats(); key == "ldis-mt-rc-2" && ds != nil {
			fmt.Printf("%-34s mode switches: %d (followers fell back to the traditional organization)\n",
				"", ds.ModeSwitches)
		}
	}

	run("LDIS-Base (eager distillation)", "ldis-base-2")
	run("LDIS-MT (median threshold)", "ldis-mt-2")
	run("LDIS-MT-RC (with reverter)", "ldis-mt-rc-2")

	fmt.Println("\nThe reverter bounds the damage: the paper reports LDIS-MT-RC")
	fmt.Println("never increases misses by more than 2% on any benchmark.")
}

// mustNew builds the keyed organization for the benchmark.
func mustNew(key, benchmark string) *ldis.Sim {
	sim, err := ldis.New(key, benchmark, nil)
	if err != nil {
		panic(err)
	}
	return sim
}
