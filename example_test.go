package ldis_test

import (
	"fmt"

	"ldis"
	"ldis/internal/costmodel"
)

// ExampleNew shows the one-call path from a configuration key and a
// named benchmark to a distill-cache result.
func ExampleNew() {
	sim, err := ldis.New("ldis-mt-rc-2", "health", nil)
	if err != nil {
		panic(err)
	}
	res, err := sim.RunWorkload("health", 200_000)
	if err != nil {
		panic(err)
	}
	fmt.Printf("WOC hits observed: %v\n", res.WOCHits > 0)
	// Output:
	// WOC hits observed: true
}

// ExampleNew_observer attaches a metrics registry to a simulator and
// reads the recorded distill counters after the run.
func ExampleNew_observer() {
	reg := ldis.NewObserver()
	sim, err := ldis.New("ldis-mt-rc-2", "health", reg)
	if err != nil {
		panic(err)
	}
	if _, err := sim.RunWorkload("health", 200_000); err != nil {
		panic(err)
	}
	for _, m := range reg.Snapshot() {
		if m.Name == "distill_lines_distilled" {
			fmt.Printf("distilled lines recorded: %v\n", m.Count > 0)
		}
	}
	// Output:
	// distilled lines recorded: true
}

// ExampleRunExperiment regenerates one of the paper's static tables.
func ExampleRunExperiment() {
	tables, err := ldis.RunExperiment("table4", ldis.DefaultExperimentOptions())
	if err != nil {
		panic(err)
	}
	fmt.Println(tables[0].Title())
	// Output:
	// Table 4: encoding scheme for 32-bit data
}

// Example_storageOverhead reproduces the paper's Table 3 headline: the
// distill cache costs 12.2% extra area over the baseline L2.
func Example_storageOverhead() {
	s, err := costmodel.DistillStorage(costmodel.Defaults())
	if err != nil {
		panic(err)
	}
	fmt.Printf("total overhead: %dkB (%.1f%% of baseline area)\n",
		(s.TotalBytes+512)>>10, s.OverheadPercent)
	// Output:
	// total overhead: 133kB (12.2% of baseline area)
}

// Example_benchmarkSuite lists the first few synthetic stand-ins for the
// paper's SPEC CPU2000 benchmarks.
func Example_benchmarkSuite() {
	names := ldis.MainBenchmarks()
	fmt.Println(names[0], names[1], names[len(names)-1])
	// Output:
	// art mcf health
}
