package exp

import (
	"fmt"

	"ldis/internal/compress"
	"ldis/internal/costmodel"
	"ldis/internal/stats"
)

// Table1 renders the baseline processor configuration (paper Table 1).
func Table1() *stats.Table {
	t := stats.NewTable("Table 1: baseline processor configuration", "component", "configuration")
	t.AddRow("Inst. Cache", "16kB, 64B line-size, 2-way (the traces carry its miss stream; L2 never distills instruction lines)")
	t.AddRow("Branch Predictor", "hybrid; min 15-cycle misprediction penalty (per-benchmark rates)")
	t.AddRow("Exec. Engine", "8-wide out-of-order window (interval timing model)")
	t.AddRow("Data Cache", "16kB, 64B line-size, 2-way, LRU, sectored, footprint-tracking")
	t.AddRow("Unified L2 Cache", "1MB, 64B line-size, 8-way, LRU, 15-cycle hit, 32-entry MSHR")
	t.AddRow("Memory", "32 DRAM banks, 400-cycle access, bank conflicts modelled")
	t.AddRow("Bus", "16B-wide split-transaction at 4:1 frequency ratio")
	t.AddRow("Distill Cache", "6 LOC ways + 2 WOC ways, +1 tag cycle, +2 cycles on WOC hits")
	return t
}

// Table3 renders the storage-overhead accounting.
func Table3() (*stats.Table, error) {
	s, err := costmodel.DistillStorage(costmodel.Defaults())
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("Table 3: storage overhead of line distillation", "item", "value")
	t.AddRow("Size of each tag-entry in WOC", fmt.Sprintf("%d bits", s.WOCTagEntryBits))
	t.AddRow("Total number of tag-entries in WOC", fmt.Sprintf("%dk", s.WOCTagEntries>>10))
	t.AddRow("Overhead of tag-entries in WOC", fmt.Sprintf("%dkB", s.WOCTagBytes>>10))
	t.AddRow("Total number of tag-entries in LOC", fmt.Sprintf("%dk", s.LOCLines>>10))
	t.AddRow("Overhead of footprint bits in LOC", fmt.Sprintf("%dkB", s.LOCFootprintBytes>>10))
	t.AddRow("Total number of lines in L1D cache", fmt.Sprintf("%d", s.L1DLines))
	t.AddRow("Overhead of footprint bits in L1D", fmt.Sprintf("%dB", s.L1DFootprintBytes))
	t.AddRow("Overhead for median threshold distillation", fmt.Sprintf("%dB", s.MedianCounterBytes))
	t.AddRow("Number of ATD entries", fmt.Sprintf("%d", s.ATDEntries))
	t.AddRow("Overhead of reverter circuit", fmt.Sprintf("%dkB", s.ATDBytes>>10))
	t.AddRow("Total storage overhead of distill-cache", fmt.Sprintf("%dkB", (s.TotalBytes+512)>>10))
	t.AddRow("Area of baseline L2 cache", fmt.Sprintf("%dkB", s.BaselineAreaBytes>>10))
	t.AddRow("% increase in L2 area with distill-cache", fmt.Sprintf("%.1f%%", s.OverheadPercent))
	return t, nil
}

// Table4 renders the 32-bit encoding scheme.
func Table4() *stats.Table {
	t := stats.NewTable("Table 4: encoding scheme for 32-bit data", "code", "value of the 32-bit data", "encoded bits")
	type row struct {
		v    uint32
		desc string
	}
	for _, r := range []row{
		{0, "0"},
		{1, "1"},
		{0x1234, "bits[31:16] are 0, only bits[15:0] stored"},
		{0xdeadbeef, "incompressible, all bits[31:0] stored"},
	} {
		code, bits := compress.Encode32(r.v)
		t.AddRow(fmt.Sprintf("%02b", code), r.desc, bits)
	}
	return t
}

// OverheadsTable renders the Section 7.5.2/7.5.3 latency and energy
// estimates.
func OverheadsTable() *stats.Table {
	l, e := costmodel.Overheads()
	t := stats.NewTable("Section 7.5: latency and energy overheads", "item", "value")
	t.AddRow("Extra tag delay (Cacti, 65nm)", fmt.Sprintf("%.2fns", l.ExtraTagDelayNS))
	t.AddRow("Extra tag access cycles charged", l.ExtraTagCycles)
	t.AddRow("WOC word-rearrangement cycles", l.WOCRearrangeCycles)
	t.AddRow("LOC tag energy per access", fmt.Sprintf("%.2fnJ", e.LOCTagNJ))
	t.AddRow("Extra WOC tag energy per access", fmt.Sprintf("%.2fnJ", e.WOCExtraNJ))
	t.AddRow("Total tag energy per access", fmt.Sprintf("%.2fnJ", e.TotalTagNJ))
	return t
}

func init() {
	registerExp("table1", "baseline processor configuration", func(Options) ([]*stats.Table, error) {
		return []*stats.Table{Table1()}, nil
	}, nil)
	registerExp("table3", "storage overhead of line distillation", func(Options) ([]*stats.Table, error) {
		t, err := Table3()
		if err != nil {
			return nil, err
		}
		return []*stats.Table{t}, nil
	}, nil)
	registerExp("table4", "32-bit encoding scheme", func(Options) ([]*stats.Table, error) {
		return []*stats.Table{Table4()}, nil
	}, nil)
	registerExp("overheads", "latency and energy overheads (Section 7.5)", func(Options) ([]*stats.Table, error) {
		return []*stats.Table{OverheadsTable()}, nil
	}, nil)
}
