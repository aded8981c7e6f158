package exp

import (
	"path/filepath"
	"strings"
	"testing"
)

func partitionOpts() Options {
	return Options{Accesses: 150_000, WarmupFrac: 0.25}
}

// renderPartition renders every table of a partition run into one
// string, the byte-identity unit of the determinism tests.
func renderPartition(rows []PartitionResult) string {
	var b strings.Builder
	for _, t := range PartitionTables(rows) {
		b.WriteString(t.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// TestPartitionUCPBeatsStatic is the first smoke gate: on every
// bundled scenario, utility-driven allocation must not lose to the
// static equal split on aggregate miss ratio.
func TestPartitionUCPBeatsStatic(t *testing.T) {
	rows, err := Partition(partitionOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		var static, ucp *partitionCell
		for i := range r.Cells {
			switch r.Cells[i].Policy {
			case "static":
				static = &r.Cells[i]
			case "ucp":
				ucp = &r.Cells[i]
			}
		}
		if static == nil || ucp == nil {
			t.Fatalf("%s: missing policy columns", r.Scenario)
		}
		s, u := static.aggMissRatio(), ucp.aggMissRatio()
		t.Logf("%s: static %.4f ucp %.4f (ucp alloc %s, %d rebalances)",
			r.Scenario, s, u, allocString(*ucp), ucp.Rebalances)
		if u > s+1e-9 {
			t.Errorf("%s: ucp aggregate miss ratio %.4f worse than static %.4f", r.Scenario, u, s)
		}
	}
}

// TestPartitionShardsAgreesWithExact is the second smoke gate: the
// online SHARDS-sampled allocator must match the exact-Mattson
// allocation within one way per tenant on at least 90%% of epochs.
func TestPartitionShardsAgreesWithExact(t *testing.T) {
	rows, err := Partition(partitionOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		for _, c := range r.Cells {
			if c.Policy == "static" {
				continue // static ignores the curves; agreement is vacuous
			}
			if c.ShadowEpochs == 0 {
				t.Fatalf("%s/%s: no shadow-validated epochs", r.Scenario, c.Policy)
			}
			frac := float64(c.AgreeEpochs) / float64(c.ShadowEpochs)
			t.Logf("%s/%s: %d/%d epochs agree (%.0f%%)", r.Scenario, c.Policy, c.AgreeEpochs, c.ShadowEpochs, 100*frac)
			if frac < 0.9 {
				t.Errorf("%s/%s: sampled allocator agreed with exact on only %.0f%% of epochs, want >= 90%%",
					r.Scenario, c.Policy, 100*frac)
			}
		}
	}
}

// TestPartitionLDISAwareDiffers is the third smoke gate: word-grain
// curves must change the allocation relative to line grain on at least
// one bundled scenario, and the summary's effective-capacity gain must
// show distillation reclaiming capacity.
func TestPartitionLDISAwareDiffers(t *testing.T) {
	rows, err := Partition(partitionOpts())
	if err != nil {
		t.Fatal(err)
	}
	differs := 0
	gained := false
	for _, r := range rows {
		for _, c := range r.Cells {
			if c.Policy != "ldis" {
				continue
			}
			t.Logf("%s/ldis: %d grain disagreements over %d epochs, mean eff gain %.2fx",
				r.Scenario, c.GrainDiffers, c.Epochs, c.meanEffGain())
			differs += c.GrainDiffers
			if c.meanEffGain() > 1.01 {
				gained = true
			}
		}
	}
	if differs == 0 {
		t.Error("word-grain curves never changed the allocation on any bundled scenario")
	}
	if !gained {
		t.Error("no scenario reported a word-grain effective-capacity gain above 1x")
	}
}

// TestPartitionDeterminism: the rendered tables are byte-identical
// across worker counts and batch sizes.
func TestPartitionDeterminism(t *testing.T) {
	base := partitionOpts()
	rows, err := Partition(base)
	if err != nil {
		t.Fatal(err)
	}
	want := renderPartition(rows)

	variants := []Options{
		{Accesses: base.Accesses, WarmupFrac: base.WarmupFrac, Parallel: 4},
		{Accesses: base.Accesses, WarmupFrac: base.WarmupFrac, Parallel: 2, BatchSize: 512},
	}
	for i, o := range variants {
		rows, err := Partition(o)
		if err != nil {
			t.Fatal(err)
		}
		if got := renderPartition(rows); got != want {
			t.Errorf("variant %d (parallel=%d batch=%d) diverged from sequential output", i, o.Parallel, o.BatchSize)
		}
	}
}

// TestPartitionCheckpointResume: a resumed run replays every cell from
// the checkpoint and renders byte-identical tables.
func TestPartitionCheckpointResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "partition.ck")
	o := partitionOpts()
	o.Partition.Tenants = []string{"twolf", "mcf"} // one scenario keeps the double run cheap

	ck, err := OpenCheckpoint(path, o)
	if err != nil {
		t.Fatal(err)
	}
	o.Checkpoint = ck
	rows, err := Partition(o)
	if err != nil {
		t.Fatal(err)
	}
	want := renderPartition(rows)
	if err := ck.Close(); err != nil {
		t.Fatal(err)
	}

	o.Checkpoint = nil
	ck2, err := OpenCheckpoint(path, o)
	if err != nil {
		t.Fatal(err)
	}
	defer ck2.Close()
	o.Checkpoint = ck2
	rows2, err := Partition(o)
	if err != nil {
		t.Fatal(err)
	}
	if got := renderPartition(rows2); got != want {
		t.Error("resumed run diverged from the original")
	}
	if ck2.Replayed() != 3 {
		t.Errorf("resumed run replayed %d cells, want all 3", ck2.Replayed())
	}
}
