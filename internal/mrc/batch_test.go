package mrc

import (
	"reflect"
	"testing"

	"ldis/internal/mem"
	"ldis/internal/trace"
)

func batchRecords(n, lines int) []trace.Record {
	recs := make([]trace.Record, n)
	for i := range recs {
		k := mem.Load
		switch {
		case i%11 == 0:
			k = mem.IFetch // must be skipped: the curves model data refs
		case i%5 == 0:
			k = mem.Store
		}
		recs[i] = trace.Record{Addr: mem.LineAddr(i % lines).WordAddr(i % 8), Kind: k, Instret: 1}
	}
	return recs
}

// AccessBatch must feed exactly the data records to the stack,
// skipping instruction fetches — the same filter the experiment driver
// applies one access at a time.
func TestAccessBatchMatchesScalar(t *testing.T) {
	recs := batchRecords(20_000, 2048)

	batched, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	batched.AccessBatch(recs)

	scalar, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		if !recs[i].Kind.IsData() {
			continue
		}
		scalar.Access(recs[i].Line(), recs[i].Word())
	}

	if batched.Refs() != scalar.Refs() {
		t.Errorf("refs = %v, scalar %v", batched.Refs(), scalar.Refs())
	}
	if !reflect.DeepEqual(batched.LineCurve("b"), scalar.LineCurve("b")) {
		t.Error("line curves diverged")
	}
	if !reflect.DeepEqual(batched.WordCurve("b"), scalar.WordCurve("b")) {
		t.Error("word curves diverged")
	}
}

func TestAccessBatchZeroAllocs(t *testing.T) {
	recs := batchRecords(256, 1024)
	e, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	e.AccessBatch(recs) // steady state: line table fully grown
	if n := testing.AllocsPerRun(500, func() { e.AccessBatch(recs) }); n != 0 {
		t.Errorf("AccessBatch allocates %.1f/op", n)
	}
}
