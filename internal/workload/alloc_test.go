package workload

import (
	"testing"

	"ldis/internal/mem"
	"ldis/internal/trace"
)

// TestStreamNextZeroAllocs pins workload generation at zero allocations
// per access, on every registered profile and on both the scalar Next
// and the native NextBatch path: visits hand out subslices of the
// shared mask table (or the two-phase visitor's shared word lists)
// instead of building a word list per visit.
func TestStreamNextZeroAllocs(t *testing.T) {
	for _, name := range Names() {
		p, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		st := p.Stream()
		// Warm the stream past first-visit setup.
		for i := 0; i < 10_000; i++ {
			if _, ok := st.Next(); !ok {
				t.Fatal("stream dried up")
			}
		}
		if n := testing.AllocsPerRun(10_000, func() {
			st.Next()
		}); n != 0 {
			t.Errorf("%s: stream Next allocates %.2f/op", name, n)
		}

		bs, ok := p.Stream().(trace.BatchStream)
		if !ok {
			t.Fatalf("%s: stream has no native NextBatch", name)
		}
		buf := make([]mem.Access, 256)
		bs.NextBatch(buf)
		if n := testing.AllocsPerRun(200, func() {
			if bs.NextBatch(buf) != len(buf) {
				t.Fatal("stream dried up")
			}
		}); n != 0 {
			t.Errorf("%s: stream NextBatch allocates %.2f/op", name, n)
		}
	}
}
