package trace

import (
	"bytes"
	"errors"
	"slices"
	"testing"
	"testing/quick"

	"ldis/internal/mem"
)

func sampleTrace(n int) []mem.Access {
	accs := make([]mem.Access, n)
	for i := range accs {
		k := mem.Load
		if i%3 == 1 {
			k = mem.Store
		} else if i%7 == 2 {
			k = mem.IFetch
		}
		accs[i] = mem.Access{
			Addr:    mem.Addr(i * 24),
			PC:      mem.Addr(0x400000 + i*4),
			Kind:    k,
			Instret: uint32(i % 5),
		}
	}
	return accs
}

func TestSliceStream(t *testing.T) {
	accs := sampleTrace(5)
	s := NewSliceStream(accs)
	got := Collect(s, 0)
	if len(got) != 5 {
		t.Fatalf("Collect returned %d accesses", len(got))
	}
	for i := range got {
		if got[i] != accs[i] {
			t.Errorf("access %d: %v != %v", i, got[i], accs[i])
		}
	}
	if _, ok := s.Next(); ok {
		t.Error("exhausted stream should report !ok")
	}
}

// Drive refills ceil(n/B) times in B-record blocks, stops at the end
// of the stream, and leaves the records past n for the next caller.
func TestDriveBlockSchedule(t *testing.T) {
	for _, tc := range []struct {
		n, fed int
		blocks []int
	}{
		{0, 0, nil},
		{3, 3, []int{3}},
		{8, 8, []int{4, 4}},
		{9, 9, []int{4, 4, 1}},
		{12, 10, []int{4, 4, 2}},
	} {
		ss := NewSliceStream(sampleTrace(10))
		var blocks []int
		var got []mem.Access
		fed := Drive(ss, tc.n, make([]Record, 4), func(b []Record) {
			blocks = append(blocks, len(b))
			got = append(got, b...)
		})
		if fed != tc.fed || !slices.Equal(blocks, tc.blocks) || !slices.Equal(got, sampleTrace(10)[:tc.fed]) {
			t.Errorf("Drive(n=%d) fed %d in blocks %v, want %d in %v", tc.n, fed, blocks, tc.fed, tc.blocks)
		}
		if rest := Collect(ss, 0); len(rest) != 10-tc.fed {
			t.Errorf("Drive(n=%d) left %d records, want %d", tc.n, len(rest), 10-tc.fed)
		}
	}
}

func TestCollectLimit(t *testing.T) {
	got := Collect(NewSliceStream(sampleTrace(10)), 3)
	if len(got) != 3 {
		t.Errorf("Collect limited returned %d", len(got))
	}
}

func TestInterleave(t *testing.T) {
	a := NewSliceStream([]mem.Access{{Addr: 1}, {Addr: 2}})
	b := NewSliceStream([]mem.Access{{Addr: 10}, {Addr: 20}, {Addr: 30}})
	out := Collect(NewInterleave(a, b), 0)
	want := []mem.Addr{1, 10, 2, 20, 30}
	if len(out) != len(want) {
		t.Fatalf("Interleave yielded %d accesses, want %d", len(out), len(want))
	}
	for i, w := range want {
		if out[i].Addr != w {
			t.Errorf("pos %d: addr %d, want %d", i, out[i].Addr, w)
		}
	}
}

func TestInterleaveEmpty(t *testing.T) {
	if out := Collect(NewInterleave(), 0); len(out) != 0 {
		t.Error("empty interleave should yield nothing")
	}
}

func TestCodecRoundTrip(t *testing.T) {
	accs := sampleTrace(100)
	var buf bytes.Buffer
	if err := Write(&buf, accs); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if len(got) != len(accs) {
		t.Fatalf("round trip length %d != %d", len(got), len(accs))
	}
	for i := range got {
		if got[i] != accs[i] {
			t.Fatalf("record %d: %v != %v", i, got[i], accs[i])
		}
	}
}

func TestCodecEmptyTrace(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, nil); err != nil {
		t.Fatalf("Write empty: %v", err)
	}
	got, err := Read(&buf)
	if err != nil || len(got) != 0 {
		t.Fatalf("Read empty = %v, %v", got, err)
	}
}

func TestCodecRejectsBadMagic(t *testing.T) {
	buf := bytes.NewBufferString("NOPExxxxxxxxxxxxxxxx")
	if _, err := Read(buf); !errors.Is(err, ErrBadTrace) {
		t.Errorf("bad magic error = %v", err)
	}
}

func TestCodecRejectsTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, sampleTrace(3)); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if _, err := Read(bytes.NewReader(raw[:len(raw)-5])); !errors.Is(err, ErrBadTrace) {
		t.Errorf("truncated error = %v", err)
	}
}

func TestCodecRejectsBadKind(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, sampleTrace(1)); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[headerSize+16] = 99 // corrupt kind byte
	if _, err := Read(bytes.NewReader(raw)); !errors.Is(err, ErrBadTrace) {
		t.Errorf("bad kind error = %v", err)
	}
}

// Property: encode/decode is the identity on arbitrary traces.
func TestCodecProperty(t *testing.T) {
	f := func(raw []struct {
		Addr, PC uint64
		Kind     uint8
		Instret  uint32
	}) bool {
		accs := make([]mem.Access, len(raw))
		for i, r := range raw {
			accs[i] = mem.Access{
				Addr:    mem.Addr(r.Addr),
				PC:      mem.Addr(r.PC),
				Kind:    mem.AccessKind(r.Kind % 3),
				Instret: r.Instret,
			}
		}
		var buf bytes.Buffer
		if err := Write(&buf, accs); err != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil || len(got) != len(accs) {
			return false
		}
		for i := range got {
			if got[i] != accs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
