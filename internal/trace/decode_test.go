package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"ldis/internal/mem"
)

// encodeTrace is a test helper producing the canonical bytes of a
// small trace.
func encodeTrace(t *testing.T, n int) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, sampleTrace(n)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDecodeErrorPositions is the table-test mirror of the committed
// fuzz corpus: every malformed input must fail with a *CorruptError
// whose offset and record index identify the corruption, and lenient
// mode must return exactly the valid record prefix.
func TestDecodeErrorPositions(t *testing.T) {
	full := encodeTrace(t, 3)

	badKind := append([]byte(nil), full...)
	badKind[headerSize+recordSize+16] = 99 // corrupt record 1's kind byte

	overCount := append([]byte(nil), full...)
	binary.LittleEndian.PutUint64(overCount[8:16], 5) // announce 5, ship 3

	badVersion := append([]byte(nil), full...)
	binary.LittleEndian.PutUint16(badVersion[4:6], 9)

	hugeCount := append([]byte(nil), full[:headerSize]...)
	binary.LittleEndian.PutUint64(hugeCount[8:16], maxTraceLen+1)

	headerGarbage := append([]byte(nil), full[:headerSize]...)
	binary.LittleEndian.PutUint64(headerGarbage[8:16], 2)
	headerGarbage = append(headerGarbage, bytes.Repeat([]byte{0xff}, 2*recordSize)...)

	cases := []struct {
		name       string
		data       []byte
		wantRecord int64 // -1 = header
		wantOffset int64
		wantPrefix int // records recovered in lenient mode
	}{
		// The first five mirror the fuzz seed corpus entries.
		{"empty-trace", nil, -1, 0, 0},
		{"magic-only", []byte("LDTR"), -1, 0, 0},
		{"truncated-record", full[:len(full)-5], 2, headerSize + 2*recordSize, 2},
		{"header-then-garbage", headerGarbage, 0, headerSize, 0},
		{"bad-magic", []byte("NOPExxxxxxxxxxxxxxxx"), -1, 0, 0},
		// Further positional cases.
		{"truncated-mid-first-record", full[:headerSize+3], 0, headerSize, 0},
		{"count-exceeds-records", overCount, 3, headerSize + 3*recordSize, 3},
		{"unsupported-version", badVersion, -1, 4, 0},
		{"implausible-count", hugeCount, -1, 8, 0},
		{"invalid-kind-mid-trace", badKind, 1, headerSize + recordSize, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Read(bytes.NewReader(tc.data))
			if !errors.Is(err, ErrBadTrace) {
				t.Fatalf("strict err = %v, want ErrBadTrace chain", err)
			}
			var ce *CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("strict err = %v, want *CorruptError", err)
			}
			if ce.Record != tc.wantRecord || ce.Offset != tc.wantOffset {
				t.Errorf("strict error at record %d offset %d, want record %d offset %d (%v)",
					ce.Record, ce.Offset, tc.wantRecord, tc.wantOffset, ce)
			}
			if !strings.Contains(ce.Error(), "offset") {
				t.Errorf("error message lacks offset context: %v", ce)
			}

			prefix, lerr := ReadLenient(bytes.NewReader(tc.data))
			if lerr == nil {
				t.Fatal("lenient decode of corrupt input reported no error")
			}
			if len(prefix) != tc.wantPrefix {
				t.Errorf("lenient prefix = %d records, want %d", len(prefix), tc.wantPrefix)
			}
			if lerr.Record != tc.wantRecord || lerr.Offset != tc.wantOffset {
				t.Errorf("lenient error = %v, want record %d offset %d", lerr, tc.wantRecord, tc.wantOffset)
			}
		})
	}
}

// TestReadLenientCleanTrace: a well-formed trace decodes identically
// in both modes with a nil lenient error.
func TestReadLenientCleanTrace(t *testing.T) {
	data := encodeTrace(t, 7)
	strict, err := Read(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	lenient, lerr := ReadLenient(bytes.NewReader(data))
	if lerr != nil {
		t.Fatalf("lenient err = %v", lerr)
	}
	if len(strict) != 7 || len(lenient) != 7 {
		t.Fatalf("lengths: strict %d lenient %d", len(strict), len(lenient))
	}
	for i := range strict {
		if strict[i] != lenient[i] {
			t.Fatalf("record %d differs between modes", i)
		}
	}
}

// TestReadLenientPrefixMatchesOriginal: the recovered prefix of a
// truncated trace is bit-identical to the corresponding records of the
// original.
func TestReadLenientPrefixMatchesOriginal(t *testing.T) {
	accs := sampleTrace(10)
	var buf bytes.Buffer
	if err := Write(&buf, accs); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for cut := headerSize; cut < len(data); cut += recordSize/2 + 1 {
		prefix, lerr := ReadLenient(bytes.NewReader(data[:cut]))
		wantLen := (cut - headerSize) / recordSize
		if len(prefix) != wantLen {
			t.Fatalf("cut %d: prefix %d records, want %d (%v)", cut, len(prefix), wantLen, lerr)
		}
		for i := range prefix {
			if prefix[i] != accs[i] {
				t.Fatalf("cut %d: record %d = %+v, want %+v", cut, i, prefix[i], accs[i])
			}
		}
		if wantLen < 10 && lerr == nil {
			t.Fatalf("cut %d: truncation not reported", cut)
		}
	}
}

// TestDecodeHostileCountAllocation: a header announcing 2^32 records
// must not preallocate for them.
func TestDecodeHostileCountAllocation(t *testing.T) {
	hdr := make([]byte, headerSize)
	copy(hdr, magic)
	binary.LittleEndian.PutUint16(hdr[4:6], formatVer)
	binary.LittleEndian.PutUint64(hdr[8:16], maxTraceLen) // largest admissible count
	allocs := testing.AllocsPerRun(3, func() {
		Read(bytes.NewReader(hdr)) //nolint:errcheck — allocation behavior under test
	})
	// A full preallocation would be gigabytes; the capped path stays
	// within a few small allocations (reader, slice, error).
	if allocs > 16 {
		t.Errorf("hostile header cost %.0f allocations", allocs)
	}
}

// TestDecodeFuzzCorpus replays the committed fuzz seed corpus through
// both decode modes: no input may panic, and every failure must be a
// positioned *CorruptError.
func TestDecodeFuzzCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzRead")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading corpus: %v", err)
	}
	if len(entries) == 0 {
		t.Fatal("fuzz corpus is empty")
	}
	for _, e := range entries {
		data, err := corpusBytes(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		t.Run(e.Name(), func(t *testing.T) {
			if _, err := Read(bytes.NewReader(data)); err != nil {
				var ce *CorruptError
				if !errors.As(err, &ce) {
					t.Errorf("strict error is not a *CorruptError: %v", err)
				}
			}
			prefix, lerr := ReadLenient(bytes.NewReader(data))
			if lerr != nil && len(prefix) > 0 && lerr.Record >= 0 &&
				int64(len(prefix)) != lerr.Record {
				t.Errorf("prefix length %d disagrees with corrupt record index %d", len(prefix), lerr.Record)
			}
		})
	}
}

// corpusBytes parses one `go test fuzz v1` seed file with a single
// []byte argument.
func corpusBytes(path string) ([]byte, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	lines := strings.SplitN(strings.TrimSpace(string(raw)), "\n", 2)
	if len(lines) < 2 {
		return nil, nil // corpus entry with empty payload
	}
	body := strings.TrimSpace(lines[1])
	body = strings.TrimPrefix(body, "[]byte(")
	body = strings.TrimSuffix(body, ")")
	s, err := strconv.Unquote(body)
	if err != nil {
		return nil, err
	}
	return []byte(s), nil
}

// TestInterleaveZeroAndDropout: zero streams yield nothing; a stream
// that runs dry mid-rotation drops out without disturbing the order of
// the survivors.
func TestInterleaveZeroAndDropout(t *testing.T) {
	if _, ok := NewInterleave().Next(); ok {
		t.Error("zero-stream interleave yielded an access")
	}
	a := NewSliceStream([]mem.Access{{Addr: 1}})
	b := NewSliceStream([]mem.Access{{Addr: 10}, {Addr: 20}, {Addr: 30}})
	c := NewSliceStream(nil) // dry from the start
	out := Collect(NewInterleave(a, c, b), 0)
	want := []mem.Addr{1, 10, 20, 30}
	if len(out) != len(want) {
		t.Fatalf("yielded %d accesses, want %d", len(out), len(want))
	}
	for i, w := range want {
		if out[i].Addr != w {
			t.Errorf("pos %d: addr %d, want %d", i, out[i].Addr, w)
		}
	}
}

// TestInterleaveDeterministicOrder: interleaving is a pure function of
// construction order — the same streams in the same order always yield
// the same sequence, and a permuted construction order yields exactly
// the corresponding permuted rotation (not an arbitrary schedule).
func TestInterleaveDeterministicOrder(t *testing.T) {
	mk := func() (Stream, Stream) {
		return NewSliceStream([]mem.Access{{Addr: 1}, {Addr: 2}}),
			NewSliceStream([]mem.Access{{Addr: 10}, {Addr: 20}})
	}
	a1, b1 := mk()
	a2, b2 := mk()
	first := Collect(NewInterleave(a1, b1), 0)
	second := Collect(NewInterleave(a2, b2), 0)
	if len(first) != len(second) {
		t.Fatal("same construction produced different lengths")
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("pos %d differs for identical construction", i)
		}
	}
	a3, b3 := mk()
	swapped := Collect(NewInterleave(b3, a3), 0)
	want := []mem.Addr{10, 1, 20, 2}
	for i, w := range want {
		if swapped[i].Addr != w {
			t.Errorf("swapped pos %d: addr %d, want %d", i, swapped[i].Addr, w)
		}
	}
}

// TestWriteRejectsUnreadableTraces: Write must refuse, before writing
// anything, a trace Read would reject, rather than emit it.
func TestWriteRejectsUnreadableTraces(t *testing.T) {
	for _, accs := range [][]mem.Access{
		{{Addr: 64, Kind: 9}},
		{{Addr: 64, Kind: mem.Load}, {Addr: 128, Kind: mem.IFetch + 1}},
		append(sampleTrace(500), mem.Access{Kind: 255}),
	} {
		var buf bytes.Buffer
		if err := Write(&buf, accs); err == nil {
			t.Errorf("Write accepted a trace with kind %d", accs[len(accs)-1].Kind)
		}
		if buf.Len() != 0 {
			t.Errorf("Write emitted %d bytes before failing", buf.Len())
		}
	}
	// Traces that long cannot be built in a test; the count check
	// Write runs first is tested directly.
	if err := checkCount(maxTraceLen + 1); err == nil {
		t.Error("a count above maxTraceLen was accepted")
	}
	if err := checkCount(maxTraceLen); err != nil {
		t.Errorf("the largest readable count was refused: %v", err)
	}
}

// TestWriteEncodingUnchanged pins the encoded bytes of a trace long
// enough to span several writer buffers against a record-at-a-time
// encoding of the documented format.
func TestWriteEncodingUnchanged(t *testing.T) {
	accs := sampleTrace(1000)
	accs[7] = mem.Access{Addr: ^mem.Addr(0), PC: 1 << 63, Kind: mem.IFetch, Instret: ^uint32(0)}
	want := make([]byte, headerSize, headerSize+len(accs)*recordSize)
	copy(want, magic)
	binary.LittleEndian.PutUint16(want[4:6], formatVer)
	binary.LittleEndian.PutUint64(want[8:16], uint64(len(accs)))
	for _, a := range accs {
		want = binary.LittleEndian.AppendUint64(want, uint64(a.Addr))
		want = binary.LittleEndian.AppendUint64(want, uint64(a.PC))
		want = append(want, uint8(a.Kind), 0, 0, 0)
		want = binary.LittleEndian.AppendUint32(want, a.Instret)
	}
	var buf bytes.Buffer
	if err := Write(&buf, accs); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatal("encoded bytes differ from the documented format")
	}
	// A writer that fails mid-stream has its error returned.
	if err := Write(&failWriter{left: 5000}, accs); !errors.Is(err, errBoom) {
		t.Fatalf("Write to a failing writer = %v, want %v", err, errBoom)
	}
}

// failWriter accepts left bytes, then fails with errBoom.
type failWriter struct{ left int }

func (w *failWriter) Write(p []byte) (int, error) {
	if len(p) > w.left {
		n := w.left
		w.left = 0
		return n, errBoom
	}
	w.left -= len(p)
	return len(p), nil
}
