package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"testing"
	"testing/iotest"

	"ldis/internal/mem"
)

// TestBatchReaderMatchesRead: streaming block decode must reproduce
// the one-shot strict decode exactly, at any block size — including
// sizes that straddle record boundaries oddly.
func TestBatchReaderMatchesRead(t *testing.T) {
	data := encodeTrace(t, 100)
	want, err := Read(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	for _, block := range []int{1, 3, 7, 64, 200} {
		br, err := NewBatchReader(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("block %d: %v", block, err)
		}
		if br.Count() != 100 {
			t.Fatalf("block %d: count = %d", block, br.Count())
		}
		var got []Record
		buf := make([]Record, block)
		for {
			n := br.NextBatch(buf)
			got = append(got, buf[:n]...)
			if n < len(buf) {
				break
			}
		}
		if br.Err() != nil {
			t.Fatalf("block %d: unexpected corruption: %v", block, br.Err())
		}
		if len(got) != len(want) {
			t.Fatalf("block %d: %d records, want %d", block, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("block %d: record %d = %+v, want %+v", block, i, got[i], want[i])
			}
		}
		// Exhausted reader keeps returning 0 without error.
		if n := br.NextBatch(buf); n != 0 || br.Err() != nil {
			t.Errorf("block %d: post-exhaustion NextBatch = %d, err %v", block, n, br.Err())
		}
	}
}

// TestBatchReaderScalarNext: the Stream compatibility shim yields the
// same sequence one record at a time.
func TestBatchReaderScalarNext(t *testing.T) {
	data := encodeTrace(t, 9)
	want, err := Read(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	br, err := NewBatchReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		rec, ok := br.Next()
		if !ok {
			t.Fatalf("stream dried up at record %d", i)
		}
		if rec != want[i] {
			t.Fatalf("record %d = %+v, want %+v", i, rec, want[i])
		}
	}
	if _, ok := br.Next(); ok {
		t.Error("Next yielded a record past the end")
	}
}

// TestBatchReaderTruncation: a truncated trace yields exactly the
// valid record prefix, then a positioned corruption error; further
// calls stay short without looping.
func TestBatchReaderTruncation(t *testing.T) {
	data := encodeTrace(t, 5)
	br, err := NewBatchReader(bytes.NewReader(data[:len(data)-recordSize-3]))
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]Record, 16)
	if n := br.NextBatch(buf); n != 3 {
		t.Fatalf("prefix = %d records, want 3", n)
	}
	ce := br.Err()
	if ce == nil || ce.Record != 3 {
		t.Fatalf("Err() = %v, want corruption at record 3", ce)
	}
	if n := br.NextBatch(buf); n != 0 {
		t.Errorf("NextBatch after corruption = %d", n)
	}
}

// TestBatchReaderInvalidKind: mid-trace garbage stops decoding at the
// corrupt record with its index in the error.
func TestBatchReaderInvalidKind(t *testing.T) {
	data := encodeTrace(t, 4)
	data[headerSize+2*recordSize+16] = 99 // record 2's kind byte
	br, err := NewBatchReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]Record, 16)
	if n := br.NextBatch(buf); n != 2 {
		t.Fatalf("prefix = %d records, want 2", n)
	}
	if ce := br.Err(); ce == nil || ce.Record != 2 {
		t.Fatalf("Err() = %v, want corruption at record 2", ce)
	}
}

// TestBatchReaderHeaderErrors: header validation happens eagerly at
// construction, mirroring the one-shot decoder's checks.
func TestBatchReaderHeaderErrors(t *testing.T) {
	good := encodeTrace(t, 1)
	badMagic := append([]byte("NOPE"), good[4:]...)
	badVersion := append([]byte(nil), good...)
	badVersion[4] = 9
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"short-header", good[:5]},
		{"bad-magic", badMagic},
		{"bad-version", badVersion},
	} {
		if _, err := NewBatchReader(bytes.NewReader(tc.data)); err == nil {
			t.Errorf("%s: no error", tc.name)
		}
	}
}

// refBatchReader is the record-at-a-time decoder BatchReader.NextBatch
// replaced: one io.ReadFull per record. It stays here as the oracle
// for the run decoder; every record, count and error must match it.
type refBatchReader struct {
	br    *bufio.Reader
	count uint64
	read  uint64
	err   *CorruptError
}

// newRefBatchReader validates the header through NewBatchReader, whose
// header code the run decoder did not change, and takes over its reader.
func newRefBatchReader(r io.Reader) (*refBatchReader, error) {
	b, err := NewBatchReader(r)
	if err != nil {
		return nil, err
	}
	return &refBatchReader{br: b.br, count: b.count}, nil
}

func (r *refBatchReader) NextBatch(dst []Record) int {
	var rec [recordSize]byte
	for i := range dst {
		if r.err != nil || r.read >= r.count {
			return i
		}
		if _, err := io.ReadFull(r.br, rec[:]); err != nil {
			r.err = corruptRecord(r.read, "truncated (%d of %d records present): %v", r.read, r.count, err)
			return i
		}
		kind := rec[16]
		if kind > kindMaxValid {
			r.err = corruptRecord(r.read, "invalid kind %d", kind)
			return i
		}
		dst[i] = mem.Access{
			Addr:    mem.Addr(binary.LittleEndian.Uint64(rec[0:8])),
			PC:      mem.Addr(binary.LittleEndian.Uint64(rec[8:16])),
			Kind:    mem.AccessKind(kind),
			Instret: binary.LittleEndian.Uint32(rec[20:24]),
		}
		r.read++
	}
	return len(dst)
}

// errBoom is the custom reader error of the equivalence tests.
var errBoom = errors.New("boom")

// checkMatchesRef decodes two fresh readers over data, one with the
// run decoder and one with refBatchReader, in blocks of size records,
// and reports the first call whose count, records or error differ. It
// keeps calling until both have returned 0 twice, so the post-error
// and post-exhaustion behaviour is compared too.
func checkMatchesRef(t *testing.T, name string, data []byte, wrap func(io.Reader) io.Reader, size int) {
	t.Helper()
	got, gerr := NewBatchReader(wrap(bytes.NewReader(data)))
	want, werr := newRefBatchReader(wrap(bytes.NewReader(data)))
	if !sameError(gerr, werr) {
		t.Fatalf("%s: header error %v, want %v", name, gerr, werr)
	}
	if gerr != nil {
		return
	}
	gbuf, wbuf := make([]Record, size), make([]Record, size)
	for call, zeros := 0, 0; zeros < 2; call++ {
		gn, wn := got.NextBatch(gbuf), want.NextBatch(wbuf)
		if gn != wn {
			t.Fatalf("%s: call %d decoded %d records, want %d", name, call, gn, wn)
		}
		for i := range wn {
			if gbuf[i] != wbuf[i] {
				t.Fatalf("%s: call %d record %d = %+v, want %+v", name, call, i, gbuf[i], wbuf[i])
			}
		}
		if ge, we := got.Err(), want.err; !sameCorruption(ge, we) {
			t.Fatalf("%s: call %d Err() = %v, want %v", name, call, ge, we)
		}
		if wn == 0 {
			zeros++
		}
	}
}

// sameError compares header errors by value.
func sameError(a, b error) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Error() == b.Error()
}

// sameCorruption compares two record errors field by field.
func sameCorruption(a, b *CorruptError) bool {
	if a == nil || b == nil {
		return a == b
	}
	return *a == *b
}

// TestBatchReaderMatchesReference is the exact-equivalence table: the
// run decoder against refBatchReader over clean, truncated and corrupt
// traces, short-reading and failing readers, and block sizes on both
// sides of the 170-record run a 4 KiB bufio buffer holds.
func TestBatchReaderMatchesReference(t *testing.T) {
	long := encodeTrace(t, 1000) // runs straddle several bufio refills
	short := encodeTrace(t, 5)

	type input struct {
		name string
		data []byte
	}
	inputs := []input{{"clean-1000", long}, {"clean-5", short}, {"empty", encodeTrace(t, 0)}}
	for cut := 0; cut < len(short); cut++ {
		inputs = append(inputs, input{fmt.Sprintf("cut-%d", cut), short[:cut]})
	}
	// With the 16-byte header, runs are records [0,170), [170,340), ...
	for _, rec := range []int{0, 85, 169, 170, 339, 340, 999} {
		bad := append([]byte(nil), long...)
		bad[headerSize+rec*recordSize+16] = 9
		inputs = append(inputs, input{fmt.Sprintf("bad-kind-%d", rec), bad})
	}
	over := append([]byte(nil), long...)
	binary.LittleEndian.PutUint64(over[8:16], 1200) // announce 1200, ship 1000
	inputs = append(inputs, input{"count-exceeds-records", over})
	under := append([]byte(nil), long...)
	binary.LittleEndian.PutUint64(under[8:16], 400) // trailing records are ignored
	inputs = append(inputs, input{"count-below-records", under})

	type reader struct {
		name string
		wrap func(io.Reader) io.Reader
	}
	failAfter := func(n int64) reader {
		return reader{fmt.Sprintf("fail-after-%d", n), func(r io.Reader) io.Reader {
			return io.MultiReader(io.LimitReader(r, n), iotest.ErrReader(errBoom))
		}}
	}
	readers := []reader{
		{"plain", func(r io.Reader) io.Reader { return r }},
		{"one-byte", iotest.OneByteReader},
		{"half", iotest.HalfReader},
		{"data-err", iotest.DataErrReader},
		{"timeout", iotest.TimeoutReader},
		failAfter(0), failAfter(10), failAfter(headerSize),
		failAfter(headerSize + 2*recordSize), failAfter(headerSize + 2*recordSize + 5),
		failAfter(4096), failAfter(4096 + 7), failAfter(headerSize + 300*recordSize),
	}
	for _, size := range []int{1, 3, 7, 170, 171, 4096} {
		for _, rd := range readers {
			for _, in := range inputs {
				checkMatchesRef(t, fmt.Sprintf("%s/%s/dst-%d", in.name, rd.name, size), in.data, rd.wrap, size)
			}
		}
	}
}

// recordLoop is an endless reader of one record's bytes repeated.
type recordLoop struct {
	rec [recordSize]byte
	off int
}

func (l *recordLoop) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = l.rec[l.off]
		l.off = (l.off + 1) % recordSize
	}
	return len(p), nil
}

// TestNextBatchAllocatesNothing pins the steady-state decode path as
// allocation-free: a NextBatch call that refills the buffer and decodes
// a full block must not allocate.
func TestNextBatchAllocatesNothing(t *testing.T) {
	hdr := make([]byte, headerSize)
	copy(hdr, magic)
	binary.LittleEndian.PutUint16(hdr[4:6], formatVer)
	binary.LittleEndian.PutUint64(hdr[8:16], maxTraceLen)
	loop := &recordLoop{}
	binary.LittleEndian.PutUint64(loop.rec[0:8], 0x1000)
	loop.rec[16] = uint8(mem.Store)
	br, err := NewBatchReader(io.MultiReader(bytes.NewReader(hdr), loop))
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]Record, DefaultBatchSize)
	allocs := testing.AllocsPerRun(20, func() {
		if n := br.NextBatch(buf); n != len(buf) {
			t.Fatalf("NextBatch = %d, err %v", n, br.Err())
		}
	})
	if allocs != 0 {
		t.Errorf("NextBatch allocated %.1f times per call", allocs)
	}
}

// BenchmarkNextBatch decodes a 1M-record trace in DefaultBatchSize
// blocks; ns/op divided by 1<<20 is the decode cost per record.
func BenchmarkNextBatch(b *testing.B) {
	var enc bytes.Buffer
	if err := Write(&enc, sampleTrace(1<<20)); err != nil {
		b.Fatal(err)
	}
	buf := make([]Record, DefaultBatchSize)
	b.ReportAllocs()
	for b.Loop() {
		br, err := NewBatchReader(bytes.NewReader(enc.Bytes()))
		if err != nil {
			b.Fatal(err)
		}
		for br.NextBatch(buf) == len(buf) {
		}
		if br.Err() != nil {
			b.Fatal(br.Err())
		}
	}
}
