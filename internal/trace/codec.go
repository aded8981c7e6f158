package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"

	"ldis/internal/mem"
)

// Binary trace format: a fixed header followed by fixed-size records.
// Values are little-endian. The format is intentionally simple — the
// traces are synthetic and regenerable, so there is no compression.
//
//	header: magic "LDTR" | version u16 | reserved u16 | count u64
//	record: addr u64 | pc u64 | kind u8 | pad u8[3] | instret u32
const (
	magic        = "LDTR"
	formatVer    = 1
	headerSize   = 4 + 2 + 2 + 8
	recordSize   = 8 + 8 + 1 + 3 + 4
	maxTraceLen  = 1 << 32 // sanity bound when reading
	kindMaxValid = uint8(mem.IFetch)

	// maxPrealloc caps the records preallocated from the header's
	// count field: a corrupt or hostile header must not translate
	// into a multi-gigabyte allocation before the first record is
	// even read. The slice grows normally past this.
	maxPrealloc = 1 << 16
)

// ErrBadTrace is wrapped by all decode errors.
var ErrBadTrace = errors.New("trace: malformed trace")

// CorruptError is the typed error every decode failure resolves to: it
// pins the corruption to a byte offset and record index so a truncated
// or bit-flipped trace can be reported (and, in lenient mode, skipped)
// precisely. It wraps ErrBadTrace, so errors.Is(err, ErrBadTrace)
// continues to hold.
type CorruptError struct {
	// Offset is the byte offset of the start of the corrupt region
	// (the record's first byte, or 0 for a corrupt header).
	Offset int64
	// Record is the index of the offending record, -1 when the header
	// itself is corrupt.
	Record int64
	// Reason describes the corruption.
	Reason string
}

// Error implements error.
func (e *CorruptError) Error() string {
	if e.Record < 0 {
		return fmt.Sprintf("trace: malformed trace: header at offset %d: %s", e.Offset, e.Reason)
	}
	return fmt.Sprintf("trace: malformed trace: record %d at offset %d: %s", e.Record, e.Offset, e.Reason)
}

// Unwrap ties CorruptError into the ErrBadTrace error chain.
func (e *CorruptError) Unwrap() error { return ErrBadTrace }

// corruptHeader builds a header-level CorruptError.
func corruptHeader(off int64, format string, args ...any) *CorruptError {
	return &CorruptError{Offset: off, Record: -1, Reason: fmt.Sprintf(format, args...)}
}

// corruptRecord builds a record-level CorruptError; the offset is the
// record's first byte.
func corruptRecord(i uint64, format string, args ...any) *CorruptError {
	return &CorruptError{
		Offset: int64(headerSize) + int64(i)*recordSize,
		Record: int64(i),
		Reason: fmt.Sprintf(format, args...),
	}
}

// Write encodes accs to w in the binary trace format. It refuses,
// before writing a byte, any trace Read would reject: more than
// maxTraceLen records, or a kind above mem.IFetch.
func Write(w io.Writer, accs []mem.Access) error {
	if err := checkCount(uint64(len(accs))); err != nil {
		return err
	}
	for i, a := range accs {
		if uint8(a.Kind) > kindMaxValid {
			return fmt.Errorf("trace: access %d has invalid kind %d", i, a.Kind)
		}
	}
	bw := bufio.NewWriter(w)
	var hdr [headerSize]byte
	copy(hdr[:4], magic)
	binary.LittleEndian.PutUint16(hdr[4:6], formatVer)
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(len(accs)))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	// Encode whole records straight into the writer's free buffer.
	for len(accs) > 0 {
		if bw.Available() < recordSize {
			if err := bw.Flush(); err != nil {
				return err
			}
		}
		k := min(len(accs), bw.Available()/recordSize)
		buf := bw.AvailableBuffer()[:k*recordSize]
		for i, a := range accs[:k] {
			rec := (*[recordSize]byte)(buf[i*recordSize:])
			binary.LittleEndian.PutUint64(rec[0:8], uint64(a.Addr))
			binary.LittleEndian.PutUint64(rec[8:16], uint64(a.PC))
			rec[16], rec[17], rec[18], rec[19] = uint8(a.Kind), 0, 0, 0
			binary.LittleEndian.PutUint32(rec[20:24], a.Instret)
		}
		if _, err := bw.Write(buf); err != nil {
			return err
		}
		accs = accs[k:]
	}
	return bw.Flush()
}

// checkCount refuses a record count beyond what Read accepts.
func checkCount(n uint64) error {
	if n > maxTraceLen {
		return fmt.Errorf("trace: %d accesses exceed the format's limit of %d", n, uint64(maxTraceLen))
	}
	return nil
}

// Read decodes a full trace from r in strict mode: the first corrupt
// byte fails the whole decode. The returned error is a *CorruptError
// carrying the byte offset and record index of the corruption.
func Read(r io.Reader) ([]mem.Access, error) {
	accs, err := decode(r)
	if err != nil {
		return nil, err
	}
	return accs, nil
}

// ReadLenient decodes as much of a trace as is intact: it returns the
// valid record prefix together with a *CorruptError describing the
// first corruption (nil when the trace decodes cleanly). A corrupt
// header yields an empty prefix — there is no trustworthy data before
// it.
func ReadLenient(r io.Reader) ([]mem.Access, *CorruptError) {
	accs, err := decode(r)
	if err == nil {
		return accs, nil
	}
	// decode only ever fails with a *CorruptError.
	return accs, err.(*CorruptError)
}

// BatchReader decodes a trace incrementally, one record block at a
// time, so CLIs can feed the batched simulation pipeline without
// materializing the whole trace first. It implements BatchStream.
type BatchReader struct {
	br    *bufio.Reader
	count uint64 // records promised by the header
	read  uint64 // records decoded so far
	err   *CorruptError
}

// NewBatchReader reads and validates the trace header of r. Record
// decoding happens lazily in NextBatch.
func NewBatchReader(r io.Reader) (*BatchReader, error) {
	br := bufio.NewReader(r)
	var hdr [headerSize]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, corruptHeader(0, "reading header: %v", err)
	}
	if string(hdr[:4]) != magic {
		return nil, corruptHeader(0, "bad magic %q", hdr[:4])
	}
	if v := binary.LittleEndian.Uint16(hdr[4:6]); v != formatVer {
		return nil, corruptHeader(4, "unsupported version %d", v)
	}
	count := binary.LittleEndian.Uint64(hdr[8:16])
	if count > maxTraceLen {
		return nil, corruptHeader(8, "implausible record count %d", count)
	}
	return &BatchReader{br: br, count: count}, nil
}

// Count returns the record count promised by the trace header.
func (r *BatchReader) Count() uint64 { return r.count }

// Err returns the corruption encountered mid-stream, if any; it is set
// once NextBatch has returned a short count because of corruption
// (rather than clean exhaustion).
func (r *BatchReader) Err() *CorruptError { return r.err }

// Next decodes a single record, satisfying Stream so scalar consumers
// can replay a file directly; batch consumers reach the block path via
// Batched, which detects the NextBatch method.
func (r *BatchReader) Next() (Record, bool) {
	var one [1]Record
	if r.NextBatch(one[:]) == 0 {
		return Record{}, false
	}
	return one[0], true
}

// NextBatch implements BatchStream: it decodes up to len(dst) records.
// A short count means exhaustion or corruption; Err distinguishes.
//
// Records are decoded in runs of as many whole records as the reader's
// buffer holds: peeked, decoded in place, then discarded. Records and
// errors match one io.ReadFull per record for any reader whose bytes
// and errors depend only on stream position; a reader returning 100
// empty reads in a row fails with io.ErrNoProgress.
func (r *BatchReader) NextBatch(dst []Record) int {
	n := 0
	for n < len(dst) && r.err == nil && r.read < r.count {
		k := min(uint64(len(dst)-n), r.count-r.read, uint64(r.br.Size()/recordSize))
		buf, err := r.br.Peek(int(k) * recordSize)
		run := dst[n : n+len(buf)/recordSize]
		for i := range run {
			rec := (*[recordSize]byte)(buf[i*recordSize:])
			if kind := rec[16]; kind > kindMaxValid {
				r.read += uint64(i)
				r.err = corruptRecord(r.read, "invalid kind %d", kind)
				return n + i
			}
			run[i] = mem.Access{
				Addr:    mem.Addr(binary.LittleEndian.Uint64(rec[0:8])),
				PC:      mem.Addr(binary.LittleEndian.Uint64(rec[8:16])),
				Kind:    mem.AccessKind(rec[16]),
				Instret: binary.LittleEndian.Uint32(rec[20:24]),
			}
		}
		// The run is buffered, so Discard cannot fail.
		_, _ = r.br.Discard(len(run) * recordSize)
		n += len(run)
		r.read += uint64(len(run))
		if err != nil {
			// A short peek: io.ReadFull fails on the record the stream
			// ends in, with io.ErrUnexpectedEOF if any of it arrived.
			if err == io.EOF && len(buf)%recordSize != 0 {
				err = io.ErrUnexpectedEOF
			}
			r.err = corruptRecord(r.read, "truncated (%d of %d records present): %v", r.read, r.count, err)
		}
	}
	return n
}

// decode reads the header and as many valid records as it can. On
// corruption it returns the valid prefix plus a *CorruptError; strict
// and lenient callers differ only in whether they keep the prefix.
func decode(r io.Reader) ([]mem.Access, error) {
	br, err := NewBatchReader(r)
	if err != nil {
		return nil, err
	}
	accs := make([]mem.Access, 0, min(br.count, maxPrealloc))
	for br.err == nil && br.read < br.count {
		if len(accs) == cap(accs) {
			accs = slices.Grow(accs, 1)
		}
		accs = accs[:len(accs)+br.NextBatch(accs[len(accs):cap(accs)])]
	}
	if br.err != nil {
		return accs, br.err
	}
	return accs, nil
}
