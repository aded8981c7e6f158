package exp

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sort"
	"strings"
	"sync"

	"ldis/internal/obs"
)

// The cell store: every completed (row, config key) cell of a run is
// kept in one keyed map, so each cell is simulated at most once per run
// and served to every experiment that reads it. Validate installs an
// in-memory store; OpenCheckpoint opens one backed by a versioned,
// CRC-guarded record log, so a sweep killed at any point — including
// mid-write — can be resumed by replaying the completed cells and
// re-running only the remainder. Because each cell is a pure function
// of (row, config key, options), a resumed sweep renders byte-identical
// tables to an uninterrupted one, and a replayed cell serves every
// experiment that lists its key.
//
// File format (<out>/checkpoint.ldisck), all little-endian:
//
//	header: magic "LDCK" | version u16 | reserved u16 | fingerprint u64
//	record: payload-length u32 | crc32(payload) u32 | payload
//	payload: gob{Row, Key string; Data []byte}
//
// The fingerprint pins the options that produced the cells (the run
// manifest's params: scale, benchmark set, experiment knobs); opening a
// checkpoint with different options is refused rather than silently
// mixing incompatible results, and an in-memory store is bound to its
// options' fingerprint the same way (see Options.Validate).
// The file contains simulated results only — no wall-clock timestamps
// — so checkpointed runs stay deterministic.
const (
	ckMagic      = "LDCK"
	ckVersion    = 2
	ckHeaderSize = 4 + 2 + 2 + 8
	// ckMaxPayload bounds one record; a longer length prefix marks a
	// corrupt tail.
	ckMaxPayload = 1 << 24

	// CheckpointFile is the file name the CLI uses inside its -out
	// directory.
	CheckpointFile = "checkpoint.ldisck"
)

// ckRecord is the gob payload of one checkpoint record.
type ckRecord struct {
	Row  string
	Key  string
	Data []byte
}

// ckEntry is one stored cell's gob payload; loaded marks a record read
// from the checkpoint file when it was opened.
type ckEntry struct {
	data   []byte
	loaded bool
}

// Checkpoint is a run's store of completed grid cells, in memory or
// backed by an append-only checkpoint file. It is safe for concurrent
// use by scheduler workers.
type Checkpoint struct {
	mu   sync.Mutex
	f    *os.File
	path string // empty for an in-memory store
	fp   uint64
	done map[string]ckEntry

	loaded   int
	replayed int
	recorded int
}

// newStore returns an empty in-memory store bound to a fingerprint.
func newStore(fp uint64) *Checkpoint {
	return &Checkpoint{fp: fp, done: make(map[string]ckEntry)}
}

func (c *Checkpoint) fileBacked() bool { return c.path != "" }

func ckKey(row, key string) string { return row + "\x00" + key }

// OpenCheckpoint opens (or creates) the checkpoint at path for the
// given options. An existing file is validated against the options
// fingerprint and scanned; a corrupt or partially-written tail — the
// signature of a run killed mid-append — is discarded and truncated
// away, keeping the valid record prefix. The caller must Close the
// returned checkpoint.
func OpenCheckpoint(path string, o Options) (*Checkpoint, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("exp: opening checkpoint: %w", err)
	}
	fp := o.Fingerprint()
	c := newStore(fp)
	c.f, c.path = f, path
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		f.Close()
		return nil, err
	}
	if size == 0 {
		var hdr [ckHeaderSize]byte
		copy(hdr[:4], ckMagic)
		binary.LittleEndian.PutUint16(hdr[4:6], ckVersion)
		binary.LittleEndian.PutUint64(hdr[8:16], fp)
		if _, err := f.Write(hdr[:]); err != nil {
			f.Close()
			return nil, fmt.Errorf("exp: writing checkpoint header: %w", err)
		}
		return c, nil
	}
	if err := c.load(fp); err != nil {
		f.Close()
		return nil, err
	}
	return c, nil
}

// load validates the header, reads the valid record prefix, and
// truncates any corrupt tail so appends resume from a clean boundary.
func (c *Checkpoint) load(fingerprint uint64) error {
	if _, err := c.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	var hdr [ckHeaderSize]byte
	if _, err := io.ReadFull(c.f, hdr[:]); err != nil {
		return fmt.Errorf("exp: checkpoint %s: truncated header: %v", c.path, err)
	}
	if string(hdr[:4]) != ckMagic {
		return fmt.Errorf("exp: checkpoint %s: bad magic %q", c.path, hdr[:4])
	}
	if v := binary.LittleEndian.Uint16(hdr[4:6]); v != ckVersion {
		return fmt.Errorf("exp: checkpoint %s: unsupported version %d", c.path, v)
	}
	if fp := binary.LittleEndian.Uint64(hdr[8:16]); fp != fingerprint {
		return fmt.Errorf("exp: checkpoint %s was written with different options (fingerprint %016x, want %016x); rerun without -resume or delete it", c.path, fp, fingerprint)
	}
	valid := int64(ckHeaderSize) + scanRecords(c.f, func(rec ckRecord) {
		c.done[ckKey(rec.Row, rec.Key)] = ckEntry{data: rec.Data, loaded: true}
		c.loaded++
	})
	if err := c.f.Truncate(valid); err != nil {
		return fmt.Errorf("exp: repairing checkpoint tail: %w", err)
	}
	if _, err := c.f.Seek(valid, io.SeekStart); err != nil {
		return err
	}
	return nil
}

// scanRecords reads the checkpoint record log from r (positioned just
// past the header), invoking fn for each structurally valid record,
// and returns the byte length of the valid record prefix. The first
// torn, truncated, oversized, CRC-mismatched, or undecodable record
// ends the scan: everything from it onward is the corrupt tail the
// caller truncates away. It never fails — hostile input just shortens
// the valid prefix — which is the property the checkpoint fuzz target
// exercises.
func scanRecords(r io.Reader, fn func(rec ckRecord)) int64 {
	bc := newByteCounter(r)
	var valid int64
	for {
		var pre [8]byte
		if _, err := io.ReadFull(bc, pre[:]); err != nil {
			return valid // clean EOF or torn length prefix: stop at last valid record
		}
		n := binary.LittleEndian.Uint32(pre[0:4])
		sum := binary.LittleEndian.Uint32(pre[4:8])
		if n == 0 || n > ckMaxPayload {
			return valid
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(bc, payload); err != nil {
			return valid
		}
		if crc32.ChecksumIEEE(payload) != sum {
			return valid
		}
		var rec ckRecord
		if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&rec); err != nil {
			return valid
		}
		fn(rec)
		valid = bc.n
	}
}

// byteCounter counts bytes consumed from an io.Reader.
type byteCounter struct {
	r io.Reader
	n int64
}

func newByteCounter(r io.Reader) *byteCounter { return &byteCounter{r: r} }

func (b *byteCounter) Read(p []byte) (int, error) {
	n, err := b.r.Read(p)
	b.n += int64(n)
	return n, err
}

// storeGet returns a stored cell. Hits on records loaded from the file
// count as replays.
func storeGet[T any](c *Checkpoint, row, key string) (T, bool) {
	var v T
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.done[ckKey(row, key)]
	if !ok || decodeCell(e.data, &v) != nil {
		// An undecodable but CRC-valid record (e.g. a row type changed
		// shape) is re-simulated and overwritten.
		return v, false
	}
	if e.loaded {
		c.replayed++
	}
	return v, true
}

// storePut stores one completed cell. A file-backed store also appends
// it as one record, written with a single Write call so a kill can at
// worst tear the final record — exactly the case load repairs.
func storePut[T any](c *Checkpoint, row, key string, v T, co *obs.Cell) error {
	data, err := encodeCell(v)
	if err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.fileBacked() {
		tok := co.Spans().Begin(obs.StageCheckpointWrite)
		err := c.append(row, key, data)
		co.Spans().End(obs.StageCheckpointWrite, tok)
		if err != nil {
			return err
		}
	}
	c.done[ckKey(row, key)] = ckEntry{data: data}
	c.recorded++
	return nil
}

// append writes one cell's record to the checkpoint file; c.mu is held.
func (c *Checkpoint) append(row, key string, data []byte) error {
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(ckRecord{Row: row, Key: key, Data: data}); err != nil {
		return fmt.Errorf("exp: encoding checkpoint record: %w", err)
	}
	if payload.Len() > ckMaxPayload {
		return fmt.Errorf("exp: checkpoint record for %s/%s too large (%d bytes)", row, key, payload.Len())
	}
	buf := make([]byte, 8+payload.Len())
	binary.LittleEndian.PutUint32(buf[0:4], uint32(payload.Len()))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(payload.Bytes()))
	copy(buf[8:], payload.Bytes())
	if _, err := c.f.Write(buf); err != nil {
		return fmt.Errorf("exp: appending checkpoint record: %w", err)
	}
	return nil
}

// Loaded reports how many completed cells the checkpoint held when
// opened.
func (c *Checkpoint) Loaded() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.loaded
}

// Replayed reports how many cells have been served from records loaded
// from the checkpoint file instead of re-simulated since it was
// opened; a loaded record read by several experiments counts once per
// read. Cells simulated earlier in the same run are not counted.
func (c *Checkpoint) Replayed() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.replayed
}

// Recorded reports how many newly completed cells have been stored
// (and, for a file-backed store, appended) since it was opened.
func (c *Checkpoint) Recorded() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.recorded
}

// Cells returns the sorted "row/key" names of all completed cells — a
// debugging and test aid.
func (c *Checkpoint) Cells() []string {
	c.mu.Lock()
	keys := make([]string, 0, len(c.done))
	//ldis:nondet-ok key collection only; the slice is sorted immediately below
	for k := range c.done {
		keys = append(keys, strings.ReplaceAll(k, "\x00", "/"))
	}
	c.mu.Unlock()
	sort.Strings(keys)
	return keys
}

// Close flushes and closes the backing file.
func (c *Checkpoint) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.f == nil {
		return nil
	}
	err := c.f.Close()
	c.f = nil
	return err
}

// encodeCell serializes one cell result for checkpointing.
func encodeCell[T any](v T) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// decodeCell deserializes a checkpointed cell result.
func decodeCell[T any](data []byte, v *T) error {
	return gob.NewDecoder(bytes.NewReader(data)).Decode(v)
}
