package exp

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"hash/crc32"
	"testing"
)

// ckRecordBytes encodes one well-formed checkpoint record (length,
// CRC, gob payload) — the building block for fuzz seeds and torn-tail
// constructions.
func ckRecordBytes(t testing.TB, rec ckRecord) []byte {
	t.Helper()
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(rec); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8+payload.Len())
	binary.LittleEndian.PutUint32(buf[0:4], uint32(payload.Len()))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(payload.Bytes()))
	copy(buf[8:], payload.Bytes())
	return buf
}

// FuzzCheckpointScan hammers the checkpoint record scanner with
// arbitrary bytes: hostile input must never panic, never claim a valid
// prefix longer than the input, and the claimed prefix must re-scan to
// the identical record sequence — the contract load relies on when it
// truncates a corrupt tail and appends after it.
func FuzzCheckpointScan(f *testing.F) {
	rec := func(row, key string, data []byte) []byte {
		return ckRecordBytes(f, ckRecord{Row: row, Key: key, Data: data})
	}
	// Seed the structural corners: empty, one record, two records, a
	// torn tail after a valid record, a CRC flip, an oversized length
	// prefix, and raw garbage.
	f.Add([]byte{})
	one := rec("twolf", "mrc-exact", []byte("cell"))
	f.Add(one)
	two := append(append([]byte{}, one...), rec("mcf", "ldis-mt-rc-2", nil)...)
	f.Add(two)
	f.Add(append(append([]byte{}, one...), two[:11]...)) // torn second record
	flipped := append([]byte{}, one...)
	flipped[5] ^= 0xff // CRC mismatch
	f.Add(flipped)
	huge := make([]byte, 8)
	binary.LittleEndian.PutUint32(huge[0:4], ckMaxPayload+1)
	f.Add(huge)
	f.Add([]byte("LDCKgarbage that is not a record stream at all"))

	f.Fuzz(func(t *testing.T, data []byte) {
		var recs []ckRecord
		n := scanRecords(bytes.NewReader(data), func(r ckRecord) { recs = append(recs, r) })
		if n < 0 || n > int64(len(data)) {
			t.Fatalf("valid prefix %d outside [0, %d]", n, len(data))
		}
		// The valid prefix must be self-consistent: scanning just it
		// yields the same records and consumes exactly n bytes.
		var again []ckRecord
		m := scanRecords(bytes.NewReader(data[:n]), func(r ckRecord) { again = append(again, r) })
		if m != n {
			t.Fatalf("re-scan of valid prefix consumed %d bytes, want %d", m, n)
		}
		if len(again) != len(recs) {
			t.Fatalf("re-scan found %d records, want %d", len(again), len(recs))
		}
		for i := range recs {
			if recs[i].Row != again[i].Row || recs[i].Key != again[i].Key ||
				!bytes.Equal(recs[i].Data, again[i].Data) {
				t.Fatalf("record %d changed across re-scan", i)
			}
		}
	})
}

// TestScanRecordsTornTail pins the salvage semantics deterministically
// (the fuzz target only checks invariants): a valid prefix followed by
// any torn byte suffix yields exactly the prefix records.
func TestScanRecordsTornTail(t *testing.T) {
	a := ckRecordBytes(t, ckRecord{Row: "twolf", Key: "mrc-exact", Data: []byte("A")})
	b := ckRecordBytes(t, ckRecord{Row: "twolf", Key: "mrc-shards", Data: []byte("B")})
	whole := append(append([]byte{}, a...), b...)
	for cut := len(a) + 1; cut < len(whole); cut++ {
		var got []ckRecord
		n := scanRecords(bytes.NewReader(whole[:cut]), func(r ckRecord) { got = append(got, r) })
		if n != int64(len(a)) {
			t.Fatalf("cut %d: valid prefix %d, want %d", cut, n, len(a))
		}
		if len(got) != 1 || got[0].Key != "mrc-exact" {
			t.Fatalf("cut %d: salvaged %d records", cut, len(got))
		}
	}
}
