package trace

import (
	"bytes"
	"io"
	"testing"

	"ldis/internal/mem"
)

// FuzzRead ensures arbitrary bytes never panic the decoder: it must
// return either a valid trace or an error. It also decodes the input
// through NewBatchReader in blocks of 1 + (len(data) + last byte) mod
// 512 records — a trailing byte past the records steers the size
// without changing the trace — and checks every block and error
// against refBatchReader.
func FuzzRead(f *testing.F) {
	var seed bytes.Buffer
	if err := Write(&seed, []mem.Access{{Addr: 64, PC: 4, Kind: mem.Store, Instret: 3}}); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte("LDTR"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		size := 1
		if len(data) > 0 {
			size += (len(data) + int(data[len(data)-1])) % 512
		}
		checkMatchesRef(t, "fuzz", data, func(r io.Reader) io.Reader { return r }, size)

		accs, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		// A successful decode must round-trip.
		var buf bytes.Buffer
		if err := Write(&buf, accs); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		back, err := Read(&buf)
		if err != nil || len(back) != len(accs) {
			t.Fatalf("round trip broke: %v (%d vs %d)", err, len(back), len(accs))
		}
	})
}
