package trace

import "ldis/internal/mem"

// Record is one trace record: an alias of mem.Access so batch buffers
// ([]trace.Record) interoperate with every existing API that speaks
// mem.Access without conversion.
type Record = mem.Access

// DefaultBatchSize is the record-block size the batched pipeline uses
// when the caller does not pick one. 4096 records (96kB) amortizes the
// per-block interface call while staying comfortably inside L2.
const DefaultBatchSize = 4096

// BatchStream is the bulk counterpart of Stream: NextBatch fills dst
// with the next records in program order and returns how many were
// written. A short (or zero) count means the stream is exhausted.
// Filling a fixed-size block once per batch replaces one interface
// call per access with one per block, which is what makes the
// simulator's batched hot path worth having.
type BatchStream interface {
	NextBatch(dst []Record) int
}

// Batched adapts any Stream to a BatchStream. Streams that already
// implement BatchStream (SliceStream, the workload generator, the
// codec's BatchReader) are returned unchanged so their native bulk
// paths are used; everything else is wrapped in a loop over Next.
func Batched(s Stream) BatchStream {
	if bs, ok := s.(BatchStream); ok {
		return bs
	}
	return &streamBatcher{s: s}
}

// Drive feeds up to n records from bs into sink in blocks of len(buf)
// records, the last one short when n is not a multiple, so it refills
// ceil(n/len(buf)) times. It stops early when the stream ends, never
// reads past n records, and returns how many it fed.
func Drive(bs BatchStream, n int, buf []Record, sink func([]Record)) int {
	done := 0
	for done < n {
		want := min(len(buf), n-done)
		got := bs.NextBatch(buf[:want])
		sink(buf[:got])
		done += got
		if got < want {
			break
		}
	}
	return done
}

// streamBatcher lifts a scalar Stream into a BatchStream.
type streamBatcher struct{ s Stream }

// NextBatch implements BatchStream.
func (b *streamBatcher) NextBatch(dst []Record) int {
	for i := range dst {
		a, ok := b.s.Next()
		if !ok {
			return i
		}
		dst[i] = a
	}
	return len(dst)
}

// NextBatch implements BatchStream natively: one copy per block.
//
//ldis:noalloc
func (s *SliceStream) NextBatch(dst []Record) int {
	n := copy(dst, s.accs[s.pos:])
	s.pos += n
	return n
}
