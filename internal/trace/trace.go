// Package trace defines the access-stream abstraction that connects
// workload generators to cache simulators, plus a compact binary codec
// for persisting traces to disk (cmd/tracegen) and reading them back.
//
// The paper drives its cache experiments with SPEC CPU2000 SimPoint
// traces; this package plays the corresponding role for our synthetic
// workloads: a Stream is anything that yields mem.Access records in
// program order.
package trace

import "ldis/internal/mem"

// Stream yields memory accesses in program order. Next reports ok=false
// when the stream is exhausted. Implementations are single-use; call the
// owning generator again for a fresh stream.
type Stream interface {
	Next() (mem.Access, bool)
}

// SliceStream adapts a slice of accesses to a Stream.
type SliceStream struct {
	accs []mem.Access
	pos  int
}

// NewSliceStream returns a Stream over accs.
func NewSliceStream(accs []mem.Access) *SliceStream {
	return &SliceStream{accs: accs}
}

// Next implements Stream.
func (s *SliceStream) Next() (mem.Access, bool) {
	if s.pos >= len(s.accs) {
		return mem.Access{}, false
	}
	a := s.accs[s.pos]
	s.pos++
	return a, true
}

// Collect drains up to limit accesses from a stream into a slice.
// limit <= 0 drains the whole stream.
func Collect(s Stream, limit int) []mem.Access {
	var out []mem.Access
	for limit <= 0 || len(out) < limit {
		a, ok := s.Next()
		if !ok {
			break
		}
		out = append(out, a)
	}
	return out
}

// Interleave round-robins accesses from several streams, modelling
// independent reference streams sharing a cache. A stream that runs dry
// drops out of the rotation.
type Interleave struct {
	streams []Stream
	next    int
}

// NewInterleave returns the interleaved stream.
func NewInterleave(streams ...Stream) *Interleave {
	return &Interleave{streams: streams}
}

// Next implements Stream.
func (in *Interleave) Next() (mem.Access, bool) {
	for len(in.streams) > 0 {
		if in.next >= len(in.streams) {
			in.next = 0
		}
		a, ok := in.streams[in.next].Next()
		if ok {
			in.next++
			return a, true
		}
		in.streams = append(in.streams[:in.next], in.streams[in.next+1:]...)
	}
	return mem.Access{}, false
}

// CountInstructions sums the Instret fields of a trace slice: the total
// instruction count the trace represents.
func CountInstructions(accs []mem.Access) uint64 {
	var n uint64
	for _, a := range accs {
		n += uint64(a.Instret)
	}
	return n
}
