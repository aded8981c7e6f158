// Package faultinject provides deterministic, seeded fault injectors
// for chaos-testing the experiment engine: a site-keyed Injector that
// decides which units of work fail (and whether a retry absorbs the
// fault), a bit-flipping io.Reader wrapper for exercising the hardened
// trace decoder, and a fault-injecting trace.Stream wrapper.
//
// Everything here is a pure function of an explicit seed and the site
// key or byte/record position it is applied to — never of wall-clock
// time, scheduling, or global random state — so a chaos run reproduces
// bit-for-bit: the same seed always kills the same cells, flips the
// same bits, and truncates the same streams, at any worker count.
package faultinject

import (
	"fmt"
	"io"
	"sync"

	"ldis/internal/mem"
	"ldis/internal/trace"
)

// hashKey folds a site key into a seed (FNV-1a then splitmix).
func hashKey(seed uint64, key string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return mem.SplitMix64(h ^ seed)
}

// frac maps a hash to [0,1).
func frac(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// Injector selects faulting sites deterministically from a seed. A
// site is any string key — the experiment engine uses
// "<experiment>/<benchmark>/<column>". Rate is the fraction of sites
// that fault; TransientFrac is the fraction of those whose fault
// clears after the first attempt, modelling failures a retry absorbs.
type Injector struct {
	seed      uint64
	rate      float64
	transient float64

	mu       sync.Mutex
	attempts map[string]int
}

// New returns an injector failing ~rate of sites, with ~transientFrac
// of the failing sites recovering after their first attempt.
func New(seed uint64, rate, transientFrac float64) *Injector {
	return &Injector{seed: seed, rate: rate, transient: transientFrac, attempts: make(map[string]int)}
}

// DefaultRate and DefaultTransientFrac are the chaos-suite defaults:
// roughly a third of sites fault, half of the faults are transient.
const (
	DefaultRate          = 0.3
	DefaultTransientFrac = 0.5
)

// NewDefault returns an injector with the chaos-suite default rates.
func NewDefault(seed uint64) *Injector {
	return New(seed, DefaultRate, DefaultTransientFrac)
}

// Site reports, without consuming an attempt, whether the key is a
// faulting site and whether its fault is transient. Pure function of
// (seed, key).
func (j *Injector) Site(key string) (faulty, transient bool) {
	faulty = frac(hashKey(j.seed, key)) < j.rate
	if !faulty {
		return false, false
	}
	transient = frac(hashKey(j.seed^0xc5a7, key)) < j.transient
	return faulty, transient
}

// Fault reports whether the current attempt at the site should fail,
// and advances the site's attempt counter. Persistent sites fail every
// attempt; transient sites fail only the first.
func (j *Injector) Fault(key string) bool {
	j.mu.Lock()
	attempt := j.attempts[key]
	j.attempts[key] = attempt + 1
	j.mu.Unlock()
	faulty, transient := j.Site(key)
	if !faulty {
		return false
	}
	if transient && attempt >= 1 {
		return false
	}
	return true
}

// MaybePanic panics with a deterministic message if the current
// attempt at the site faults. This is the task-level injector: wrap it
// around a scheduler cell to chaos-test the engine's panic isolation.
func (j *Injector) MaybePanic(key string) {
	if j.Fault(key) {
		panic("faultinject: injected panic at " + key)
	}
}

// CorruptReader wraps r, flipping one bit in ~rate of the bytes read.
// Which bytes and which bits depend only on (seed, absolute offset),
// so the corruption pattern is independent of read chunking.
type CorruptReader struct {
	r    io.Reader
	seed uint64
	rate float64
	off  int64
}

// NewCorruptReader returns the bit-flipping reader.
func NewCorruptReader(r io.Reader, seed uint64, rate float64) *CorruptReader {
	return &CorruptReader{r: r, seed: seed, rate: rate}
}

// Read implements io.Reader.
func (c *CorruptReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	for i := 0; i < n; i++ {
		h := mem.SplitMix64(c.seed ^ uint64(c.off+int64(i)))
		if frac(h) < c.rate {
			p[i] ^= 1 << (h >> 56 & 7)
		}
	}
	c.off += int64(n)
	return n, err
}

// StreamFault selects the failure mode of a FaultyStream.
type StreamFault int

const (
	// TruncateStream ends the stream early at the fault position.
	TruncateStream StreamFault = iota
	// PanicStream panics at the fault position.
	PanicStream
	// CorruptAddrStream flips one address bit per access from the
	// fault position on.
	CorruptAddrStream
)

// FaultyStream wraps a trace.Stream and injects one deterministic
// fault at a seed-chosen position within the first window accesses.
type FaultyStream struct {
	inner trace.Stream
	mode  StreamFault
	seed  uint64
	at    int64
	pos   int64
}

// NewFaultyStream wraps inner. The fault position is
// mem.SplitMix64(seed) % window (window must be positive).
func NewFaultyStream(inner trace.Stream, mode StreamFault, seed uint64, window int64) *FaultyStream {
	if window <= 0 {
		panic("faultinject: NewFaultyStream window must be positive")
	}
	return &FaultyStream{inner: inner, mode: mode, seed: seed, at: int64(mem.SplitMix64(seed) % uint64(window))}
}

// FaultPos returns the access index at which the fault fires.
func (f *FaultyStream) FaultPos() int64 { return f.at }

// Next implements trace.Stream.
func (f *FaultyStream) Next() (mem.Access, bool) {
	pos := f.pos
	f.pos++
	if pos < f.at {
		return f.inner.Next()
	}
	switch f.mode {
	case TruncateStream:
		return mem.Access{}, false
	case PanicStream:
		panic(fmt.Sprintf("faultinject: injected stream panic at access %d", f.at))
	default: // CorruptAddrStream
		a, ok := f.inner.Next()
		if !ok {
			return mem.Access{}, false
		}
		h := mem.SplitMix64(f.seed ^ uint64(pos))
		a.Addr ^= mem.Addr(1) << (h % 32)
		return a, true
	}
}
