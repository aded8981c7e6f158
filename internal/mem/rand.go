package mem

// The simulator's deterministic hashing and pseudo-random draws: one
// home for each generator, so every seeded stream and hash stays
// byte-identical wherever it is used.

// Mix64 is splitmix64's finalizer: a bijective 64-bit avalanche mix.
//
//ldis:noalloc
func Mix64(x uint64) uint64 {
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// SplitMix64 is splitmix64's output for state x: Mix64 of x plus the
// golden-ratio increment. Iterating x = SplitMix64(x) is the seeded
// generator the workloads use; applied once it is a strong hash.
//
//ldis:noalloc
func SplitMix64(x uint64) uint64 { return Mix64(x + 0x9e3779b97f4a7c15) }

// XorShiftMul is the xorshift64* output multiplier: a draw is the
// stepped state times it.
const XorShiftMul = 0x2545f4914f6cdd1d

// XorShift advances an xorshift64* generator's state by one step.
//
//ldis:noalloc
func XorShift(x uint64) uint64 {
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	return x
}

// NextRand steps the xorshift64* generator whose state is *x and
// returns the draw: cheap, deterministic, and good enough for
// replacement and noise decisions. The state must be nonzero.
//
//ldis:noalloc
func NextRand(x *uint64) uint64 {
	*x = XorShift(*x)
	return *x * XorShiftMul
}
