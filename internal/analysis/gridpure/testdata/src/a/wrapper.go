package a

// runGrid models internal/exp's generic wrapper over the scheduler,
// one cell per (benchmark, config key): the analyzer matches wrapper
// entry points by name inside fixture packages, so these cells carry
// the same purity contract as direct par calls.
func runGrid[T any](keys []string, fn func(name, key string) (T, error)) ([][]T, error) {
	out := make([][]T, 1)
	out[0] = make([]T, len(keys))
	for c, key := range keys {
		v, err := fn("bench", key)
		if err != nil {
			return nil, err
		}
		out[0][c] = v
	}
	return out, nil
}

// BadWrapperAccumulator folds into a captured scalar through the
// wrapper: still order-dependent once the real wrapper fans out.
func BadWrapperAccumulator(keys []string) float64 {
	total := 0.0
	_, _ = runGrid(keys, func(name, key string) (float64, error) {
		total += float64(len(key)) // want `writes captured variable "total"`
		return total, nil
	})
	return total
}

// BadWrapperLastWins: "last writer wins" scalars are scheduling order
// leaking into results.
func BadWrapperLastWins() {
	last := ""
	_, _ = runGrid([]string{"base-1MB"}, func(name, _ string) (int, error) {
		last = name // want `writes captured variable "last"`
		return 0, nil
	})
	_ = last
}

// GoodWrapperCell returns its result instead of mutating scope; reads
// of captured configuration are fine.
func GoodWrapperCell(keys []string, scale float64) ([][]float64, error) {
	return runGrid(keys, func(name, key string) (float64, error) {
		return scale * float64(len(key)), nil
	})
}

// GoodWrapperSuppressed: an annotated write is accepted.
func GoodWrapperSuppressed(keys []string) {
	n := 0
	_, _ = runGrid(keys, func(name, key string) (int, error) {
		//ldis:nondet-ok fixture: demonstrating an annotated wrapper cell
		n++
		return n, nil
	})
}
