package a

// runGrid models internal/exp's generic wrapper over the scheduler:
// the analyzer matches wrapper entry points by name inside fixture
// packages, so these cells carry the same purity contract as direct
// par calls.
func runGrid[T any](cols int, fn func(name string, col int) (T, error)) ([][]T, error) {
	out := make([][]T, 1)
	out[0] = make([]T, cols)
	for c := 0; c < cols; c++ {
		v, err := fn("bench", c)
		if err != nil {
			return nil, err
		}
		out[0][c] = v
	}
	return out, nil
}

// BadWrapperAccumulator folds into a captured scalar through the
// wrapper: still order-dependent once the real wrapper fans out.
func BadWrapperAccumulator(cols int) float64 {
	total := 0.0
	_, _ = runGrid(cols, func(name string, col int) (float64, error) {
		total += float64(col) // want `writes captured variable "total"`
		return total, nil
	})
	return total
}

// BadWrapperLastWins: "last writer wins" scalars are scheduling order
// leaking into results.
func BadWrapperLastWins(cols int) {
	last := ""
	_, _ = runGrid(1, func(name string, _ int) (int, error) {
		last = name // want `writes captured variable "last"`
		return 0, nil
	})
	_ = last
}

// GoodWrapperCell returns its result instead of mutating scope; reads
// of captured configuration are fine.
func GoodWrapperCell(cols int, scale float64) ([][]float64, error) {
	return runGrid(cols, func(name string, col int) (float64, error) {
		return scale * float64(col), nil
	})
}

// GoodWrapperSuppressed: an annotated write is accepted.
func GoodWrapperSuppressed(cols int) {
	n := 0
	_, _ = runGrid(cols, func(name string, col int) (int, error) {
		//ldis:nondet-ok fixture: demonstrating an annotated wrapper cell
		n++
		return n, nil
	})
}
