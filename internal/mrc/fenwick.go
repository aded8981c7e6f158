package mrc

// cell is one Fenwick node carrying both granularities: the partial
// sum of line weights (1 per tracked line) and of word-slot weights
// (allocated slots per tracked line). Interleaving them means every
// walk reads or updates both grains in the same cache lines.
type cell struct {
	line, word int32
}

// fenwick is a binary indexed tree over logical access time, used as
// the order-statistic structure behind the Mattson stack: the weights
// at position t are the stack costs of the line most recently touched
// at time t, and prefix(b)-prefix(a) is the total cost of lines
// touched in (a, b] — i.e. the reuse distance contribution of
// everything above the reused line in the LRU stack. Both add and
// prefix are O(log n).
//
// Positions are 1-based; position 0 is reserved as "never touched".
type fenwick struct {
	tree []cell
}

func newFenwick(n int) fenwick {
	return fenwick{tree: make([]cell, n+1)}
}

// add adds (dLine, dWord) to the weights at position i (1-based).
//
//ldis:noalloc
func (f *fenwick) add(i int, dLine, dWord int32) {
	for ; i < len(f.tree); i += i & -i {
		f.tree[i].line += dLine
		f.tree[i].word += dWord
	}
}

// move relocates one line's weights from position from to a later
// position to, changing its word weight from oldWord to newWord. The
// two update chains are walked in ascending order until they meet at
// the first node covering both positions; above it the line weights
// cancel, so the walk stops there unless the word weight changed.
//
//ldis:noalloc
func (f *fenwick) move(from, to int, oldWord, newWord int32) {
	n := len(f.tree)
	i, j := from, to
	for i != j {
		if i < j {
			if i >= n {
				return
			}
			f.tree[i].line--
			f.tree[i].word -= oldWord
			i += i & -i
		} else {
			if j >= n {
				return
			}
			f.tree[j].line++
			f.tree[j].word += newWord
			j += j & -j
		}
	}
	if d := newWord - oldWord; d != 0 {
		for ; i < n; i += i & -i {
			f.tree[i].word += d
		}
	}
}

// prefix returns the sums of line and word weights at positions 1..i.
//
//ldis:noalloc
func (f *fenwick) prefix(i int) (lines, slots int64) {
	for ; i > 0; i -= i & -i {
		lines += int64(f.tree[i].line)
		slots += int64(f.tree[i].word)
	}
	return lines, slots
}

// build turns a tree holding raw per-position weights into a Fenwick
// tree in O(n): each node pushes its (already complete) partial sum to
// its parent.
//
//ldis:noalloc
func (f *fenwick) build() {
	for i := 1; i < len(f.tree); i++ {
		if j := i + i&-i; j < len(f.tree) {
			f.tree[j].line += f.tree[i].line
			f.tree[j].word += f.tree[i].word
		}
	}
}
