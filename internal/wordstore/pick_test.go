package wordstore

import (
	"fmt"
	"math/rand"
	"testing"

	"ldis/internal/mem"
)

// walkRegionState, walkCount and walkNth are the region-by-region
// candidate walk Install used before pickRegion, kept as its
// reference: classify each aligned region of each selected way in
// way-major, start-minor order, count the free and the eligible ones,
// then walk again to the k-th.
func walkRegionState(b wayBits, start, slots int) (free, eligible bool) {
	if b.occ&RegionMask(start, slots) == 0 {
		return true, false
	}
	firstFree := b.occ&RegionMask(start, 1) == 0
	return false, firstFree || b.heads&RegionMask(start, 1) != 0
}

func walkCount(ways []wayBits, slots int, wayMask uint64) (nfree, nocc int) {
	for way := range ways {
		if wayMask&(1<<uint(way)) == 0 {
			continue
		}
		for start := 0; start+slots <= mem.WordsPerLine; start += slots {
			free, eligible := walkRegionState(ways[way], start, slots)
			switch {
			case free:
				nfree++
			case eligible:
				nocc++
			}
		}
	}
	return nfree, nocc
}

func walkNth(ways []wayBits, slots int, wayMask uint64, wantFree bool, k int) (way, start int) {
	for way := range ways {
		if wayMask&(1<<uint(way)) == 0 {
			continue
		}
		for start := 0; start+slots <= mem.WordsPerLine; start += slots {
			free, eligible := walkRegionState(ways[way], start, slots)
			if free != wantFree || (!free && !eligible) {
				continue
			}
			if k == 0 {
				return way, start
			}
			k--
		}
	}
	panic("wordstore: candidate index out of range")
}

func walkPick(ways []wayBits, wayMask uint64, slots int, rnd uint64) (way, start int) {
	nfree, nocc := walkCount(ways, slots, wayMask)
	if nfree > 0 {
		return walkNth(ways, slots, wayMask, true, int(rnd%uint64(nfree)))
	}
	if nocc == 0 {
		panic("wordstore: no replacement candidate")
	}
	return walkNth(ways, slots, wayMask, false, int(rnd%uint64(nocc)))
}

// pickOutcome runs one picker, turning a panic into its message.
func pickOutcome(pick func([]wayBits, uint64, int, uint64) (int, int), ways []wayBits, mask uint64, slots int, rnd uint64) (res string) {
	defer func() {
		if r := recover(); r != nil {
			res = fmt.Sprint("panic: ", r)
		}
	}()
	way, start := pick(ways, mask, slots, rnd)
	return fmt.Sprintf("way %d start %d", way, start)
}

// checkPickers requires pickRegion and the walk to agree on one set
// state for every slot count, each of the given masks (clipped as
// Install clips them) and every rnd residue.
func checkPickers(t *testing.T, ways []wayBits, masks []uint64) {
	t.Helper()
	for _, slots := range []int{1, 2, 4, 8} {
		for _, raw := range masks {
			mask := clipWays(raw, len(ways))
			nfree, nocc := walkCount(ways, slots, mask)
			for rnd := uint64(0); rnd <= uint64(max(nfree, nocc)); rnd++ {
				want := pickOutcome(walkPick, ways, mask, slots, rnd)
				if got := pickOutcome(pickRegion, ways, mask, slots, rnd); got != want {
					t.Fatalf("ways %v, mask %#x, slots %d, rnd %d: pickRegion %s, walk %s", ways, raw, slots, rnd, got, want)
				}
			}
		}
	}
}

// masksFor lists the masks the pickers are checked under: none, each
// single way, bits above the way count (alone and with way 0), and a
// random subset.
func masksFor(n int, rng *rand.Rand) []uint64 {
	masks := []uint64{0, rng.Uint64()}
	for w := 0; w < n; w++ {
		masks = append(masks, 1<<uint(w))
	}
	if n < MaxWays {
		masks = append(masks, ^uint64(0)<<uint(n), ^uint64(0)<<uint(n)|1)
	}
	return masks
}

// TestPickRegionMatchesWalk table-tests the bit-parallel picker against
// the walk on hand-built states, including ones no consistent set
// reaches (a used first slot without a head bit in every way, which
// both must refuse with the same panic), then on random occupancy and
// head bytes over 1 to 64 ways.
func TestPickRegionMatchesWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, ways := range [][]wayBits{
		{{}},
		{{occ: 0xff, heads: 0x01}},
		{{occ: 0xff, heads: 0x00}},
		{{occ: 0xff, heads: 0x55}, {occ: 0x0f, heads: 0x01}},
		{{occ: 0xf0, heads: 0x10}, {occ: 0xff, heads: 0x00}, {occ: 0x3c, heads: 0x14}},
		{{occ: 0xfe, heads: 0x02}, {occ: 0x7f, heads: 0x01}},
		{{occ: 0xff, heads: 0}, {occ: 0xff, heads: 0}, {occ: 0xff, heads: 0}},
	} {
		checkPickers(t, ways, masksFor(len(ways), rng))
	}
	for i := 0; i < 300; i++ {
		ways := make([]wayBits, 1+rng.Intn(MaxWays))
		for w := range ways {
			occ := mem.Footprint(rng.Intn(256))
			ways[w] = wayBits{occ: occ, heads: mem.Footprint(rng.Intn(256)) & occ}
			if rng.Intn(8) == 0 {
				ways[w].heads = mem.Footprint(rng.Intn(256)) // heads over free slots
			}
		}
		masks := []uint64{0, rng.Uint64(), 1 << uint(rng.Intn(len(ways)))}
		if len(ways) < MaxWays {
			masks = append(masks, ^uint64(0)<<uint(len(ways)))
		}
		checkPickers(t, ways, masks)
	}
}

// FuzzPickRegionMatchesWalk decodes a set state from the input — byte 0
// the way count (1 to 64), byte 1 the mask choice, bytes 2-9 a random
// mask, then an occupancy and a head byte per way — and checks the
// pickers agree on it.
func FuzzPickRegionMatchesWalk(f *testing.F) {
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0x01})
	f.Add([]byte{3, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0x00, 0x3c, 0x14, 0xf0, 0x10})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 10 {
			return
		}
		n := 1 + int(data[0])%MaxWays
		var mask uint64
		for _, b := range data[2:10] {
			mask = mask<<8 | uint64(b)
		}
		switch data[1] % 4 {
		case 0:
			mask = 0
		case 1:
			mask = 1 << (mask % uint64(n))
		case 2:
			mask |= ^uint64(0) << uint(n) // bits above the way count
		}
		ways := make([]wayBits, n)
		body := data[10:]
		for w := range ways {
			if 2*w+1 < len(body) {
				ways[w] = wayBits{occ: mem.Footprint(body[2*w]), heads: mem.Footprint(body[2*w+1])}
			}
		}
		checkPickers(t, ways, []uint64{mask})
	})
}
