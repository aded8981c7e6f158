package dram

import (
	"fmt"
	"testing"

	"ldis/internal/mem"
)

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := OpenPageConfig(150).Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{Banks: 0, AccessLatency: 400, MaxOutstanding: 32},
		{Banks: 32, AccessLatency: 0, MaxOutstanding: 32},
		{Banks: 32, AccessLatency: 400, MaxOutstanding: 0},
		{Banks: 32, AccessLatency: 400, MaxOutstanding: 32, BankBusy: -1},
		{Banks: 32, AccessLatency: 400, MaxOutstanding: 32, RowHitLatency: 500},
		{Banks: 32, AccessLatency: 400, MaxOutstanding: 32, RowHitLatency: 100, LinesPerRow: 0},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d should fail: %+v", i, c)
		}
	}
}

func TestUncontendedLatency(t *testing.T) {
	m := New(DefaultConfig())
	done := m.Access(0, 0)
	want := float64(400 + 16) // array access + bus transfer
	if done != want {
		t.Errorf("completion = %v, want %v", done, want)
	}
}

func TestBankConflictQueues(t *testing.T) {
	m := New(DefaultConfig())
	// Lines 0 and 32 share bank 0 (32 banks).
	first := m.Access(0, 0)
	second := m.Access(0, 32)
	if second <= first {
		t.Errorf("conflicting request finished at %v, first at %v", second, first)
	}
	if m.Stats().BankConflicts != 1 {
		t.Errorf("bank conflicts = %d", m.Stats().BankConflicts)
	}
	// Different banks at the same time: only bus serialization applies.
	m2 := New(DefaultConfig())
	a := m2.Access(0, 0)
	b := m2.Access(0, 1)
	if b != a+16 {
		t.Errorf("parallel banks should serialize only on the bus: %v then %v", a, b)
	}
	if m2.Stats().BankConflicts != 0 {
		t.Error("different banks should not conflict")
	}
}

func TestBusSerializesResponses(t *testing.T) {
	m := New(DefaultConfig())
	var last float64
	for i := 0; i < 8; i++ {
		done := m.Access(0, mem.LineAddr(i)) // 8 different banks
		if done <= last {
			t.Fatalf("bus order violated: %v after %v", done, last)
		}
		last = done
	}
	// 8 transfers of 16 cycles each after the common 400-cycle access.
	if want := float64(400 + 8*16); last != want {
		t.Errorf("last completion %v, want %v", last, want)
	}
}

func TestMSHRBackpressure(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxOutstanding = 2
	m := New(cfg)
	m.Access(0, 0)
	m.Access(0, 1)
	// Third request at time 0 must wait for the first to complete.
	done := m.Access(0, 2)
	if m.Stats().MSHRStalls != 1 {
		t.Errorf("MSHR stalls = %d", m.Stats().MSHRStalls)
	}
	if done <= 416 {
		t.Errorf("third request completed at %v despite full MSHR", done)
	}
}

func TestRowBufferHits(t *testing.T) {
	m := New(OpenPageConfig(100))
	// Same bank, same row: lines 0 and 32 (bank 0, row 0 with 64
	// lines/row covering lines 0..2047 of bank 0).
	first := m.Access(0, 0)
	second := m.Access(first+1000, 32)
	if got := second - (first + 1000); got != 100+16 {
		t.Errorf("row hit latency = %v, want 116", got)
	}
	if m.Stats().RowHits != 1 {
		t.Errorf("row hits = %d", m.Stats().RowHits)
	}
	// A different row closes the page.
	far := mem.LineAddr(32 * 64 * 10) // bank 0, row 10
	third := m.Access(second+1000, far)
	if got := third - (second + 1000); got != 400+16 {
		t.Errorf("row miss latency = %v, want 416", got)
	}
}

func TestClosedPageNeverRowHits(t *testing.T) {
	m := New(DefaultConfig())
	m.Access(0, 0)
	m.Access(1000, 0)
	if m.Stats().RowHits != 0 {
		t.Error("closed-page config should record no row hits")
	}
	if m.Stats().Requests != 2 {
		t.Errorf("requests = %d", m.Stats().Requests)
	}
}

func TestCompletionMonotoneUnderLoad(t *testing.T) {
	m := New(DefaultConfig())
	now, last := 0.0, 0.0
	for i := 0; i < 5000; i++ {
		done := m.Access(now, mem.LineAddr(i*7))
		if done < now {
			t.Fatalf("completion %v before issue %v", done, now)
		}
		if done <= last && i > 0 {
			// The shared bus must serialize all responses.
			t.Fatalf("bus order violated at %d: %v after %v", i, done, last)
		}
		last = done
		now += 3
	}
}

// refMemory is Memory with the MSHR kept as an unordered slice: a full
// MSHR frees the slot holding the earliest completion, found by a
// linear scan, and swap-removes it. Memory's FIFO ring must give the
// same completion times and counters access by access.
type refMemory struct {
	cfg      Config
	bankFree []float64
	openRow  []uint64
	busFree  float64
	inflight []float64
	st       Stats
}

func newRefMemory(cfg Config) *refMemory {
	m := &refMemory{
		cfg:      cfg,
		bankFree: make([]float64, cfg.Banks),
		openRow:  make([]uint64, cfg.Banks),
	}
	for i := range m.openRow {
		m.openRow[i] = ^uint64(0)
	}
	return m
}

func (m *refMemory) Access(now float64, la mem.LineAddr) float64 {
	m.st.Requests++
	start := now
	if len(m.inflight) >= m.cfg.MaxOutstanding {
		oldestIdx, oldest := 0, m.inflight[0]
		for i, c := range m.inflight {
			if c < oldest {
				oldestIdx, oldest = i, c
			}
		}
		if oldest > start {
			m.st.MSHRStalls++
			start = oldest
		}
		m.inflight[oldestIdx] = m.inflight[len(m.inflight)-1]
		m.inflight = m.inflight[:len(m.inflight)-1]
	}
	bank := int(uint64(la) % uint64(m.cfg.Banks))
	if m.bankFree[bank] > start {
		m.st.BankConflicts++
		start = m.bankFree[bank]
	}
	latency := float64(m.cfg.AccessLatency)
	if m.cfg.RowHitLatency > 0 {
		if row := uint64(la) / uint64(m.cfg.Banks) / uint64(m.cfg.LinesPerRow); m.openRow[bank] == row {
			latency = float64(m.cfg.RowHitLatency)
			m.st.RowHits++
		} else {
			m.openRow[bank] = row
		}
	}
	ready := start + latency
	m.bankFree[bank] = start + float64(m.cfg.BankBusy)
	if m.busFree > ready {
		ready = m.busFree
	}
	ready += float64(m.cfg.BusCycles)
	m.busFree = ready
	m.inflight = append(m.inflight, ready)
	return ready
}

// request is one memory access of a reference stream.
type request struct {
	now  float64
	line mem.LineAddr
}

// diffAgainstRefMemory issues the same requests to Memory and refMemory
// and fails at the first completion time or counter that differs. It
// returns the final counters.
func diffAgainstRefMemory(t *testing.T, cfg Config, reqs []request) Stats {
	t.Helper()
	m, ref := New(cfg), newRefMemory(cfg)
	for i, r := range reqs {
		got, want := m.Access(r.now, r.line), ref.Access(r.now, r.line)
		if got != want || m.Stats() != ref.st {
			t.Fatalf("%+v request %d (now %v, line %d): completion %v, stats %+v; reference %v, %+v",
				cfg, i, r.now, r.line, got, m.Stats(), want, ref.st)
		}
	}
	return m.Stats()
}

func TestMemoryMatchesReference(t *testing.T) {
	oneSlot := DefaultConfig()
	oneSlot.MaxOutstanding = 1
	noBus := DefaultConfig()
	noBus.BusCycles = 0 // equal completion times tie in the MSHR
	configs := map[string]Config{
		"default":   DefaultConfig(),
		"open-page": OpenPageConfig(150),
		"mshr-1":    oneSlot,
		"bus-0":     noBus,
	}
	for name, cfg := range configs {
		for seed := uint64(1); seed <= 3; seed++ {
			// Issue times mostly advance by less than a request's
			// latency, so the MSHR fills and stalls; one request in
			// eight steps back in time. Lines cluster so banks conflict
			// and open rows hit.
			reqs := make([]request, 20_000)
			now := 0.0
			x := seed
			for i := range reqs {
				x = x*6364136223846793005 + 1442695040888963407
				if x>>61 == 0 {
					now -= float64(x >> 40 & 255)
				} else {
					now += float64(x >> 40 & 31)
				}
				reqs[i] = request{now: now, line: mem.LineAddr(x >> 20 & 4095)}
			}
			t.Run(fmt.Sprintf("%s/seed%d", name, seed), func(t *testing.T) {
				st := diffAgainstRefMemory(t, cfg, reqs)
				if st.MSHRStalls == 0 || (cfg.RowHitLatency > 0) != (st.RowHits > 0) {
					t.Errorf("stream too easy to compare the MSHRs: %+v", st)
				}
			})
		}
	}
}

// FuzzMemoryMatchesReference derives a memory configuration from the
// first four bytes and a request stream from the rest: each byte pair
// is one request, the first byte a signed step of the issue time and
// the second the line.
func FuzzMemoryMatchesReference(f *testing.F) {
	f.Add([]byte{0x00, 0x00, 0x00, 0x00, 1, 0, 1, 1, 1, 2, 0, 3})
	f.Add([]byte{0x3f, 0x21, 0x90, 0x07, 0, 0, 0, 4, 0, 8, 0xff, 0, 2, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		cfg := Config{
			Banks:          1 + int(data[0]&7),
			AccessLatency:  1 + int(data[0]>>3),
			BankBusy:       int(data[1] & 63),
			BusCycles:      int(data[1] >> 6),
			MaxOutstanding: 1 + int(data[2]&7),
		}
		if data[2]&8 != 0 {
			cfg.RowHitLatency = 1 + int(data[3]&0x1f)%cfg.AccessLatency
			cfg.LinesPerRow = 1 + int(data[3]>>5)
		}
		var reqs []request
		now := 0.0
		for i := 4; i+1 < len(data); i += 2 {
			now += float64(int8(data[i]))
			reqs = append(reqs, request{now: now, line: mem.LineAddr(data[i+1])})
		}
		diffAgainstRefMemory(t, cfg, reqs)
	})
}
