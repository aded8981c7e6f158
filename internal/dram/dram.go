// Package dram models the paper's main-memory system (Table 1): 32
// DRAM banks with a 400-cycle access latency and modelled bank
// conflicts, a cap of 32 outstanding requests (the MSHR), and a
// 16B-wide split-transaction bus at a 4:1 frequency ratio (16 CPU
// cycles per 64B line). On top of the paper's parameters it can model
// open-page row buffers, which the ablation benches use; the paper's
// configuration is the closed-page default.
package dram

import (
	"fmt"

	"ldis/internal/mem"
)

// Config holds the memory-system timing parameters (CPU cycles).
type Config struct {
	Banks          int // 32
	AccessLatency  int // 400, the full array access
	BankBusy       int // cycles a bank stays busy per request
	BusCycles      int // 64B over a 16B bus at 4:1 = 16 CPU cycles
	MaxOutstanding int // 32 (Table 1: maximum 32 outstanding requests)

	// RowHitLatency, when nonzero, enables open-page row buffers: a
	// request to the currently open row of its bank completes in this
	// many cycles instead of AccessLatency.
	RowHitLatency int
	// LinesPerRow is the row-buffer size in cache lines (per bank);
	// only used when RowHitLatency > 0. Typical DRAM rows hold 64-128
	// 64B lines.
	LinesPerRow int
}

// DefaultConfig returns the paper's memory system (closed page).
func DefaultConfig() Config {
	return Config{
		Banks:          32,
		AccessLatency:  400,
		BankBusy:       40,
		BusCycles:      16,
		MaxOutstanding: 32,
	}
}

// OpenPageConfig returns the paper's memory system with a 64-line
// open-page row buffer whose hits cost the given latency.
func OpenPageConfig(rowHit int) Config {
	c := DefaultConfig()
	c.RowHitLatency = rowHit
	c.LinesPerRow = 64
	return c
}

// Validate checks the parameters.
func (c Config) Validate() error {
	if c.Banks <= 0 || c.AccessLatency <= 0 || c.MaxOutstanding <= 0 {
		return fmt.Errorf("dram: non-positive core parameter: %+v", c)
	}
	if c.BankBusy < 0 || c.BusCycles < 0 {
		return fmt.Errorf("dram: negative occupancy parameter: %+v", c)
	}
	if c.RowHitLatency < 0 || c.RowHitLatency > c.AccessLatency {
		return fmt.Errorf("dram: row-hit latency %d out of [0, %d]", c.RowHitLatency, c.AccessLatency)
	}
	if c.RowHitLatency > 0 && c.LinesPerRow <= 0 {
		return fmt.Errorf("dram: open-page mode needs LinesPerRow > 0")
	}
	return nil
}

// Stats counts memory-system behaviour.
type Stats struct {
	Requests      uint64
	BankConflicts uint64 // requests that waited for a busy bank
	RowHits       uint64
	MSHRStalls    uint64 // requests that waited for an outstanding slot
}

// Memory is the timing model. It is not safe for concurrent use; each
// simulated core owns one.
type Memory struct {
	cfg      Config
	bankFree []float64
	openRow  []uint64 // per bank; ^0 = closed
	busFree  float64

	// inflight is a ring of the completion times occupying MSHR slots,
	// oldest at head. Every completion is max(start+latency, busFree) +
	// BusCycles, and busFree then becomes it; BusCycles >= 0, so
	// completion times never decrease in issue order. The request at
	// head is therefore always the earliest to complete, and freeing
	// the slot that completes first is an O(1) pop, not a scan. This
	// holds for any non-NaN issue times, in order or not.
	inflight []float64
	head, n  int
	st       Stats
}

// New builds the memory system; panics on invalid config.
func New(cfg Config) *Memory {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	m := &Memory{
		cfg:      cfg,
		bankFree: make([]float64, cfg.Banks),
		openRow:  make([]uint64, cfg.Banks),
		inflight: make([]float64, cfg.MaxOutstanding),
	}
	for i := range m.openRow {
		m.openRow[i] = ^uint64(0)
	}
	return m
}

// Stats returns the cumulative counters.
func (m *Memory) Stats() Stats { return m.st }

// bankOf maps a line to its bank: consecutive lines interleave across
// banks, the standard layout.
func (m *Memory) bankOf(la mem.LineAddr) int { return int(uint64(la) % uint64(m.cfg.Banks)) }

// rowOf maps a line to its row within the bank.
func (m *Memory) rowOf(la mem.LineAddr) uint64 {
	return uint64(la) / uint64(m.cfg.Banks) / uint64(m.cfg.LinesPerRow)
}

// Access issues a line fetch at CPU cycle `now` and returns the cycle
// at which the line has fully arrived over the bus.
//
//ldis:noalloc
func (m *Memory) Access(now float64, la mem.LineAddr) (completion float64) {
	m.st.Requests++
	start := now

	// MSHR back-pressure: when every slot is taken, wait for the oldest
	// request, which completes first, and take its slot.
	if m.n == len(m.inflight) {
		if oldest := m.inflight[m.head]; oldest > start {
			m.st.MSHRStalls++
			start = oldest
		}
		m.head++
		if m.head == len(m.inflight) {
			m.head = 0
		}
		m.n--
	}

	bank := m.bankOf(la)
	if m.bankFree[bank] > start {
		m.st.BankConflicts++
		start = m.bankFree[bank]
	}

	latency := float64(m.cfg.AccessLatency)
	if m.cfg.RowHitLatency > 0 {
		if row := m.rowOf(la); m.openRow[bank] == row {
			latency = float64(m.cfg.RowHitLatency)
			m.st.RowHits++
		} else {
			m.openRow[bank] = row
		}
	}
	ready := start + latency
	m.bankFree[bank] = start + float64(m.cfg.BankBusy)

	// Split-transaction bus: the response occupies it for the transfer.
	if m.busFree > ready {
		ready = m.busFree
	}
	ready += float64(m.cfg.BusCycles)
	m.busFree = ready

	tail := m.head + m.n
	if tail >= len(m.inflight) {
		tail -= len(m.inflight)
	}
	m.inflight[tail] = ready
	m.n++
	return ready
}
