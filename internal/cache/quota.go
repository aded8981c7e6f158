package cache

import (
	"fmt"
	"math/bits"
)

// MaxPartitionTenants bounds the tenants a partitioned cache can
// distinguish; way-quota bookkeeping fits fixed arrays at this size,
// keeping the enforcement path allocation-free. It is the one tenant
// bound: the distill cache's LOC and the partition controller use it.
const MaxPartitionTenants = 8

// MaxPartitionWays bounds the associativity the quota rule reads:
// Owners keeps one bit per way.
const MaxPartitionWays = 64

// Owners records who holds each way of one set, for the victim rule:
// bit pos of owned[t] is set when way pos (MRU-first) holds a line
// tenant t installed, bit pos of free when way pos is invalid.
type Owners struct {
	free  uint64
	owned [MaxPartitionTenants]uint64
}

// Add records way pos: invalid, or valid and installed by tenant.
func (o *Owners) Add(pos int, valid bool, tenant uint8) {
	bit := uint64(1) << (uint(pos) & (MaxPartitionWays - 1))
	if valid {
		o.owned[tenant] |= bit
	} else {
		o.free |= bit
	}
}

// Quotas is a per-tenant way-quota table and the victim rule that
// enforces it — the one home of way partitioning for the traditional
// cache and the distill cache's LOC. Quotas bind only in replacement:
// any tenant hits any resident line, as in way-partitioned hardware.
// The zero value is unpartitioned.
type Quotas struct {
	n     int // tenants with a quota; 0 when unpartitioned
	quota [MaxPartitionTenants]int32
}

// Set installs quota[t], the number of ways tenant t may occupy per
// set of a ways-way array; the sum must not exceed ways. A nil or
// empty quota disables partitioning. On an error the table is left as
// it was. Errors carry no prefix; each caller names its cache.
func (q *Quotas) Set(quota []int, ways int) error {
	if len(quota) > MaxPartitionTenants {
		return fmt.Errorf("%d tenants exceed %d", len(quota), MaxPartitionTenants)
	}
	if len(quota) > 0 && ways > MaxPartitionWays {
		return fmt.Errorf("%d ways exceed %d", ways, MaxPartitionWays)
	}
	sum := 0
	for t, w := range quota {
		if w < 0 {
			return fmt.Errorf("negative quota %d for tenant %d", w, t)
		}
		sum += w
	}
	if sum > ways {
		return fmt.Errorf("quota sum %d exceeds %d ways", sum, ways)
	}
	q.n = len(quota)
	for t, w := range quota {
		q.quota[t] = int32(w)
	}
	return nil
}

// Active reports whether a partition is installed.
func (q *Quotas) Active() bool { return q.n > 0 }

// Victim picks the way a missing tenant replaces in the set o
// describes. Invalid ways fill first, the LRU-most of them. A tenant
// at or over its quota evicts its own LRU-most line; any other tenant
// evicts the LRU-most line of an over-quota tenant, where a tenant the
// table does not cover counts as over. Two cases fall back to the
// global LRU way, keeping the install total: a quota-0 tenant with no
// resident line, and a tenant the table does not cover (one a shrink
// of the tenant count dropped) missing while every covered tenant sits
// exactly at its quota.
//
//ldis:noalloc
func (q *Quotas) Victim(o *Owners, tenant int) int {
	if o.free != 0 {
		return lruMost(o.free)
	}
	var from uint64 // the ways the victim is chosen among
	if tenant < q.n && int32(bits.OnesCount64(o.owned[tenant])) >= q.quota[tenant] {
		from = o.owned[tenant]
	} else {
		for t, m := range o.owned {
			if t >= q.n || int32(bits.OnesCount64(m)) > q.quota[t] {
				from |= m
			}
		}
	}
	if from == 0 {
		for _, m := range o.owned {
			from |= m
		}
	}
	return lruMost(from)
}

// lruMost returns the highest way position in a nonempty way mask: the
// LRU-most of those ways, since positions run MRU-first.
func lruMost(ways uint64) int { return bits.Len64(ways) - 1 }
