package cache

import (
	"strings"
	"testing"
)

// u marks an invalid way in the owner lists below.
const u = 0xff

// ownersOf records a set whose ways' owners are listed MRU-first.
func ownersOf(list []uint8) *Owners {
	var o Owners
	for pos, t := range list {
		o.Add(pos, t != u, t)
	}
	return &o
}

// TestQuotasVictim is the way-quota rule's table: every branch, both
// global-LRU fallbacks among them. Owners are listed MRU-first, so
// the LRU way is the last.
func TestQuotasVictim(t *testing.T) {
	for _, tc := range []struct {
		name   string
		quota  []int
		owners []uint8
		tenant int
		want   int
	}{
		{"invalid way fills first", []int{1, 3}, []uint8{0, u, 1, 0}, 0, 1},
		{"last invalid way wins", []int{1, 3}, []uint8{u, 0, u, 0}, 1, 2},
		{"at quota: own LRU line", []int{2, 2}, []uint8{0, 1, 0, 1}, 0, 2},
		{"over quota after a shrink: own LRU line", []int{1, 3}, []uint8{0, 0, 1, 0}, 0, 3},
		{"under quota: LRU line of an over-quota tenant", []int{1, 3}, []uint8{1, 0, 0, 1}, 1, 2},
		{"uncovered owner counts as over", []int{2, 2}, []uint8{0, 2, 0, 1}, 1, 1},
		{"fallback: quota-0 tenant with no resident line", []int{4, 0}, []uint8{0, 0, 0, 0}, 1, 3},
		{"fallback: uncovered tenant, every covered one exactly at quota", []int{2, 2}, []uint8{0, 1, 1, 0}, 2, 3},
	} {
		var q Quotas
		if err := q.Set(tc.quota, len(tc.owners)); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := q.Victim(ownersOf(tc.owners), tc.tenant); got != tc.want {
			t.Errorf("%s: Victim = %d, want %d", tc.name, got, tc.want)
		}
	}
}

// TestQuotasSet: the refusals every partitioned cache shares, and that
// a refused table leaves the installed one in force.
func TestQuotasSet(t *testing.T) {
	var q Quotas
	if q.Active() {
		t.Fatal("zero Quotas should be unpartitioned")
	}
	if err := q.Set([]int{3, 1}, 4); err != nil || !q.Active() {
		t.Fatalf("Set(3,1) = %v, active %v", err, q.Active())
	}
	for _, tc := range []struct {
		quota []int
		ways  int
		want  string
	}{
		{make([]int, MaxPartitionTenants+1), 16, "9 tenants exceed 8"},
		{[]int{2, -1}, 4, "negative quota -1 for tenant 1"},
		{[]int{3, 2}, 4, "quota sum 5 exceeds 4 ways"},
		{[]int{1, 1}, MaxPartitionWays + 1, "65 ways exceed 64"},
	} {
		err := q.Set(tc.quota, tc.ways)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Set(%v, %d) = %v, want %q", tc.quota, tc.ways, err, tc.want)
		}
	}
	if got := q.Victim(ownersOf([]uint8{0, 0, 1, 0}), 1); got != 2 {
		t.Errorf("refused Set changed the table: tenant 1 at quota 1 evicts way %d, want 2", got)
	}
	if err := q.Set(nil, 4); err != nil || q.Active() {
		t.Errorf("Set(nil) = %v, active %v; want unpartitioned", err, q.Active())
	}
}
