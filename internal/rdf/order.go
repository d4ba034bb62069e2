package rdf

import (
	"math/bits"
	"slices"
	"sort"
)

// TermOrder ranks a prefix of a dictionary's IDs by Compare: Rank(id)
// is the position of id's term in Compare order among the terms of IDs
// 0 … N()-1. It costs 4 bytes per covered term and is immutable, so a
// caller that loaded one may read it for as long as it likes; terms
// interned after it was built are simply not covered (id >= N()).
//
// Compare is total on distinct terms, so distinct IDs never share a
// rank, and comparing two covered IDs' ranks is comparing their terms.
type TermOrder struct {
	rank []uint32
}

// N returns how many IDs the order covers: exactly those below N. A nil
// order covers none.
func (o *TermOrder) N() int {
	if o == nil {
		return 0
	}
	return len(o.rank)
}

// Rank returns the position of id's term among the covered terms in
// Compare order. id must be below N.
func (o *TermOrder) Rank(id TermID) uint32 { return o.rank[id] }

// Order returns the dictionary's current term order, nil when none has
// been built yet. It never blocks.
func (d *Dict) Order() *TermOrder { return d.order.Load() }

// ChargeOrder records that a caller made compares calls of Compare to
// order terms that Order did not cover. The order is built, or extended
// to every term interned so far, by the call whose charge brings the
// total since the last extension up to what that extension costs
// (orderCost). Total ordering work is then at most twice the cheaper of
// never building and building once, whatever the query mix — a
// dictionary reopened for a few small queries never pays for a sort of
// all its terms, and one whose queries keep re-sorting most of it gets
// its order within a few of them. The charging caller does the
// extension itself, unless another one is already running (TryLock):
// no caller ever waits for it.
func (d *Dict) ChargeOrder(compares int) {
	charge := d.orderCharge.Add(int64(compares))
	covered := d.Order().N()
	k := d.Len() - covered
	if k <= 0 || charge < orderCost(covered, k) || !d.orderMu.TryLock() {
		return
	}
	defer d.orderMu.Unlock()
	d.extendOrder()
	d.orderCharge.Store(0)
}

// orderCost is the cost, in Compare calls, of extending an order that
// covers n IDs by k more: sort the k new terms, place each by binary
// search among the n ordered ones, and one pass over all n+k to rewrite
// the rank.
func orderCost(n, k int) int64 {
	return int64(k)*int64(bits.Len(uint(k))+bits.Len(uint(n))) + int64(n+k)
}

// extendOrder publishes an order covering every term interned so far.
// The caller holds orderMu.
func (d *Dict) extendOrder() {
	terms := d.Snapshot()
	old := d.Order()
	n := old.N()
	if len(terms) <= n {
		return
	}
	added := make([]TermID, len(terms)-n)
	for i := range added {
		added[i] = TermID(n + i)
	}
	slices.SortFunc(added, func(a, b TermID) int { return Compare(terms[a], terms[b]) })
	// byRank inverts the old order, so the search can read the term at
	// a rank.
	byRank := make([]TermID, n)
	for id := 0; id < n; id++ {
		byRank[old.rank[id]] = TermID(id)
	}
	// pos[j] counts the old terms that sort before added[j]; added is
	// sorted, so each search starts where the previous one ended.
	pos := make([]int, len(added))
	lo := 0
	for j, id := range added {
		t := terms[id]
		lo += sort.Search(n-lo, func(i int) bool { return Compare(terms[byRank[lo+i]], t) > 0 })
		pos[j] = lo
	}
	// An old term moves up by the number of added terms placed at or
	// before its rank; added[j] lands after pos[j] old and j added terms.
	rank := make([]uint32, len(terms))
	j := 0
	for r, id := range byRank {
		for j < len(added) && pos[j] <= r {
			j++
		}
		rank[id] = uint32(r + j)
	}
	for j, id := range added {
		rank[id] = uint32(pos[j] + j)
	}
	d.order.Store(&TermOrder{rank: rank})
}
