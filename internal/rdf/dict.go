package rdf

import (
	"slices"
	"sync"
	"sync/atomic"
)

// TermID is a dense dictionary code for an interned Term. IDs are
// assigned sequentially from 0 in first-seen order and are stable for
// the lifetime of the Dict (terms are never evicted), so a TermID can be
// used as a compact map key or array index in place of the 4-field Term
// struct.
type TermID uint32

// AnyID is the wildcard pattern at the ID level: it matches every term
// in Graph.EachMatchIDs, mirroring the Any term at the Term level. It is
// never assigned to a real term.
const AnyID TermID = ^TermID(0)

// Dict interns Terms to dense TermIDs with reverse lookup. A Dict is an
// append-only bijection: Intern assigns the next free ID to an unseen
// term and returns the existing ID otherwise.
//
// # Locking contract
//
// A Dict synchronizes itself with an internal RWMutex, so one Dict may
// be shared by every graph of a Dataset (and by SPARQL evaluation
// running concurrently with writers). The terms slice is append-only:
// once an ID is handed out, the Term it decodes to never changes, so a
// slice header captured by Snapshot stays valid forever — readers can
// index it lock-free for any ID observed before the snapshot was taken.
//
// The term order (Order, order.go) is published through an atomic
// pointer and never mutated once published, so readers load it without
// any lock and may keep it for as long as they like: it stays correct
// for the IDs below its N, and merely stops covering terms interned
// after it was built. Extending it takes a separate mutex with TryLock
// only, so neither interning nor any reader ever waits for an extension.
type Dict struct {
	mu    sync.RWMutex
	ids   map[Term]TermID
	terms []Term
	// changes counts the changes to the dataset whose graphs intern here
	// (see Dataset.Changes): triples added by any of its graphs, which
	// bump it after the index change, graphs created or dropped, and
	// prefixes bound.
	changes atomic.Uint64

	// order is the published term order, nil until the first build;
	// orderMu serializes extensions; orderCharge is the Compare calls
	// callers spent on terms the order did not cover since the last
	// extension (ChargeOrder).
	order       atomic.Pointer[TermOrder]
	orderMu     sync.Mutex
	orderCharge atomic.Int64
}

// NewDict returns an empty dictionary.
func NewDict() *Dict {
	return &Dict{ids: make(map[Term]TermID)}
}

// Intern returns the ID of t, assigning the next free ID if t has not
// been seen before.
func (d *Dict) Intern(t Term) TermID {
	d.mu.RLock()
	id, ok := d.ids[t]
	d.mu.RUnlock()
	if ok {
		return id
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if id, ok := d.ids[t]; ok {
		return id
	}
	id = TermID(len(d.terms))
	d.ids[t] = id
	d.terms = append(d.terms, t)
	return id
}

// InternBatch interns every term of ts under a single lock acquisition,
// writing the assigned IDs into out (which must have len(ts)). The
// terms slice is grown once up front, by append's amortized rule, so a
// chain of small delta segments does not copy the whole table once per
// segment — with an eighth of the batch to spare, because a table grown
// to fit a cold open's one large batch would be copied whole by the first
// term interned after it — and an empty dictionary gets a map presized
// for the batch: this is the segment-load fast path, where a cold open
// interns the whole dictionary block at once.
func (d *Dict) InternBatch(ts []Term, out []TermID) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.terms = slices.Grow(d.terms, len(ts)+len(ts)/8)
	if len(d.ids) == 0 {
		d.ids = make(map[Term]TermID, len(ts))
	}
	for i, t := range ts {
		id, ok := d.ids[t]
		if !ok {
			id = TermID(len(d.terms))
			d.ids[t] = id
			d.terms = append(d.terms, t)
		}
		out[i] = id
	}
}

// ID returns the ID of t without interning; ok is false when t has never
// been interned.
func (d *Dict) ID(t Term) (TermID, bool) {
	d.mu.RLock()
	id, ok := d.ids[t]
	d.mu.RUnlock()
	return id, ok
}

// Term returns the term for an ID; ok is false for IDs that were never
// assigned (including AnyID).
func (d *Dict) Term(id TermID) (Term, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	// Compare in uint64 so AnyID cannot wrap negative on 32-bit ints.
	if uint64(id) >= uint64(len(d.terms)) {
		return Term{}, false
	}
	return d.terms[id], true
}

// Len returns the number of interned terms.
func (d *Dict) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.terms)
}

// Snapshot returns the current id -> term table. The returned slice is
// shared and MUST be treated as read-only; because the table is
// append-only it remains a correct decode for every ID that existed when
// the snapshot was taken, even while other goroutines keep interning.
func (d *Dict) Snapshot() []Term {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.terms
}
