package rdf

import (
	"fmt"
	"iter"
	"sort"
	"sync"
)

// Graph is a set of triples, dictionary-encoded and indexed by subject,
// predicate and object so that every single- or double-bound pattern is
// answered from a hash lookup over dense uint32 IDs. Graph is safe for
// concurrent use.
//
// The graph mutex guards the three permutation indexes; the dictionary
// synchronizes itself (see Dict), because graphs created through a
// Dataset share the dataset's dictionary and may intern concurrently.
//
// The zero value is not ready to use; call NewGraph.
type Graph struct {
	mu   sync.RWMutex
	dict *Dict
	spo  idIndex
	pos  idIndex
	osp  idIndex
	n    int
}

// idIndex is a three-level hash index over dictionary-encoded triples.
// The meaning of the levels depends on the permutation (spo, pos, osp).
// Below the first level sits an idMid, which keeps the (second, third)
// pairs of a low-fan-out key in a single pointer-free pair list instead
// of nested maps: most first-level keys (a subject's predicates, an
// object's referring subjects) have a handful of triples, and per-key
// map headers plus bucket arrays would dominate both allocation count
// and GC scan time on a bulk load.
type idIndex map[TermID]idMid

// bc is one (second, third)-position pair in an idMid pair list.
type bc struct{ b, c TermID }

// midSpill is the pair count beyond which an idMid trades its
// linear-scan pair list for nested maps.
const midSpill = 16

// idMid holds the lower two levels of an idIndex under one first-level
// ID: logically a map from second-level ID to the set of third-level
// IDs. Up to midSpill pairs it is an unordered pair list (one
// pointer-free allocation, linear probes over dense uint32s); past that
// it spills to a map of idSets and stays there. idMid is held by value
// in the index, so add returns the updated value for the caller to
// store back.
type idMid struct {
	small []bc
	big   *midMap
}

// midMap is a spilled idMid. n is the pair count over every set of m,
// which only grows, kept by add so that Count on a one-bound pattern
// reads a field instead of walking m (the SPARQL planner asks once per
// triple pattern per request). It sits behind the pointer so that the
// 32-byte idMid, of which an index holds one per first-level key, does
// not grow.
type midMap struct {
	n int
	m map[TermID]idSet
}

func (m idMid) has(b, c TermID) bool {
	if m.big != nil {
		return m.big.m[b].has(c)
	}
	for _, p := range m.small {
		if p.b == b && p.c == c {
			return true
		}
	}
	return false
}

// totalLen returns the number of pairs (triples under this first-level
// key).
func (m idMid) totalLen() int {
	if m.big != nil {
		return m.big.n
	}
	return len(m.small)
}

// setLen returns the size of the third-level set under b.
func (m idMid) setLen(b TermID) int {
	if m.big != nil {
		return m.big.m[b].len()
	}
	n := 0
	for _, p := range m.small {
		if p.b == b {
			n++
		}
	}
	return n
}

// distinctB returns the number of distinct second-level IDs.
func (m idMid) distinctB() int {
	if m.big != nil {
		return len(m.big.m)
	}
	n := 0
	for i, p := range m.small {
		dup := false
		for _, q := range m.small[:i] {
			if q.b == p.b {
				dup = true
				break
			}
		}
		if !dup {
			n++
		}
	}
	return n
}

func (m idMid) add(b, c TermID) (idMid, bool) {
	if m.big != nil {
		s, added := m.big.m[b].add(c)
		if added {
			m.big.m[b] = s
			m.big.n++
		}
		return m, added
	}
	for _, p := range m.small {
		if p.b == b && p.c == c {
			return m, false
		}
	}
	if len(m.small) >= midSpill {
		big := make(map[TermID]idSet, len(m.small)+1)
		for _, p := range m.small {
			s, _ := big[p.b].add(p.c)
			big[p.b] = s
		}
		s, _ := big[b].add(c)
		big[b] = s
		return idMid{big: &midMap{n: len(m.small) + 1, m: big}}, true
	}
	m.small = append(m.small, bc{b, c})
	return m, true
}

// items iterates every (second, third) pair in unspecified order.
func (m idMid) items() iter.Seq2[TermID, TermID] {
	return func(yield func(TermID, TermID) bool) {
		if m.big != nil {
			for b, s := range m.big.m {
				for c := range s.items() {
					if !yield(b, c) {
						return
					}
				}
			}
			return
		}
		for _, p := range m.small {
			if !yield(p.b, p.c) {
				return
			}
		}
	}
}

// setItems iterates the third-level set under b. It returns one closure
// for both representations: with two, a range over the result is a call
// through an unknown function value, and the loop body, everything it
// captures and the iterator itself move to the heap.
func (m idMid) setItems(b TermID) iter.Seq[TermID] {
	return func(yield func(TermID) bool) {
		if m.big != nil {
			m.big.m[b].items()(yield)
			return
		}
		for _, p := range m.small {
			if p.b == b && !yield(p.c) {
				return
			}
		}
	}
}

// idSetSpill is the leaf size beyond which an idSet trades its
// linear-scan slice for a map. Linear membership probes on ≤16 dense
// uint32s are faster than a map lookup, and the slice keeps the leaf
// pointer-free.
const idSetSpill = 16

// idSet is the leaf of an idIndex: the set of third-position IDs under
// a fixed (first, second) pair. Small sets live in an unordered slice;
// once a set outgrows idSetSpill it spills to a map and stays there.
// idSet is held by value in the index, so add returns the updated set
// for the caller to store back.
type idSet struct {
	small []TermID
	big   map[TermID]struct{}
}

func (s idSet) has(c TermID) bool {
	if s.big != nil {
		_, ok := s.big[c]
		return ok
	}
	for _, v := range s.small {
		if v == c {
			return true
		}
	}
	return false
}

func (s idSet) len() int {
	if s.big != nil {
		return len(s.big)
	}
	return len(s.small)
}

func (s idSet) add(c TermID) (idSet, bool) {
	if s.big != nil {
		if _, dup := s.big[c]; dup {
			return s, false
		}
		s.big[c] = struct{}{}
		return s, true
	}
	for _, v := range s.small {
		if v == c {
			return s, false
		}
	}
	if len(s.small) >= idSetSpill {
		big := make(map[TermID]struct{}, len(s.small)+1)
		for _, v := range s.small {
			big[v] = struct{}{}
		}
		big[c] = struct{}{}
		return idSet{big: big}, true
	}
	s.small = append(s.small, c)
	return s, true
}

// items iterates the set in unspecified order; yield false stops early.
func (s idSet) items() iter.Seq[TermID] {
	return func(yield func(TermID) bool) {
		if s.big != nil {
			for v := range s.big {
				if !yield(v) {
					return
				}
			}
			return
		}
		for _, v := range s.small {
			if !yield(v) {
				return
			}
		}
	}
}

func (ix idIndex) add(a, b, c TermID) bool {
	mid, added := ix[a].add(b, c)
	if added {
		ix[a] = mid
	}
	return added
}

// NewGraph returns an empty graph with its own private dictionary.
// Graphs meant to live inside a Dataset are created through
// Dataset.Graph, so they share the dataset-wide dictionary.
func NewGraph() *Graph {
	return NewGraphWith(NewDict())
}

// NewGraphWith returns an empty graph that interns its terms in d.
// Sharing one dictionary across graphs makes their TermIDs directly
// comparable, which is what lets SPARQL evaluation join ID rows across
// GRAPH blocks without re-encoding.
func NewGraphWith(d *Dict) *Graph {
	return &Graph{
		dict: d,
		spo:  make(idIndex),
		pos:  make(idIndex),
		osp:  make(idIndex),
	}
}

// Dict returns the dictionary the graph interns its terms in.
func (g *Graph) Dict() *Dict { return g.dict }

// Add inserts a triple. It reports whether the triple was newly added
// (false if it was already present) and returns an error for structurally
// invalid triples.
func (g *Graph) Add(t Triple) (bool, error) {
	if !t.Valid() {
		return false, fmt.Errorf("rdf: invalid triple %s", t)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	s := g.dict.Intern(t.S)
	p := g.dict.Intern(t.P)
	o := g.dict.Intern(t.O)
	if !g.spo.add(s, p, o) {
		return false, nil
	}
	g.pos.add(p, o, s)
	g.osp.add(o, s, p)
	g.n++
	g.dict.changes.Add(1)
	return true, nil
}

// BulkAddIDs inserts a batch of ID triples under one lock acquisition,
// building the three permutation indexes concurrently (they are
// disjoint structures, so the only coordination needed is the batch
// barrier at the end). It reports how many triples were newly added.
// The IDs must have been assigned by the graph's own dictionary
// (Dict().Intern on this graph's dict); the caller is responsible for
// that invariant, BulkAddIDs does not validate it. This is the
// segment-load fast path: on a cold store open the index build
// dominates, and splitting it across cores cuts open latency roughly by
// the number of permutations.
func (g *Graph) BulkAddIDs(tr [][3]TermID) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.n == 0 && len(g.spo) == 0 {
		// Fresh graph: presize each index's outer map to its exact key
		// count, so the load never pays an incremental rehash and never
		// keeps buckets for keys that do not exist (a full segment has as
		// many predicate runs as triples but a handful of predicates).
		g.spo = make(idIndex, distinctAt(tr, 0))
		g.pos = make(idIndex, distinctAt(tr, 1))
		g.osp = make(idIndex, distinctAt(tr, 2))
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		bulkAdd(g.pos, tr, 1, 2, 0)
	}()
	go func() {
		defer wg.Done()
		bulkAdd(g.osp, tr, 2, 0, 1)
	}()
	added := bulkAdd(g.spo, tr, 0, 1, 2)
	wg.Wait()
	g.n += added
	g.dict.changes.Add(uint64(added))
	return added
}

// distinctAt returns the number of distinct IDs at triple position i.
// IDs are dense dictionary indexes, so a bitmap over [0, max] counts them
// in two passes without hashing.
func distinctAt(tr [][3]TermID, i int) int {
	var top TermID
	for _, t := range tr {
		top = max(top, t[i])
	}
	seen := make([]uint64, top/64+1)
	n := 0
	for _, t := range tr {
		if w, bit := t[i]/64, uint64(1)<<(t[i]%64); seen[w]&bit == 0 {
			seen[w] |= bit
			n++
		}
	}
	return n
}

// bulkArenaChunk is the largest shared pair-list backing array bulkAdd
// hands out to fresh first-level keys. A chunk stays reachable while any
// of its keys lives, so it is never larger than the triples still to add
// can fill: a delta segment of 80 triples must not pin 64 KiB per index.
const bulkArenaChunk = 8192

// bulkAdd inserts tr into one permutation index, reading the levels
// from positions ai/bi/ci of each triple. Segment data arrives in long
// same-subject (and often same-predicate) runs, so the two upper index
// levels are cached across iterations — a run costs one outer-map
// lookup instead of one per triple.
func bulkAdd(ix idIndex, tr [][3]TermID, ai, bi, ci int) int {
	added := 0
	var (
		haveRun     bool
		lastA       TermID
		cur         idMid
		dirty       bool
		arena       []bc
		arenaBacked bool
	)
	flush := func() {
		if !haveRun {
			return
		}
		if arenaBacked && cur.big == nil {
			// Freeze the pair list at its exact length so a later append
			// reallocates instead of clobbering the next key's arena
			// share, then advance the arena past the consumed prefix.
			used := len(cur.small)
			cur.small = cur.small[:used:used]
			arena = arena[used:]
		}
		if dirty {
			ix[lastA] = cur
		}
	}
	for i, t := range tr {
		a, b, c := t[ai], t[bi], t[ci]
		if !haveRun || a != lastA {
			flush()
			cur = ix[a]
			arenaBacked = false
			if cur.small == nil && cur.big == nil {
				// Fresh key: build its pair list in the shared arena so a
				// load of many low-fan-out keys costs one allocation per
				// chunk instead of one per key.
				if len(arena) <= midSpill {
					arena = make([]bc, min(bulkArenaChunk, max(len(tr)-i, midSpill+1)))
				}
				cur.small = arena[:0]
				arenaBacked = true
			}
			lastA, haveRun, dirty = a, true, false
		}
		var did bool
		if cur, did = cur.add(b, c); did {
			added++
			dirty = true
		}
	}
	flush()
	return added
}

// MustAdd inserts a triple and panics on structural invalidity. It is a
// convenience for fixtures and internally generated triples whose shape
// is known to be valid.
func (g *Graph) MustAdd(t Triple) {
	if _, err := g.Add(t); err != nil {
		panic(err)
	}
}

// Has reports whether the exact triple is present.
func (g *Graph) Has(t Triple) bool {
	g.mu.RLock()
	defer g.mu.RUnlock()
	s, ok := g.dict.ID(t.S)
	if !ok {
		return false
	}
	p, ok := g.dict.ID(t.P)
	if !ok {
		return false
	}
	o, ok := g.dict.ID(t.O)
	if !ok {
		return false
	}
	return g.spo[s].has(p, o)
}

// Len returns the number of stored triples.
func (g *Graph) Len() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.n
}

// IDOf returns the dictionary ID of a term; ok is false when the term
// has never been stored in the graph.
func (g *Graph) IDOf(t Term) (TermID, bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.dict.ID(t)
}

// TermOf returns the term for a dictionary ID previously obtained from
// IDOf or EachMatchIDs.
func (g *Graph) TermOf(id TermID) (Term, bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.dict.Term(id)
}

// patIDLocked resolves a pattern term to an ID-level pattern component.
// ok is false when the term is concrete but unknown to the dictionary,
// in which case no triple can match.
func (g *Graph) patIDLocked(t Term) (TermID, bool) {
	if t.IsAny() {
		return AnyID, true
	}
	return g.dict.ID(t)
}

// EachMatch calls fn for every triple matching the pattern, where each
// of s, p, o is either a concrete term or the Any wildcard. Iteration
// stops early when fn returns false. Triples are visited in unspecified
// order; no intermediate slice is materialized and no sorting happens,
// so a full scan allocates nothing.
//
// fn must not mutate g (the graph's read lock is held across the call),
// and should avoid re-entrant reads of g while a concurrent writer may
// be blocked.
func (g *Graph) EachMatch(s, p, o Term, fn func(Triple) bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	g.eachMatchTermsLocked(s, p, o, fn)
}

// EachMatchIDs is the ID-level variant of EachMatch: pattern components
// are dictionary IDs (AnyID as wildcard) and fn receives raw IDs,
// skipping term reconstruction entirely. The same locking contract as
// EachMatch applies.
func (g *Graph) EachMatchIDs(s, p, o TermID, fn func(s, p, o TermID) bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	g.eachMatchIDsLocked(s, p, o, fn)
}

// AppendMatchIDs appends every matching triple to dst as consecutive
// (s, p, o) ID triplets and returns the extended slice. The whole match
// set is collected under a single read-lock acquisition, so a consumer
// that needs a pattern's full extent (a hash-join build side, a bulk
// export) pays one lock round-trip instead of one per probe and no
// per-match callback. Triplets are appended in unspecified order.
func (g *Graph) AppendMatchIDs(dst []TermID, s, p, o TermID) []TermID {
	g.mu.RLock()
	defer g.mu.RUnlock()
	if need := 3 * g.countIDsLocked(s, p, o); cap(dst)-len(dst) < need {
		grown := make([]TermID, len(dst), len(dst)+need)
		copy(grown, dst)
		dst = grown
	}
	g.eachMatchIDsLocked(s, p, o, func(a, b, c TermID) bool {
		dst = append(dst, a, b, c)
		return true
	})
	return dst
}

// CountIDs is the ID-level variant of Count: pattern components are
// dictionary IDs with AnyID as the wildcard. Like Count it is computed
// from index map lengths and allocates nothing.
func (g *Graph) CountIDs(s, p, o TermID) int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.countIDsLocked(s, p, o)
}

// DistinctCountIDs reports how many distinct values position pos
// (0 = subject, 1 = predicate, 2 = object) takes among the triples
// matching the ID pattern — but only when that number can be read from
// index map lengths alone. ok is false when computing it would require
// iterating matches; callers (e.g. the query planner's join fan-out
// estimate) should then fall back to a neutral default rather than pay
// for a scan.
func (g *Graph) DistinctCountIDs(s, p, o TermID, pos int) (n int, ok bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	sAny, pAny, oAny := s == AnyID, p == AnyID, o == AnyID
	// A constant at the queried position takes one distinct value when
	// anything matches at all (and countIDsLocked is itself map-length
	// arithmetic for every shape with at least one constant).
	if pos == 0 && !sAny || pos == 1 && !pAny || pos == 2 && !oAny {
		if g.countIDsLocked(s, p, o) == 0 {
			return 0, true
		}
		return 1, true
	}
	switch pos {
	case 0: // distinct subjects
		switch {
		case pAny && oAny:
			return len(g.spo), true
		case !pAny && !oAny:
			return g.pos[p].setLen(o), true
		case pAny:
			return g.osp[o].distinctB(), true
		}
	case 1: // distinct predicates
		switch {
		case sAny && oAny:
			return len(g.pos), true
		case !sAny && !oAny:
			return g.osp[o].setLen(s), true
		case oAny:
			return g.spo[s].distinctB(), true
		}
	case 2: // distinct objects
		switch {
		case sAny && pAny:
			return len(g.osp), true
		case !sAny && !pAny:
			return g.spo[s].setLen(p), true
		case sAny:
			return g.pos[p].distinctB(), true
		}
	}
	return 0, false
}

func (g *Graph) eachMatchTermsLocked(s, p, o Term, fn func(Triple) bool) bool {
	sid, ok := g.patIDLocked(s)
	if !ok {
		return true
	}
	pid, ok := g.patIDLocked(p)
	if !ok {
		return true
	}
	oid, ok := g.patIDLocked(o)
	if !ok {
		return true
	}
	terms := g.dict.Snapshot()
	return g.eachMatchIDsLocked(sid, pid, oid, func(a, b, c TermID) bool {
		return fn(T(terms[a], terms[b], terms[c]))
	})
}

// eachMatchIDsLocked walks the cheapest index for the pattern shape. It
// reports false when fn stopped the iteration.
func (g *Graph) eachMatchIDsLocked(s, p, o TermID, fn func(s, p, o TermID) bool) bool {
	sAny, pAny, oAny := s == AnyID, p == AnyID, o == AnyID
	switch {
	case !sAny && !pAny && !oAny:
		if g.spo[s].has(p, o) {
			return fn(s, p, o)
		}
	case !sAny && !pAny: // s p ?
		for obj := range g.spo[s].setItems(p) {
			if !fn(s, p, obj) {
				return false
			}
		}
	case !sAny && !oAny: // s ? o
		for pred := range g.osp[o].setItems(s) {
			if !fn(s, pred, o) {
				return false
			}
		}
	case !pAny && !oAny: // ? p o
		for subj := range g.pos[p].setItems(o) {
			if !fn(subj, p, o) {
				return false
			}
		}
	case !sAny: // s ? ?
		for pred, obj := range g.spo[s].items() {
			if !fn(s, pred, obj) {
				return false
			}
		}
	case !pAny: // ? p ?
		for obj, subj := range g.pos[p].items() {
			if !fn(subj, p, obj) {
				return false
			}
		}
	case !oAny: // ? ? o
		for subj, pred := range g.osp[o].items() {
			if !fn(subj, pred, o) {
				return false
			}
		}
	default: // ? ? ?
		for subj, mid := range g.spo {
			for pred, obj := range mid.items() {
				if !fn(subj, pred, obj) {
					return false
				}
			}
		}
	}
	return true
}

// countIDsLocked computes the match cardinality from index map lengths
// and the pair count each spilled idMid keeps, without visiting triples.
func (g *Graph) countIDsLocked(s, p, o TermID) int {
	sAny, pAny, oAny := s == AnyID, p == AnyID, o == AnyID
	switch {
	case !sAny && !pAny && !oAny:
		if g.spo[s].has(p, o) {
			return 1
		}
		return 0
	case !sAny && !pAny: // s p ?
		return g.spo[s].setLen(p)
	case !sAny && !oAny: // s ? o
		return g.osp[o].setLen(s)
	case !pAny && !oAny: // ? p o
		return g.pos[p].setLen(o)
	case !sAny: // s ? ?
		return g.spo[s].totalLen()
	case !pAny: // ? p ?
		return g.pos[p].totalLen()
	case !oAny: // ? ? o
		return g.osp[o].totalLen()
	default:
		return g.n
	}
}

func (g *Graph) countTermsLocked(s, p, o Term) int {
	sid, ok := g.patIDLocked(s)
	if !ok {
		return 0
	}
	pid, ok := g.patIDLocked(p)
	if !ok {
		return 0
	}
	oid, ok := g.patIDLocked(o)
	if !ok {
		return 0
	}
	return g.countIDsLocked(sid, pid, oid)
}

// Match returns all triples matching the pattern, where each of s, p, o
// is either a concrete term or the Any wildcard. Results are returned in
// a deterministic (sorted) order. Callers that only iterate, count or
// take one element should prefer EachMatch, Count or MatchFirst, which
// skip the slice and the sort.
func (g *Graph) Match(s, p, o Term) []Triple {
	g.mu.RLock()
	var out []Triple
	if n := g.countTermsLocked(s, p, o); n > 0 {
		out = make([]Triple, 0, n)
		g.eachMatchTermsLocked(s, p, o, func(t Triple) bool {
			out = append(out, t)
			return true
		})
	}
	g.mu.RUnlock()
	SortTriples(out)
	return out
}

// MatchFirst returns the smallest triple (by CompareTriples) matching
// the pattern, or ok = false if none does. It is a single-pass minimum
// scan: no match set is materialized or sorted.
func (g *Graph) MatchFirst(s, p, o Term) (Triple, bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	var best Triple
	found := false
	g.eachMatchTermsLocked(s, p, o, func(t Triple) bool {
		if !found || CompareTriples(t, best) < 0 {
			best, found = t, true
		}
		return true
	})
	return best, found
}

// Count returns the number of triples matching the pattern. It reads
// index map lengths and kept counts (at most one scan of a pair list of
// midSpill entries), never iterates a map, and allocates nothing.
func (g *Graph) Count(s, p, o Term) int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.countTermsLocked(s, p, o)
}

// Triples returns all triples in deterministic order.
func (g *Graph) Triples() []Triple { return g.Match(Any, Any, Any) }

// Subjects returns the distinct subjects of triples matching (Any, p, o),
// sorted.
func (g *Graph) Subjects(p, o Term) []Term {
	g.mu.RLock()
	var out []Term
	terms := g.dict.Snapshot()
	pid, pok := g.patIDLocked(p)
	oid, ook := g.patIDLocked(o)
	switch {
	case !pok || !ook:
	case pid != AnyID && oid != AnyID:
		// Fully bound: the third index level is exactly the subject set.
		if mid := g.pos[pid]; mid.setLen(oid) > 0 {
			out = make([]Term, 0, mid.setLen(oid))
			for sid := range mid.setItems(oid) {
				out = append(out, terms[sid])
			}
		}
	default:
		seen := map[TermID]struct{}{}
		g.eachMatchIDsLocked(AnyID, pid, oid, func(sid, _, _ TermID) bool {
			if _, dup := seen[sid]; !dup {
				seen[sid] = struct{}{}
				out = append(out, terms[sid])
			}
			return true
		})
	}
	g.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return Compare(out[i], out[j]) < 0 })
	return out
}

// Objects returns the distinct objects of triples matching (s, p, Any),
// sorted.
func (g *Graph) Objects(s, p Term) []Term {
	g.mu.RLock()
	var out []Term
	terms := g.dict.Snapshot()
	sid, sok := g.patIDLocked(s)
	pid, pok := g.patIDLocked(p)
	switch {
	case !sok || !pok:
	case sid != AnyID && pid != AnyID:
		if mid := g.spo[sid]; mid.setLen(pid) > 0 {
			out = make([]Term, 0, mid.setLen(pid))
			for oid := range mid.setItems(pid) {
				out = append(out, terms[oid])
			}
		}
	default:
		seen := map[TermID]struct{}{}
		g.eachMatchIDsLocked(sid, pid, AnyID, func(_, _, oid TermID) bool {
			if _, dup := seen[oid]; !dup {
				seen[oid] = struct{}{}
				out = append(out, terms[oid])
			}
			return true
		})
	}
	g.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return Compare(out[i], out[j]) < 0 })
	return out
}

// Object returns the single object of (s, p, ·). ok is false when no such
// triple exists; when several exist the smallest by Compare is returned.
func (g *Graph) Object(s, p Term) (Term, bool) {
	t, ok := g.MatchFirst(s, p, Any)
	if !ok {
		return Term{}, false
	}
	return t.O, true
}

// Equal reports whether two graphs contain exactly the same triples.
// (Blank nodes are compared by label, not by isomorphism; MDM never
// relies on blank-node renaming.)
func (g *Graph) Equal(other *Graph) bool {
	if g == other {
		return true
	}
	if g.Len() != other.Len() {
		return false
	}
	// Snapshot g's triples first: probing other.Has while holding g's
	// read lock would nest the two RWMutexes and can deadlock against
	// concurrent writers (a.Equal(b) racing b.Equal(a)).
	g.mu.RLock()
	ts := make([]Triple, 0, g.n)
	terms := g.dict.Snapshot()
	g.eachMatchIDsLocked(AnyID, AnyID, AnyID, func(a, b, c TermID) bool {
		ts = append(ts, T(terms[a], terms[b], terms[c]))
		return true
	})
	g.mu.RUnlock()
	for _, t := range ts {
		if !other.Has(t) {
			return false
		}
	}
	return true
}

// SubClassClosure returns the set of classes reachable from class via
// zero or more rdfs:subClassOf edges (reflexive, transitive closure).
func (g *Graph) SubClassClosure(class Term) map[Term]bool {
	return g.closure(class, IRI(RDFSSubClassOf), false)
}

// SuperClassClosure returns class plus all its (transitive) superclasses.
func (g *Graph) SuperClassClosure(class Term) map[Term]bool {
	return g.closure(class, IRI(RDFSSubClassOf), true)
}

// closure walks pred-edges from start. forward=true follows start→object
// direction (superclasses); forward=false follows object→subject
// (subclasses).
func (g *Graph) closure(start, pred Term, forward bool) map[Term]bool {
	seen := map[Term]bool{start: true}
	frontier := []Term{start}
	for len(frontier) > 0 {
		next := frontier[:0:0]
		for _, cur := range frontier {
			var neigh []Term
			if forward {
				neigh = g.Objects(cur, pred)
			} else {
				neigh = g.Subjects(pred, cur)
			}
			for _, n := range neigh {
				if !seen[n] {
					seen[n] = true
					next = append(next, n)
				}
			}
		}
		frontier = next
	}
	return seen
}

// IsSubClassOf reports whether sub is class or a (transitive) subclass of
// class.
func (g *Graph) IsSubClassOf(sub, class Term) bool {
	return g.SuperClassClosure(sub)[class]
}

// SameAs returns the owl:sameAs equivalence set of t (bidirectional,
// transitive, including t itself).
func (g *Graph) SameAs(t Term) map[Term]bool {
	seen := map[Term]bool{t: true}
	frontier := []Term{t}
	same := IRI(OWLSameAs)
	for len(frontier) > 0 {
		next := frontier[:0:0]
		for _, cur := range frontier {
			for _, n := range g.Objects(cur, same) {
				if !seen[n] {
					seen[n] = true
					next = append(next, n)
				}
			}
			for _, n := range g.Subjects(same, cur) {
				if !seen[n] {
					seen[n] = true
					next = append(next, n)
				}
			}
		}
		frontier = next
	}
	return seen
}
