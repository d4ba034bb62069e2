package sparql

import (
	"context"
	"fmt"
	"iter"
	"math"
	"math/bits"
	"slices"
	"sort"
	"time"

	"mdm/internal/obs"
	"mdm/internal/rdf"
)

// This file implements the pull-based streaming engine. A query compiles
// to a tree of row operators (rowIter); every operator pulls full-width
// []rdf.TermID rows from its input on demand, so evaluation does no more
// work than the rows actually read through the Cursor require:
//
//   - LIMIT/OFFSET are pushed into the pipeline tail. With ORDER BY
//     absent, the canonical-order contract (results sorted by the
//     projected columns so pages are deterministic) is kept by a bounded
//     top-k operator that retains only offset+limit rows instead of
//     materializing and sorting the full result.
//   - A Cursor drained only partially (or closed) simply stops pulling;
//     upstream joins never run past what the consumer asked for.
//   - The caller's context is polled once per pulled row (and
//     periodically inside long index scans), so cancellation aborts
//     evaluation promptly with ctx's error surfaced via Cursor.Err.
//
// Row ownership follows the Volcano convention: a row returned by
// next() is owned by the producer and stays valid only until the next
// call to that producer's next(). Consumers that retain rows across
// pulls (sort/top-k/canonical barriers, Result) copy them into the
// evaluator's arena; everything else — joins extending an input row,
// filters, paging — works on borrowed rows and never allocates per
// discarded row.
//
// Each triple pattern executes as one of two join operators, chosen by
// a small cost model at plan time (chooseJoin): tripleIter, an index
// nested loop that probes the graph index once per input row, or
// hashJoinIter, which batches the pattern's full match set under a
// single lock into an ID-keyed hash table and probes it per row.
// A plan is compiled per evaluation (evaluator.plan). The planner's
// contract — estimates and the cost model — is documented in
// docs/QUERY_PLANNING.md.

// rowIter is one operator of a compiled pipeline. next returns the next
// full-width solution row, or nil when the operator is exhausted or
// evaluation failed (evaluator.err is then set). The returned slice is
// valid until the following next call on the same operator.
type rowIter interface {
	next() []rdf.TermID
}

// --- plans (built once per query, instantiated per input row) ---

// groupPlan is a group graph pattern planned against a fixed active
// graph: patterns in evaluation order plus the group's filters.
type groupPlan struct {
	patterns []patternPlan
	filters  []Expr
}

type patternPlan interface{ patternPlan() }

// triplePlan is a triple pattern resolved for ID-level matching against
// graph g: constants are interned IDs (dead when a constant was never
// interned, in which case nothing can match), variables are row slots.
type triplePlan struct {
	g                      *rdf.Graph
	dead                   bool
	sID, pID, oID          rdf.TermID
	sSlot, pSlot, oSlot    int // -1 for constants
	spSame, soSame, poSame bool

	// Join-algorithm choice (chooseJoin): when hash is set the pattern
	// executes as a hashJoinIter keyed on keySlots — the pattern's
	// variable slots the planner proved bound by the time this pattern
	// runs — with keyPos naming the match position (0=s, 1=p, 2=o) each
	// key component is read from.
	hash     bool
	keySlots []int
	keyPos   []uint8
}

func (*triplePlan) patternPlan() {}

type optionalPlan struct{ sub *groupPlan }

func (*optionalPlan) patternPlan() {}

type unionPlan struct{ branches []*groupPlan }

func (*unionPlan) patternPlan() {}

// graphPlan is a GRAPH block with a variable name: the named graphs are
// snapshotted (and their sub-groups planned) at compile time.
type graphPlan struct {
	slot    int // slot of the name variable
	entries []graphEntry
}

type graphEntry struct {
	nameID rdf.TermID
	sub    *groupPlan
}

func (*graphPlan) patternPlan() {}

// deadPlan yields no solutions (GRAPH naming a missing graph).
type deadPlan struct{}

func (*deadPlan) patternPlan() {}

// planCtx threads the planner's running estimates through a group:
// which row slots are definitely bound once the patterns planned so far
// have run, and roughly how many rows flow into the next pattern. Both
// feed chooseJoin; neither affects what a plan computes, only how.
type planCtx struct {
	rows  float64
	bound []bool // indexed by row slot
}

func (pc *planCtx) clone() *planCtx {
	return &planCtx{rows: pc.rows, bound: append([]bool(nil), pc.bound...)}
}

// meet folds another branch outcome into an alternation summary: rows
// add (branches concatenate) and a slot stays definitely bound only if
// every branch binds it.
func (pc *planCtx) meet(branch *planCtx) {
	pc.rows += branch.rows
	for i := range pc.bound {
		pc.bound[i] = pc.bound[i] && branch.bound[i]
	}
}

// planGroup compiles a group against the given active graph: pattern
// order is chosen once (selectivity-greedy, OPTIONAL hoisted), constant
// terms are resolved to dictionary IDs, a join algorithm is picked per
// triple pattern, and GRAPH sub-groups are planned against their named
// graphs. pc carries the cardinality/boundness estimates in and out.
func (e *evaluator) planGroup(g *Group, active *rdf.Graph, pc *planCtx) (*groupPlan, error) {
	gp := &groupPlan{filters: g.Filters}
	for _, pat := range orderPatterns(active, g.Patterns) {
		switch p := pat.(type) {
		case TriplePattern:
			tp := e.planTriple(p, active)
			e.chooseJoin(tp, pc)
			gp.patterns = append(gp.patterns, tp)
			for _, s := range [3]int{tp.sSlot, tp.pSlot, tp.oSlot} {
				if s >= 0 {
					pc.bound[s] = true
				}
			}
		case Optional:
			spc := pc.clone()
			sub, err := e.planGroup(p.Group, active, spc)
			if err != nil {
				return nil, err
			}
			gp.patterns = append(gp.patterns, &optionalPlan{sub: sub})
			// A left join keeps every input row; OPTIONAL variables may
			// stay unbound per row, so nothing new becomes definite.
			pc.rows = math.Max(pc.rows, spc.rows)
		case Union:
			up := &unionPlan{}
			var acc *planCtx
			for _, branch := range p.Branches {
				bpc := pc.clone()
				sub, err := e.planGroup(branch, active, bpc)
				if err != nil {
					return nil, err
				}
				up.branches = append(up.branches, sub)
				if acc == nil {
					acc = bpc
				} else {
					acc.meet(bpc)
				}
			}
			gp.patterns = append(gp.patterns, up)
			if acc != nil {
				*pc = *acc
			}
		case PathPattern:
			pl := e.planPath(p, active, pc)
			gp.patterns = append(gp.patterns, pl)
			// A path pattern always binds both endpoints on every row it
			// emits (constants bind nothing new).
			for _, s := range [2]int{pl.sSlot, pl.oSlot} {
				if s >= 0 {
					pc.bound[s] = true
				}
			}
		case GraphPattern:
			pp, err := e.planGraph(p, pc)
			if err != nil {
				return nil, err
			}
			gp.patterns = append(gp.patterns, pp)
		default:
			return nil, fmt.Errorf("sparql: unknown pattern type %T", pat)
		}
	}
	return gp, nil
}

// Cost-model constants, in "emitted match" units. An index nested loop
// pays — per input row — a read-lock round-trip plus nested map walks
// before the first match comes out; that per-row tax benchmarks at
// roughly nestedLoopRowTax emitted matches, while a hash probe costs
// about one. Building the hash table costs its full match count once.
// The derivation (and the benchmark justifying each constant) is in
// docs/QUERY_PLANNING.md.
const (
	hashJoinMinRows  = 64 // below this, build setup dominates any win
	nestedLoopRowTax = 4
)

// The join-algorithm choice an evaluator is built with (evaluator.join).
// Every public entry point builds with joinAuto, the cost model's pick;
// the spec harness builds with the other two to execute every randomized
// case under both strategies.
const (
	joinAuto int32 = iota
	joinForceNested
	joinForceHash
)

// chooseJoin picks the join algorithm for one planned triple pattern
// given the rows estimated to flow into it, and updates the running
// row estimate.
//
//   - nested loop ≈ rows × (nestedLoopRowTax + fanout)
//   - hash join   ≈ build + rows × (1 + fanout)
//
// so the hash join wins when its one-off build cost undercuts the
// per-row tax: build < rows × (nestedLoopRowTax − 1), gated on a
// minimum row count so small queries never pay for a table. The join
// key is the pattern's variable slots that are definitely bound by
// the patterns planned before it; variables the planner could not
// prove bound (an OPTIONAL or a one-sided UNION binding) are left out
// of the key and re-checked per candidate at probe time instead.
func (e *evaluator) chooseJoin(p *triplePlan, pc *planCtx) {
	if p.dead {
		return
	}
	addKey := func(slot int, pos uint8) {
		if slot < 0 || !pc.bound[slot] || slices.Contains(p.keySlots, slot) {
			return
		}
		p.keySlots = append(p.keySlots, slot)
		p.keyPos = append(p.keyPos, pos)
	}
	addKey(p.sSlot, 0)
	addKey(p.pSlot, 1)
	addKey(p.oSlot, 2)
	build := float64(p.g.CountIDs(p.sID, p.pID, p.oID))
	// Fan-out: expected matches per input row. With no shared variable
	// the pattern is a cartesian extension; with a join key it is
	// build / distinct(key values) when an index map length yields the
	// distinct count for free, else neutral.
	fanout := 1.0
	if len(p.keySlots) == 0 {
		fanout = build
	} else {
		have := false
		for _, pos := range p.keyPos {
			if d, ok := p.g.DistinctCountIDs(p.sID, p.pID, p.oID, int(pos)); ok && d > 0 {
				if f := build / float64(d); !have || f < fanout {
					fanout, have = f, true
				}
			}
		}
	}
	switch e.join {
	case joinForceNested:
	case joinForceHash:
		p.hash = true
	default:
		p.hash = pc.rows >= hashJoinMinRows && build < pc.rows*(nestedLoopRowTax-1)
	}
	pc.rows = math.Max(1, pc.rows*fanout)
}

func (e *evaluator) planTriple(tp TriplePattern, g *rdf.Graph) *triplePlan {
	p := &triplePlan{g: g}
	var ok [3]bool
	p.sID, p.sSlot, ok[0] = e.patNode(tp.S)
	p.pID, p.pSlot, ok[1] = e.patNode(tp.P)
	p.oID, p.oSlot, ok[2] = e.patNode(tp.O)
	p.dead = !ok[0] || !ok[1] || !ok[2]
	// Repeated pattern variables need an explicit equality check when
	// unbound (when bound, the substituted concrete ID constrains the
	// match already; the checks are then vacuously true).
	p.spSame = p.sSlot >= 0 && p.sSlot == p.pSlot
	p.soSame = p.sSlot >= 0 && p.sSlot == p.oSlot
	p.poSame = p.pSlot >= 0 && p.pSlot == p.oSlot
	return p
}

// patNode resolves one triple-pattern position for ID-level matching.
// For a variable it returns its slot (the row value — unboundID acting
// as the wildcard — is substituted per input row); for a concrete term
// it returns the term's ID with slot -1. ok is false when the term was
// never interned in the dataset, in which case nothing can match.
func (e *evaluator) patNode(n Node) (id rdf.TermID, slot int, ok bool) {
	if n.IsVar() {
		return unboundID, e.lay.index[n.Var], true
	}
	id, ok = e.dict.ID(n.Term)
	return id, -1, ok
}

func (e *evaluator) planGraph(gp GraphPattern, pc *planCtx) (patternPlan, error) {
	if !gp.Name.IsVar() {
		g, ok := e.ds.Lookup(gp.Name.Term)
		if !ok {
			return &deadPlan{}, nil // empty graph => no solutions
		}
		sub, err := e.planGroup(gp.Group, g, pc)
		if err != nil {
			return nil, err
		}
		// A concrete GRAPH block joins like an inline sub-group.
		return &inlineGroupPlan{sub}, nil
	}
	p := &graphPlan{slot: e.lay.index[gp.Name.Var]}
	var acc *planCtx
	for _, name := range e.ds.GraphNames() {
		g, ok := e.ds.Lookup(name)
		if !ok {
			continue // dropped concurrently between GraphNames and Lookup
		}
		epc := pc.clone()
		epc.bound[p.slot] = true // the name slot is bound inside the block
		// Graph names are interned when the graph is created; Intern
		// covers datasets assembled before that invariant held.
		sub, err := e.planGroup(gp.Group, g, epc)
		if err != nil {
			return nil, err
		}
		p.entries = append(p.entries, graphEntry{nameID: e.dict.Intern(name), sub: sub})
		if acc == nil {
			acc = epc
		} else {
			acc.meet(epc)
		}
	}
	if acc != nil {
		*pc = *acc // every entry binds the name slot, so it stays definite
	}
	return p, nil
}

// inlineGroupPlan wraps the plan of a GRAPH block with a concrete,
// existing name; it chains exactly like the sub-group itself.
type inlineGroupPlan struct{ sub *groupPlan }

func (*inlineGroupPlan) patternPlan() {}

// plan compiles q's WHERE clause against e's dataset: pattern order, join
// algorithms, resolved constant IDs and the named-graph set as they are
// now. Every evaluation plans afresh — a plan is a few Count reads per
// triple pattern, microseconds (docs/QUERY_PLANNING.md, Planning cost) —
// so a plan never outlives the dataset state it was made for.
func (e *evaluator) plan(q *Query) (*groupPlan, error) {
	pc := &planCtx{rows: 1, bound: make([]bool, len(e.lay.names))}
	root, err := e.planGroup(q.Where, e.ds.Default(), pc)
	if err != nil {
		return nil, err
	}
	var cnt planCounts
	cnt.group(root)
	countJoinStrategies(cnt)
	if tr := e.trace; tr != nil {
		tr.SetPlan(cnt.summary())
	}
	return root, nil
}

// chain instantiates a planned group as an operator chain over src.
func (e *evaluator) chain(gp *groupPlan, src rowIter) rowIter {
	it := src
	for _, p := range gp.patterns {
		switch pl := p.(type) {
		case *triplePlan:
			if pl.hash {
				it = e.traced(&hashJoinIter{e: e, src: it, p: pl, scratch: e.newRow(), chain: -1}, pl, "hash-join", "hash", it)
				break
			}
			ti := &tripleIter{e: e, src: it, p: pl, scratch: e.newRow()}
			ti.emit = ti.emitMatch
			it = e.traced(ti, pl, "triple-scan", "nested_loop", it)
		case *optionalPlan:
			it = e.traced(&optionalIter{e: e, src: it, p: pl}, pl, "optional", "", it)
		case *unionPlan:
			it = e.traced(&unionIter{e: e, src: it, p: pl}, pl, "union", "", it)
		case *pathPlan:
			it = e.traced(&pathIter{e: e, src: it, p: pl, scratch: e.newRow()}, pl, "path", "nested_loop", it)
		case *graphPlan:
			it = e.traced(&graphIter{e: e, src: it, p: pl, scratch: e.newRow()}, pl, "graph", "", it)
		case *inlineGroupPlan:
			it = e.chain(pl.sub, it)
		case *deadPlan:
			it = emptyIter{}
		}
	}
	if len(gp.filters) > 0 {
		it = e.traced(&filterIter{e: e, src: it, exprs: gp.filters}, gp, "filter", "", it)
	}
	return it
}

// --- leaf and structural operators ---

// onceIter yields a single seed row, then nil.
type onceIter struct{ row []rdf.TermID }

func (o *onceIter) next() []rdf.TermID {
	r := o.row
	o.row = nil
	return r
}

type emptyIter struct{}

func (emptyIter) next() []rdf.TermID { return nil }

// tripleIter streams the index-nested-loop join of its input with one
// triple pattern: per input row it collects the matching triple IDs in
// one locked index scan, then emits them one at a time composed into its
// scratch row.
type tripleIter struct {
	e   *evaluator
	src rowIter
	p   *triplePlan

	scratch []rdf.TermID // the emitted row; rewritten per match
	buf     []rdf.TermID // matched (s,p,o) IDs for the current input row
	pos     int          // consumed prefix of buf, in IDs
	scanned int          // matches seen, for amortized ctx polling
	emit    func(ms, mp, mo rdf.TermID) bool
}

func (it *tripleIter) next() []rdf.TermID {
	p := it.p
	for {
		if it.pos < len(it.buf) {
			if p.sSlot >= 0 {
				it.scratch[p.sSlot] = it.buf[it.pos]
			}
			if p.pSlot >= 0 {
				it.scratch[p.pSlot] = it.buf[it.pos+1]
			}
			if p.oSlot >= 0 {
				it.scratch[p.oSlot] = it.buf[it.pos+2]
			}
			it.pos += 3
			return it.scratch
		}
		if p.dead || !it.e.poll() {
			return nil
		}
		row := it.src.next()
		if row == nil {
			return nil
		}
		// One locked scan per input row; matches land in buf and the
		// input row is copied into scratch so emission is lock-free.
		copy(it.scratch, row)
		it.buf, it.pos = it.buf[:0], 0
		s, pp, o := p.sID, p.pID, p.oID
		if p.sSlot >= 0 {
			s = row[p.sSlot]
		}
		if p.pSlot >= 0 {
			pp = row[p.pSlot]
		}
		if p.oSlot >= 0 {
			o = row[p.oSlot]
		}
		p.g.EachMatchIDs(s, pp, o, it.emit)
	}
}

// emitMatch collects one index match, dropping matches that violate
// repeated-variable equality. It is bound once per operator so the scan
// callback does not allocate per input row.
func (it *tripleIter) emitMatch(ms, mp, mo rdf.TermID) bool {
	it.scanned++
	if it.scanned&4095 == 0 && !it.e.poll() {
		return false // canceled mid-scan
	}
	p := it.p
	if p.spSame && ms != mp || p.soSame && ms != mo || p.poSame && mp != mo {
		return true
	}
	it.buf = append(it.buf, ms, mp, mo)
	return true
}

// joinKey is a hash-join key: the match's IDs at up to three key
// positions, padded with AnyID. It is comparable, so Go's map hashes it
// natively.
type joinKey [3]rdf.TermID

// matchKey builds the key a build-side match is bucketed under.
func (p *triplePlan) matchKey(ms, mp, mo rdf.TermID) joinKey {
	k := joinKey{rdf.AnyID, rdf.AnyID, rdf.AnyID}
	for i, pos := range p.keyPos {
		switch pos {
		case 0:
			k[i] = ms
		case 1:
			k[i] = mp
		default:
			k[i] = mo
		}
	}
	return k
}

// probeKey builds the key an input row probes with; ok is false when a
// key slot is unbound in this row (the planner keyed a variable that a
// sibling UNION branch left unbound), in which case the caller must
// fall back to scanning the whole table.
func (p *triplePlan) probeKey(row []rdf.TermID) (joinKey, bool) {
	k := joinKey{rdf.AnyID, rdf.AnyID, rdf.AnyID}
	for i, s := range p.keySlots {
		v := row[s]
		if v == unboundID {
			return k, false
		}
		k[i] = v
	}
	return k, true
}

// hashTable is one triple pattern's batched match set: rows holds the
// matches as flat (s, p, o) triplets carved from one slice, and the
// buckets are intrusive chains — head maps a join key to its first
// triplet index, next links triplets sharing a key — so the whole
// table is two flat slices plus one map, with no per-bucket
// allocations. Tables are built lazily on first probe and cached per
// plan node on the evaluator, so sub-chains instantiated once per
// input row (OPTIONAL, UNION, GRAPH) share one build across the whole
// evaluation.
type hashTable struct {
	rows []rdf.TermID
	head map[joinKey]int32 // join key -> first triplet index of its chain
	// head1 replaces head when the key is a single slot (the common
	// case): hashing one TermID is measurably cheaper than three.
	head1 map[rdf.TermID]int32
	next  []int32 // next[i] = next triplet with i's key, -1 at end
}

// hashTable returns (building on first use) the hash table for a
// hash-join pattern. The build is one batched index scan under a single
// lock acquisition; repeated-variable violations are filtered here so
// probes never see them.
func (e *evaluator) hashTable(p *triplePlan) *hashTable {
	if t, ok := e.tables[p]; ok {
		return t
	}
	raw := p.g.AppendMatchIDs(nil, p.sID, p.pID, p.oID)
	if p.spSame || p.soSame || p.poSame {
		kept := raw[:0]
		for i := 0; i < len(raw); i += 3 {
			ms, mp, mo := raw[i], raw[i+1], raw[i+2]
			if p.spSame && ms != mp || p.soSame && ms != mo || p.poSame && mp != mo {
				continue
			}
			kept = append(kept, ms, mp, mo)
		}
		raw = kept
	}
	n := len(raw) / 3
	t := &hashTable{rows: raw, next: make([]int32, n)}
	if len(p.keySlots) == 1 {
		t.head1 = make(map[rdf.TermID]int32, n)
		pos := p.keyPos[0]
		for i := 0; i < n; i++ {
			k := raw[3*i+int(pos)]
			if h, ok := t.head1[k]; ok {
				t.next[i] = h
			} else {
				t.next[i] = -1
			}
			t.head1[k] = int32(i)
		}
	} else {
		t.head = make(map[joinKey]int32, n)
		for i := 0; i < n; i++ {
			k := p.matchKey(raw[3*i], raw[3*i+1], raw[3*i+2])
			if h, ok := t.head[k]; ok {
				t.next[i] = h
			} else {
				t.next[i] = -1
			}
			t.head[k] = int32(i)
		}
	}
	if e.tables == nil {
		e.tables = make(map[*triplePlan]*hashTable)
	}
	e.tables[p] = t
	return t
}

// hashJoinIter joins its input with one triple pattern by hash lookup
// instead of per-row index probes: the pattern's full match set is
// batched once into an ID-keyed hash table (see evaluator.hashTable)
// and each input row probes the bucket of its join-key values. Rows
// with an unbound key slot fall back to scanning the whole table, and
// emission re-checks every bound slot either way, so the fast path and
// the fallback accept exactly the same matches.
type hashJoinIter struct {
	e   *evaluator
	src rowIter
	p   *triplePlan

	scratch []rdf.TermID // the emitted row; rewritten per match
	cur     []rdf.TermID // the borrowed input row being extended
	tab     *hashTable
	chain   int32 // next candidate triplet in cur's bucket chain, -1 done
	linear  bool  // fallback: scan all triplets for cur
	pos     int   // next triplet offset when linear
	scanned int   // candidates visited, for amortized ctx polling
}

func (it *hashJoinIter) next() []rdf.TermID {
	p := it.p
	for {
		for {
			var base int
			if it.linear {
				if it.pos >= len(it.tab.rows) {
					break
				}
				base = it.pos
				it.pos += 3
			} else {
				if it.chain < 0 {
					break
				}
				base = int(it.chain) * 3
				it.chain = it.tab.next[it.chain]
			}
			it.scanned++
			if it.scanned&4095 == 0 && !it.e.poll() {
				return nil // canceled mid-drain
			}
			ms, mp, mo := it.tab.rows[base], it.tab.rows[base+1], it.tab.rows[base+2]
			if !compatRow(it.cur, p, ms, mp, mo) {
				continue
			}
			if p.sSlot >= 0 {
				it.scratch[p.sSlot] = ms
			}
			if p.pSlot >= 0 {
				it.scratch[p.pSlot] = mp
			}
			if p.oSlot >= 0 {
				it.scratch[p.oSlot] = mo
			}
			return it.scratch
		}
		if p.dead || !it.e.poll() {
			return nil
		}
		row := it.src.next()
		if row == nil {
			return nil
		}
		if it.tab == nil {
			it.tab = it.e.hashTable(p)
		}
		it.cur = row
		copy(it.scratch, row)
		it.pos, it.chain, it.linear = 0, -1, false
		switch {
		case it.tab.head1 != nil:
			if v := row[p.keySlots[0]]; v != unboundID {
				if h, hit := it.tab.head1[v]; hit {
					it.chain = h
				}
			} else {
				it.linear = true
			}
		default:
			if key, ok := p.probeKey(row); ok {
				if h, hit := it.tab.head[key]; hit {
					it.chain = h
				}
			} else {
				it.linear = true
			}
		}
	}
}

// compatRow reports whether a build-side match is consistent with the
// input row: every pattern variable slot the row has bound must agree
// with the match's value there. Constants were fixed at build time and
// repeated-variable equality was filtered at insert, so this is the
// only per-candidate check.
func compatRow(row []rdf.TermID, p *triplePlan, ms, mp, mo rdf.TermID) bool {
	if p.sSlot >= 0 {
		if v := row[p.sSlot]; v != unboundID && v != ms {
			return false
		}
	}
	if p.pSlot >= 0 {
		if v := row[p.pSlot]; v != unboundID && v != mp {
			return false
		}
	}
	if p.oSlot >= 0 {
		if v := row[p.oSlot]; v != unboundID && v != mo {
			return false
		}
	}
	return true
}

// optionalIter is the left join: input rows extended by the OPTIONAL
// group's solutions, or passed through unchanged when the group yields
// none.
type optionalIter struct {
	e   *evaluator
	src rowIter
	p   *optionalPlan

	cur     []rdf.TermID
	sub     rowIter
	seed    onceIter
	matched bool
}

func (it *optionalIter) next() []rdf.TermID {
	for {
		if it.sub == nil {
			row := it.src.next()
			if row == nil {
				return nil
			}
			it.cur, it.matched = row, false
			it.seed = onceIter{row: row}
			it.sub = it.e.chain(it.p.sub, &it.seed)
		}
		if r := it.sub.next(); r != nil {
			it.matched = true
			return r
		}
		it.sub = nil
		if !it.matched && it.e.err == nil {
			return it.cur // left-join: keep unextended
		}
	}
}

// unionIter concatenates, per input row, the solutions of every branch.
type unionIter struct {
	e   *evaluator
	src rowIter
	p   *unionPlan

	cur  []rdf.TermID
	bi   int // next branch to open for cur
	sub  rowIter
	seed onceIter
}

func (it *unionIter) next() []rdf.TermID {
	for {
		if it.sub != nil {
			if r := it.sub.next(); r != nil {
				return r
			}
			it.sub = nil
		}
		if it.cur != nil && it.bi < len(it.p.branches) {
			it.seed = onceIter{row: it.cur}
			it.sub = it.e.chain(it.p.branches[it.bi], &it.seed)
			it.bi++
			continue
		}
		it.cur = it.src.next()
		if it.cur == nil {
			return nil
		}
		it.bi = 0
	}
}

// graphIter evaluates a GRAPH block whose name is a variable: per input
// row it ranges over the named graphs compatible with the row's binding
// of the name variable, binds the name, and streams the sub-group.
type graphIter struct {
	e   *evaluator
	src rowIter
	p   *graphPlan

	scratch []rdf.TermID // input row with the name slot bound
	cur     []rdf.TermID
	gi      int // next graph entry to open for cur
	sub     rowIter
	seed    onceIter
}

func (it *graphIter) next() []rdf.TermID {
	for {
		if it.sub != nil {
			if r := it.sub.next(); r != nil {
				return r
			}
			it.sub = nil
		}
		if it.cur != nil {
			for it.gi < len(it.p.entries) {
				ent := it.p.entries[it.gi]
				it.gi++
				switch it.cur[it.p.slot] {
				case unboundID:
					copy(it.scratch, it.cur)
					it.scratch[it.p.slot] = ent.nameID
					it.seed = onceIter{row: it.scratch}
				case ent.nameID:
					it.seed = onceIter{row: it.cur}
				default:
					continue // row bound to another graph
				}
				it.sub = it.e.chain(ent.sub, &it.seed)
				break
			}
			if it.sub != nil {
				continue
			}
		}
		it.cur = it.src.next()
		if it.cur == nil {
			return nil
		}
		it.gi = 0
	}
}

// filterIter drops rows whose group filters do not evaluate to true
// (errors count as false, per the SPARQL effective-boolean-value rule).
type filterIter struct {
	e     *evaluator
	src   rowIter
	exprs []Expr
	env   rowEnv
}

func (it *filterIter) next() []rdf.TermID {
rows:
	for {
		row := it.src.next()
		if row == nil {
			return nil
		}
		it.env.e, it.env.row = it.e, row
		for _, f := range it.exprs {
			v, err := f.Eval(&it.env)
			if err != nil {
				continue rows // error => effective false
			}
			ok, err := v.AsBool()
			if err != nil || !ok {
				continue rows
			}
		}
		return row
	}
}

// --- tail operators (projection-aware) ---

// appendRowKey appends the projected IDs of row as the DISTINCT
// comparison key. The dictionary is a bijection, so ID-byte equality is
// projected-term equality.
func appendRowKey(key []byte, row []rdf.TermID, slots []int) []byte {
	for _, s := range slots {
		id := row[s]
		key = append(key, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
	}
	return key
}

// beginCanonical starts a canonical or top-k barrier: it pins the
// dictionary's term order for the whole barrier, so every comparison it
// makes reads the same ranks.
func (e *evaluator) beginCanonical() {
	e.order, e.compares = e.dict.Order(), 0
}

// endCanonical ends the barrier: it counts the barrier on its path and
// charges the term comparisons it made to the dictionary, whose charge
// rule (rdf.Dict.ChargeOrder) decides when covering those terms pays.
func (e *evaluator) endCanonical() {
	if e.compares == 0 {
		obsCanonicalRanked.Inc()
		return
	}
	obsCanonicalFallback.Inc()
	e.dict.ChargeOrder(e.compares)
}

// cmpCanonical is the canonical result order: projected columns
// compared left to right, unbound first, terms by rdf.Compare. The
// dictionary is a bijection, so it returns 0 exactly when the projected
// columns are identical — which makes it a total order up to row
// interchangeability and pages deterministic. Two IDs the barrier's term
// order covers compare by rank, which is the same answer without
// decoding; any other pair is compared as terms and counted.
func (e *evaluator) cmpCanonical(slots []int, a, b []rdf.TermID) int {
	ord := e.order
	n := uint64(ord.N())
	for _, s := range slots {
		x, y := a[s], b[s]
		switch {
		case x == y:
			continue
		case x == unboundID:
			return -1
		case y == unboundID:
			return 1
		case uint64(x) < n && uint64(y) < n:
			if ord.Rank(x) < ord.Rank(y) {
				return -1
			}
			return 1
		}
		e.compares++
		if c := rdf.Compare(e.term(x), e.term(y)); c != 0 {
			return c
		}
	}
	return 0
}

// sortCanonical sorts full-width rows into the canonical order of the
// projected columns without decoding terms inside the comparator: rows
// sort on integer ranks (sortByRank), read from the barrier's term order
// when it covers every projected ID. Otherwise the distinct IDs
// appearing in those columns are ranked for this sort alone by term
// order (the dictionary is a bijection over 4-field Terms and
// rdf.Compare is total on them, so distinct IDs never tie), and the
// comparisons that took are counted for endCanonical. The visible order
// is exactly cmpCanonical's either way; the O(n log n) term comparisons
// shrink to none, or to O(distinct · log distinct). A covered result too
// wide for the order's ranks to pack is re-ranked the second way, by
// comparing ranks rather than terms.
func (e *evaluator) sortCanonical(slots []int, rows [][]rdf.TermID) {
	if len(rows) < 2 || len(slots) == 0 {
		return
	}
	var maxID rdf.TermID
	for _, r := range rows {
		for _, s := range slots {
			if id := r[s]; id != unboundID && id > maxID {
				maxID = id
			}
		}
	}
	ord := e.order
	covered := uint64(maxID) < uint64(ord.N())
	if keyBits := bits.Len(uint(ord.N())); covered && len(slots)*keyBits+bits.Len(uint(len(rows)-1)) <= 64 {
		// Rank 0 is the unbound column, so covered ranks shift up by one.
		sortByRank(rows, slots, keyBits, func(id rdf.TermID) uint32 { return ord.Rank(id) + 1 })
		return
	}
	// Too wide to pack the order's ranks: re-rank the result's distinct
	// IDs below, ordering them by those ranks instead of by their terms.
	cmp := func(a, b rdf.TermID) int {
		e.compares++
		return rdf.Compare(e.term(a), e.term(b))
	}
	if covered {
		cmp = func(a, b rdf.TermID) int { return int(ord.Rank(a)) - int(ord.Rank(b)) }
	}
	// Rank storage is O(result) no matter how large the dictionary is:
	// dense ID-indexed slices when the ID range is in the same ballpark
	// as the result's cell count (they win on constant factors), a map
	// otherwise (a few projected rows over a huge dictionary must not
	// allocate dictionary-sized arrays).
	cells := len(rows) * len(slots)
	dense := int(maxID) <= 4*cells+1024
	var seen []bool
	var rankD []uint32
	var rankM map[rdf.TermID]uint32
	if dense {
		seen = make([]bool, int(maxID)+1)
		rankD = make([]uint32, int(maxID)+1)
	} else {
		rankM = make(map[rdf.TermID]uint32, cells)
	}
	distinct := make([]rdf.TermID, 0, 64)
	for _, r := range rows {
		for _, s := range slots {
			id := r[s]
			if id == unboundID {
				continue
			}
			if dense {
				if !seen[id] {
					seen[id] = true
					distinct = append(distinct, id)
				}
			} else if _, ok := rankM[id]; !ok {
				rankM[id] = 0
				distinct = append(distinct, id)
			}
		}
	}
	slices.SortFunc(distinct, cmp)
	// Ranks are 1-based: 0 is the unbound column, which sorts first.
	for i, id := range distinct {
		if dense {
			rankD[id] = uint32(i + 1)
		} else {
			rankM[id] = uint32(i + 1)
		}
	}
	sortByRank(rows, slots, bits.Len(uint(len(distinct))), func(id rdf.TermID) uint32 {
		if dense {
			return rankD[id]
		}
		return rankM[id]
	})
}

// sortByRank sorts rows by the ranks of their projected columns, left to
// right: rank returns a bound ID's rank, at least 1 and at most
// 1<<keyBits - 1, and an unbound column ranks 0. Distinct bound IDs must
// rank distinctly, so rows that tie are identical in every projected
// column and no sort, stable or not, can reorder anything observable.
func sortByRank(rows [][]rdf.TermID, slots []int, keyBits int, rank func(rdf.TermID) uint32) {
	// When the per-column ranks and a row index all pack into 64 bits
	// (a column takes bits.Len(terms ranked): a 9 000-row result over
	// 2 000 distinct terms packs four columns), sort plain integers — the
	// comparison is a single machine word, and the trailing row-index
	// bits both break ties deterministically and name the row to permute
	// into place.
	n := len(rows)
	idxBits := bits.Len(uint(n - 1))
	if len(slots)*keyBits+idxBits <= 64 {
		keys := make([]uint64, n)
		for i, r := range rows {
			k := uint64(0)
			for _, s := range slots {
				k <<= keyBits
				if id := r[s]; id != unboundID {
					k |= uint64(rank(id))
				}
			}
			keys[i] = k<<idxBits | uint64(i)
		}
		slices.Sort(keys)
		// Sorted position i must receive rows[keys[i]&mask]. Apply that
		// permutation in place by walking its cycles, overwriting each
		// visited index bits with the identity to mark the slot done.
		mask := uint64(1)<<idxBits - 1
		for i := range keys {
			j := int(keys[i] & mask)
			if j == i {
				continue
			}
			tmp, cur := rows[i], i
			for j != i {
				rows[cur] = rows[j]
				keys[cur] = keys[cur]&^mask | uint64(cur)
				cur = j
				j = int(keys[cur] & mask)
			}
			rows[cur] = tmp
			keys[cur] = keys[cur]&^mask | uint64(cur)
		}
		return
	}
	slices.SortFunc(rows, func(a, b []rdf.TermID) int {
		for _, s := range slots {
			x, y := a[s], b[s]
			switch {
			case x == y:
				continue
			case x == unboundID:
				return -1
			case y == unboundID:
				return 1
			case rank(x) < rank(y):
				return -1
			default:
				return 1
			}
		}
		return 0
	})
}

// sortIter is the ORDER BY barrier: it drains its input (copying each
// row), stable-sorts by the order keys, and then streams the sorted
// rows.
type sortIter struct {
	e      *evaluator
	src    rowIter
	keys   []OrderKey
	kSlots []int

	filled bool
	rows   [][]rdf.TermID
	pos    int
}

func (it *sortIter) next() []rdf.TermID {
	if !it.filled {
		it.filled = true
		for {
			row := it.src.next()
			if row == nil {
				break
			}
			it.rows = append(it.rows, it.e.extend(row))
		}
		if it.e.err != nil {
			return nil
		}
		e := it.e
		slices.SortStableFunc(it.rows, func(a, b []rdf.TermID) int {
			for ki, k := range it.keys {
				slot := it.kSlots[ki]
				x, y := a[slot], b[slot]
				var c int
				switch {
				case x == y:
					c = 0
				case x == unboundID:
					c = -1
				case y == unboundID:
					c = 1
				default:
					c = compareOrder(e.term(x), e.term(y))
				}
				if c != 0 {
					if k.Desc {
						return -c
					}
					return c
				}
			}
			return 0
		})
	}
	if it.e.err != nil || it.pos >= len(it.rows) {
		return nil
	}
	r := it.rows[it.pos]
	it.pos++
	return r
}

// canonIter is the no-ORDER-BY barrier: it drains its input, applies
// DISTINCT when asked, sorts canonically over the projected columns so
// results (and LIMIT/OFFSET pages) are repeatable across evaluations,
// and streams the sorted rows.
type canonIter struct {
	e        *evaluator
	src      rowIter
	slots    []int
	distinct bool

	filled bool
	rows   [][]rdf.TermID
	pos    int
}

func (it *canonIter) next() []rdf.TermID {
	if !it.filled {
		it.filled = true
		var seen map[string]struct{}
		var key []byte
		if it.distinct {
			seen = map[string]struct{}{}
			key = make([]byte, 0, 4*len(it.slots))
		}
		for {
			row := it.src.next()
			if row == nil {
				break
			}
			if it.distinct {
				key = appendRowKey(key[:0], row, it.slots)
				if _, dup := seen[string(key)]; dup {
					continue
				}
				seen[string(key)] = struct{}{}
			}
			it.rows = append(it.rows, it.e.extend(row))
		}
		if it.e.err != nil {
			return nil
		}
		it.e.beginCanonical()
		it.e.sortCanonical(it.slots, it.rows)
		it.e.endCanonical()
	}
	if it.e.err != nil || it.pos >= len(it.rows) {
		return nil
	}
	r := it.rows[it.pos]
	it.pos++
	return r
}

// topKIter is the LIMIT pushdown for the canonical-order case: it keeps
// only the k canonically smallest rows (distinct rows when DISTINCT) in
// a sorted bound buffer while draining its input, then streams them in
// order. Memory and allocation are O(k); rejected rows are never copied
// and evicted copies are recycled.
type topKIter struct {
	e        *evaluator
	src      rowIter
	slots    []int
	k        int
	distinct bool

	filled bool
	rows   [][]rdf.TermID
	pos    int
}

func (it *topKIter) next() []rdf.TermID {
	if !it.filled {
		it.filled = true
		if it.k > 0 { // k == 0: empty page, skip evaluation entirely
			it.e.beginCanonical()
			for {
				row := it.src.next()
				if row == nil {
					break
				}
				it.insert(row)
			}
			it.e.endCanonical()
		}
		if it.e.err != nil {
			return nil
		}
	}
	if it.e.err != nil || it.pos >= len(it.rows) {
		return nil
	}
	r := it.rows[it.pos]
	it.pos++
	return r
}

func (it *topKIter) insert(row []rdf.TermID) {
	e, n := it.e, len(it.rows)
	if n == it.k && e.cmpCanonical(it.slots, row, it.rows[n-1]) >= 0 {
		return // not smaller than the current k-th row
	}
	i := sort.Search(n, func(i int) bool {
		return e.cmpCanonical(it.slots, row, it.rows[i]) < 0
	})
	if it.distinct && i > 0 && e.cmpCanonical(it.slots, row, it.rows[i-1]) == 0 {
		return // duplicate of a retained row
	}
	if n == it.k {
		e.release(it.rows[n-1]) // evict the previous k-th row
		copy(it.rows[i+1:], it.rows[i:n-1])
	} else {
		it.rows = append(it.rows, nil)
		copy(it.rows[i+1:], it.rows[i:n])
	}
	it.rows[i] = e.extend(row)
}

// distinctIter streams duplicate elimination over the projected
// columns, keeping each row's first occurrence (used after the ORDER BY
// barrier, where order must be preserved).
type distinctIter struct {
	src   rowIter
	slots []int
	seen  map[string]struct{}
	key   []byte
}

func (it *distinctIter) next() []rdf.TermID {
	for {
		row := it.src.next()
		if row == nil {
			return nil
		}
		it.key = appendRowKey(it.key[:0], row, it.slots)
		if _, dup := it.seen[string(it.key)]; dup {
			continue
		}
		it.seen[string(it.key)] = struct{}{}
		return row
	}
}

// pageIter applies OFFSET/LIMIT: skip rows, then emit at most limit
// (limit < 0 = unlimited). Once the limit is reached it stops pulling,
// which is what lets upstream operators stop work early.
type pageIter struct {
	src   rowIter
	skip  int
	limit int
}

func (it *pageIter) next() []rdf.TermID {
	for it.skip > 0 {
		if it.src.next() == nil {
			it.skip = 0
			return nil
		}
		it.skip--
	}
	if it.limit == 0 {
		return nil
	}
	row := it.src.next()
	if row == nil {
		return nil
	}
	if it.limit > 0 {
		it.limit--
	}
	return row
}

// --- Cursor: the public streaming API ---

// Cursor is a pull-based handle over an executing query. Rows are
// produced on demand:
//
//	cur, err := sparql.EvalCursor(ds, q)
//	...
//	defer cur.Close()
//	for cur.Next(ctx) {
//	    row := cur.Row()
//	    ...
//	}
//	if err := cur.Err(); err != nil { ... }
//
// Next checks ctx once per row, so canceling the context (a dropped
// client connection, a timeout) aborts evaluation promptly; Err then
// returns ctx's error. A cursor holds no locks or goroutines between
// Next calls — abandoning one without Close is safe — but it does not
// snapshot the dataset: rows reflect index state at the moment their
// upstream scan ran, so writes concurrent with a drain may or may not
// be observed. A cursor reads the live dataset; there is no
// point-in-time read.
//
// Cursors are not safe for concurrent use.
type Cursor struct {
	e     *evaluator
	it    rowIter
	form  QueryForm
	vars  []string
	slots []int
	row   []rdf.TermID
	err   error
	done  bool
	rows  int64     // solutions emitted, flushed to obs on finish
	t0    time.Time // first Next: the execute stage runs from here to finish
}

// EvalCursor compiles q against ds and returns a cursor positioned
// before the first solution. Evaluation is lazy: work happens inside
// Next, and stops as soon as the cursor is done, closed, or canceled.
// LIMIT/OFFSET (and DISTINCT) are enforced inside the pipeline, so a
// paged query costs O(page), not O(result).
func EvalCursor(ds *rdf.Dataset, q *Query) (*Cursor, error) {
	return EvalCursorTrace(ds, q, nil)
}

// EvalCursorTrace is EvalCursor with a query trace attached: the
// planner annotates tr (plan summary, plan stage duration), the cursor
// records the execute stage when it finishes, and when tr.Detail is set
// every operator is wrapped in a span for EXPLAIN output. tr may be nil,
// which is exactly EvalCursor.
func EvalCursorTrace(ds *rdf.Dataset, q *Query, tr *obs.Trace) (*Cursor, error) {
	return evalCursor(ds, q, tr, joinAuto)
}

// evalCursor is EvalCursorTrace with the join algorithm forced to join
// (joinAuto: not forced).
func evalCursor(ds *rdf.Dataset, q *Query, tr *obs.Trace, join int32) (*Cursor, error) {
	lay := q.layout()
	e := &evaluator{ds: ds, dict: ds.Dict(), lay: lay, ctx: context.Background(), trace: tr, join: join}
	planT0 := time.Now()
	gp, err := e.plan(q)
	planDur := time.Since(planT0)
	obsStagePlan.Observe(planDur.Seconds())
	tr.StageDur("plan", planDur)
	if err != nil {
		return nil, err
	}
	init := e.newRow()
	for i := range init {
		init[i] = unboundID
	}
	src := e.chain(gp, &onceIter{row: init})
	c := &Cursor{e: e, form: q.Form}
	if q.Form == FormAsk {
		c.it = e.traced(&pageIter{src: src, limit: 1}, "ask", "ask", "", src)
		return c, nil
	}
	if q.Star {
		c.vars = q.Where.AllVars()
	} else {
		c.vars = q.Variables
	}
	c.slots = make([]int, len(c.vars))
	for i, v := range c.vars {
		c.slots[i] = lay.index[v]
	}
	if len(q.Aggregates) > 0 || len(q.GroupBy) > 0 {
		// The grouping barrier (plus HAVING) replaces the WHERE stream;
		// the ordinary tail operators below then see one row per group
		// with the aggregate aliases bound.
		src = e.traced(e.aggregateChain(q, src), "group-aggregate", "group-aggregate", "", src)
	}
	switch {
	case q.Limit == 0:
		// An empty page needs no evaluation at all.
		c.it = emptyIter{}
	case len(q.OrderBy) > 0:
		// ORDER BY keys may tie distinct rows, so the page cut needs the
		// stable full sort; the sort precedes projection-level DISTINCT
		// and may use non-projected keys.
		kSlots := make([]int, len(q.OrderBy))
		for ki, k := range q.OrderBy {
			kSlots[ki] = lay.index[k.Var]
		}
		it := e.traced(&sortIter{e: e, src: src, keys: q.OrderBy, kSlots: kSlots}, "sort", "sort", "", src)
		if q.Distinct {
			it = e.traced(&distinctIter{src: it, slots: c.slots, seen: map[string]struct{}{}}, "distinct", "distinct", "", it)
		}
		c.it = e.traced(&pageIter{src: it, skip: q.Offset, limit: q.Limit}, "page", "page", "", it)
	case q.Limit > 0:
		if q.Offset > math.MaxInt-q.Limit {
			// offset+limit would overflow int (a hostile offset near
			// MaxInt, reachable through REST paging): the bounded top-k
			// cannot represent the page cut, so run the unbounded
			// canonical barrier and skip past the offset instead — the
			// same rows for any offset, without the overflowed capacity
			// silently dropping the whole result.
			it := e.traced(&canonIter{e: e, src: src, slots: c.slots, distinct: q.Distinct}, "canon-sort", "canon-sort", "", src)
			c.it = e.traced(&pageIter{src: it, skip: q.Offset, limit: q.Limit}, "page", "page", "", it)
			break
		}
		// Canonical order with a page bound: keep only offset+limit rows.
		top := e.traced(&topKIter{e: e, src: src, slots: c.slots, k: q.Offset + q.Limit, distinct: q.Distinct}, "top-k", "top-k", "", src)
		c.it = e.traced(&pageIter{src: top, skip: q.Offset, limit: q.Limit}, "page", "page", "", top)
	default:
		it := e.traced(&canonIter{e: e, src: src, slots: c.slots, distinct: q.Distinct}, "canon-sort", "canon-sort", "", src)
		if q.Offset > 0 {
			it = e.traced(&pageIter{src: it, skip: q.Offset, limit: -1}, "page", "page", "", it)
		}
		c.it = it
	}
	return c, nil
}

// Next advances to the next solution, reporting whether one is
// available. It returns false when the result is exhausted, the cursor
// is closed, or ctx is canceled — distinguish the last case with Err.
func (c *Cursor) Next(ctx context.Context) bool {
	if c.done || c.err != nil {
		return false
	}
	if c.t0.IsZero() {
		c.t0 = time.Now()
	}
	c.e.ctx = ctx
	if !c.e.poll() {
		c.err = c.e.err
		c.finish()
		return false
	}
	r := c.it.next()
	if c.e.err != nil {
		c.err = c.e.err
		c.finish()
		return false
	}
	if r == nil {
		// Surface a cancellation that raced the final row.
		if err := ctx.Err(); err != nil {
			c.err = err
		}
		c.finish()
		return false
	}
	c.row = r
	c.rows++
	return true
}

// Rows returns the number of solutions emitted so far.
func (c *Cursor) Rows() int64 { return c.rows }

// Err returns the first error encountered while iterating (typically
// the context's error after a cancellation), or nil after a clean
// drain.
func (c *Cursor) Err() error { return c.err }

// Close stops iteration early: it makes Next return false immediately
// and records the execute stage of a cursor that was pulled. It is
// idempotent, and optional — a cursor holds no locks, goroutines or
// storage resources.
func (c *Cursor) Close() {
	c.finish()
}

// finish terminates iteration. A cursor that was pulled at least once
// records its execute stage here — evaluation is lazy, so first Next to
// finish is the whole of it — in the stage histogram and on the
// evaluation's trace.
func (c *Cursor) finish() {
	if !c.done && !c.t0.IsZero() {
		d := time.Since(c.t0)
		obsStageExecute.Observe(d.Seconds())
		c.e.trace.StageDur("execute", d)
		obsRowsEmitted.Add(float64(c.rows))
	}
	c.done, c.row = true, nil
}

// Vars returns the projection list in order (nil for ASK).
func (c *Cursor) Vars() []string { return c.vars }

// Form reports the query form. For ASK, Next reports the answer: true
// exactly once when the pattern has at least one solution.
func (c *Cursor) Form() QueryForm { return c.form }

// Row returns a view of the current solution. It is valid until the
// next call to Next or Close; the terms it decodes remain valid
// forever.
func (c *Cursor) Row() Row { return Row{c: c} }

// Row is one solution viewed through the cursor's projection.
type Row struct{ c *Cursor }

// Len returns the number of projected columns.
func (r Row) Len() int { return len(r.c.vars) }

// Var returns the name of projected column col.
func (r Row) Var(col int) string { return r.c.vars[col] }

// Term returns the term bound to projected column col; ok is false when
// the variable is unbound in this solution (OPTIONAL miss).
func (r Row) Term(col int) (rdf.Term, bool) {
	row := r.c.row
	if row == nil {
		return rdf.Term{}, false
	}
	if id := row[r.c.slots[col]]; id != unboundID {
		return r.c.e.term(id), true
	}
	return rdf.Term{}, false
}

// Binding decodes the solution into a fresh Binding. Unbound variables
// are absent from the map.
func (r Row) Binding() Binding {
	b := make(Binding, len(r.c.vars))
	for i, v := range r.c.vars {
		if t, ok := r.Term(i); ok {
			b[v] = t
		}
	}
	return b
}

// Solutions adapts the cursor to a range-over-func iterator of decoded
// bindings:
//
//	for b := range cur.Solutions(ctx) { ... }
//	if err := cur.Err(); err != nil { ... }
//
// Iteration stops on exhaustion, cancellation (check Err afterwards),
// or break.
func (c *Cursor) Solutions(ctx context.Context) iter.Seq[Binding] {
	return func(yield func(Binding) bool) {
		for c.Next(ctx) {
			if !yield(c.Row().Binding()) {
				return
			}
		}
	}
}
