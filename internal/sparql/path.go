package sparql

import (
	"math"
	"sync/atomic"

	"mdm/internal/rdf"
)

// This file implements SPARQL 1.1 property paths as a pull-based
// operator over TermID rows. A Path AST compiles (compilePath) to a
// pathExpr with inversion pushed down to the links — ^(p/q) ≡ ^q/^p,
// ^(p|q) ≡ ^p|^q, ^(p+) ≡ (^p)+, ^^p ≡ p — so evaluation only ever
// walks links forward or backward; there is no generic inverse
// operator at run time.
//
// Per the W3C semantics, link/sequence/alternative/inverse preserve
// solution multiplicity, while the closure operators (p+, p*, p?) are
// evaluated with *set* semantics (ALP): each reachable node is related
// to the start node exactly once, no matter how many distinct paths
// lead there. p* additionally relates every node to itself by the
// zero-length path — including constant endpoints the graph has never
// seen, which is why planPath interns constant endpoints instead of
// merely looking them up.
//
// The closure is a semi-naive fixpoint: a frontier stack seeded from
// the start node plus a visited bitset (visitedSet, pooled on the
// evaluator because nested closures like (p/q+)* need independent
// sets). Every node is expanded at most once, so a closure from one
// seed costs O(edges reachable) — cycles and self-loops terminate by
// construction. Cancellation is polled every 1024 node expansions on
// top of the per-row poll the surrounding operators already do.

// pathExpr is a Path compiled for ID-level evaluation: link predicates
// resolved to dictionary IDs (dead when never interned — such a link
// matches nothing, though zero-length closures over it still hold) and
// inversion folded into a per-link direction flag.
type pathExpr struct {
	kind PathKind // PathInv never appears after compilation
	id   rdf.TermID
	dead bool // link predicate not in the dictionary
	inv  bool // link traverses object -> subject
	sub  *pathExpr
	l, r *pathExpr
}

// compilePath resolves p against the evaluator's dictionary, pushing
// the pending inversion inv down to the links.
func (e *evaluator) compilePath(p *Path, inv bool) *pathExpr {
	switch p.Kind {
	case PathLink:
		id, ok := e.dict.ID(p.IRI)
		return &pathExpr{kind: PathLink, id: id, dead: !ok, inv: inv}
	case PathInv:
		return e.compilePath(p.Sub, !inv)
	case PathSeq:
		l, r := e.compilePath(p.L, inv), e.compilePath(p.R, inv)
		if inv {
			l, r = r, l
		}
		return &pathExpr{kind: PathSeq, l: l, r: r}
	case PathAlt:
		return &pathExpr{kind: PathAlt, l: e.compilePath(p.L, inv), r: e.compilePath(p.R, inv)}
	default: // PathPlus, PathStar, PathOpt
		return &pathExpr{kind: p.Kind, sub: e.compilePath(p.Sub, inv)}
	}
}

// pathPlan is a PathPattern planned against a fixed active graph: the
// path compiled in both directions (rev answers "which subjects reach
// this object" when only the object is bound) and the endpoints
// resolved to slots or interned constant IDs.
type pathPlan struct {
	g        *rdf.Graph
	fwd, rev *pathExpr
	sID, oID rdf.TermID
	sSlot    int // -1 for a constant subject
	oSlot    int // -1 for a constant object
	soSame   bool
	est      float64 // estimated emitted (s, o) pairs, planner only
}

func (*pathPlan) patternPlan() {}

// planPath compiles one path pattern and updates the planner's running
// estimates. Constant endpoints are interned, not just looked up: a
// term the dictionary has never seen still satisfies zero-length p*
// and p? paths, so it needs a live ID.
func (e *evaluator) planPath(pat PathPattern, g *rdf.Graph, pc *planCtx) *pathPlan {
	p := &pathPlan{
		g:   g,
		fwd: e.compilePath(pat.Path, false),
		rev: e.compilePath(pat.Path, true),
	}
	if pat.S.IsVar() {
		p.sID, p.sSlot = unboundID, e.lay.index[pat.S.Var]
	} else {
		p.sID, p.sSlot = e.dict.Intern(pat.S.Term), -1
	}
	if pat.O.IsVar() {
		p.oID, p.oSlot = unboundID, e.lay.index[pat.O.Var]
	} else {
		p.oID, p.oSlot = e.dict.Intern(pat.O.Term), -1
	}
	p.soSame = p.sSlot >= 0 && p.sSlot == p.oSlot
	p.est = pathExprCost(g, p.fwd)
	// Row-estimate update: with an endpoint pinned (a constant, or a
	// slot bound by earlier patterns) the per-row fan-out is roughly
	// the pattern's pair count spread over the graph's nodes; with both
	// ends free every input row fans out to the full pair set.
	fanout := p.est
	pinned := p.sSlot < 0 || p.oSlot < 0 ||
		pc.bound[p.sSlot] || pc.bound[p.oSlot]
	if pinned {
		fanout = p.est / math.Max(1, float64(g.Len()))
	}
	pc.rows = math.Max(1, pc.rows*fanout)
	return p
}

// pathExprCost estimates how many (s, o) pairs a compiled path relates,
// from per-link index cardinalities (the cost model is documented in
// docs/QUERY_PLANNING.md).
func pathExprCost(g *rdf.Graph, px *pathExpr) float64 {
	n := math.Max(1, float64(g.Len()))
	switch px.kind {
	case PathLink:
		if px.dead {
			return 0
		}
		return float64(g.CountIDs(rdf.AnyID, px.id, rdf.AnyID))
	case PathSeq:
		return pathExprCost(g, px.l) * pathExprCost(g, px.r) / n
	case PathAlt:
		return pathExprCost(g, px.l) + pathExprCost(g, px.r)
	case PathPlus:
		return 2 * pathExprCost(g, px.sub)
	case PathStar:
		return 2*pathExprCost(g, px.sub) + n
	default: // PathOpt
		return pathExprCost(g, px.sub) + n
	}
}

// pathASTEst is the pre-planning (term-level) form of pathExprCost,
// used by orderPatterns to place path patterns by selectivity before
// constants are resolved to IDs.
func pathASTEst(g *rdf.Graph, p *Path) int {
	n := g.Len()
	if n == 0 {
		n = 1
	}
	switch p.Kind {
	case PathLink:
		return g.Count(rdf.Any, p.IRI, rdf.Any)
	case PathInv:
		return pathASTEst(g, p.Sub)
	case PathSeq:
		return pathASTEst(g, p.L) * pathASTEst(g, p.R) / n
	case PathAlt:
		return pathASTEst(g, p.L) + pathASTEst(g, p.R)
	case PathPlus:
		return 2 * pathASTEst(g, p.Sub)
	case PathStar:
		return 2*pathASTEst(g, p.Sub) + n
	default: // PathOpt
		return pathASTEst(g, p.Sub) + n
	}
}

// pathExpansions counts fixpoint node expansions across all
// evaluations. Tests read its delta to pin the O(edges) bound on
// closure evaluation (no exponential path re-enumeration on cyclic
// graphs).
var pathExpansions atomic.Int64

// visitedSet is a sparse-reset bitset over TermIDs: add tracks touched
// IDs so reset clears only what was set (or the whole slab when nearly
// all of it was).
type visitedSet struct {
	bits    []uint64
	touched []rdf.TermID
}

func (v *visitedSet) has(id rdf.TermID) bool {
	w := int(id >> 6)
	return w < len(v.bits) && v.bits[w]&(1<<(id&63)) != 0
}

func (v *visitedSet) add(id rdf.TermID) {
	w := int(id >> 6)
	if w >= len(v.bits) {
		grown := make([]uint64, max(w+1, 2*len(v.bits), 64))
		copy(grown, v.bits)
		v.bits = grown
	}
	v.bits[w] |= 1 << (id & 63)
	v.touched = append(v.touched, id)
}

func (v *visitedSet) reset() {
	if len(v.touched) >= len(v.bits) {
		clear(v.bits)
	} else {
		for _, id := range v.touched {
			v.bits[int(id>>6)] &^= 1 << (id & 63)
		}
	}
	v.touched = v.touched[:0]
}

// acquireVisited returns a cleared visitedSet from the evaluator's
// pool. Closures nest (the step of one fixpoint may itself contain a
// fixpoint), so sets are pooled rather than owned by the operator.
func (e *evaluator) acquireVisited() *visitedSet {
	if n := len(e.visitedPool); n > 0 {
		v := e.visitedPool[n-1]
		e.visitedPool = e.visitedPool[:n-1]
		return v
	}
	return &visitedSet{}
}

func (e *evaluator) releaseVisited(v *visitedSet) {
	v.reset()
	e.visitedPool = append(e.visitedPool, v)
}

// pathEach calls f for every node reachable from `from` over px.
// Multiplicity follows the W3C semantics: links, sequences and
// alternatives are multiset-preserving (f may see the same target
// repeatedly when distinct paths lead there), the closure operators
// deliver each target exactly once. Returns false when f aborted or
// evaluation was canceled (e.err is then set).
func (e *evaluator) pathEach(px *pathExpr, g *rdf.Graph, from rdf.TermID, f func(rdf.TermID) bool) bool {
	switch px.kind {
	case PathLink:
		if px.dead {
			return true
		}
		ok := true
		if px.inv {
			g.EachMatchIDs(rdf.AnyID, px.id, from, func(ms, _, _ rdf.TermID) bool {
				ok = f(ms)
				return ok
			})
		} else {
			g.EachMatchIDs(from, px.id, rdf.AnyID, func(_, _, mo rdf.TermID) bool {
				ok = f(mo)
				return ok
			})
		}
		return ok
	case PathSeq:
		return e.pathEach(px.l, g, from, func(mid rdf.TermID) bool {
			return e.pathEach(px.r, g, mid, f)
		})
	case PathAlt:
		return e.pathEach(px.l, g, from, f) && e.pathEach(px.r, g, from, f)
	case PathOpt:
		vs := e.acquireVisited()
		defer e.releaseVisited(vs)
		vs.add(from)
		if !f(from) {
			return false
		}
		return e.pathEach(px.sub, g, from, func(t rdf.TermID) bool {
			if vs.has(t) {
				return true
			}
			vs.add(t)
			return f(t)
		})
	default: // PathPlus, PathStar
		return e.pathClosure(px, g, from, f)
	}
}

// pathClosure evaluates p+ / p* from one seed: a depth-first frontier
// with a visited bitset, each node expanded once, each reached node
// emitted once. p* emits the seed itself first (zero-length path); p+
// emits it only if a cycle leads back.
func (e *evaluator) pathClosure(px *pathExpr, g *rdf.Graph, from rdf.TermID, f func(rdf.TermID) bool) bool {
	vs := e.acquireVisited()
	defer e.releaseVisited(vs)
	frontier := e.frontierPool
	e.frontierPool = nil // guard against nested closures sharing the buffer
	frontier = frontier[:0]
	expansions := int64(0)
	defer func() {
		pathExpansions.Add(expansions)
		if expansions > 0 {
			obsPathExpansions.Add(float64(expansions))
		}
		e.frontierPool = frontier
	}()
	ok := true
	visit := func(t rdf.TermID) bool {
		if vs.has(t) {
			if mutation == mutPathDupEmit {
				ok = f(t) // seeded bug: re-emit instead of deduplicating
				return ok
			}
			return true
		}
		vs.add(t)
		frontier = append(frontier, t)
		ok = f(t)
		return ok
	}
	if px.kind == PathStar {
		if !visit(from) {
			return false
		}
	} else {
		// p+: the seed is not emitted for free — expand its edges to
		// prime the frontier; the seed joins the result only via a cycle.
		expansions++
		if !e.pathEach(px.sub, g, from, visit) {
			return false
		}
	}
	for len(frontier) > 0 {
		n := frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		expansions++
		if expansions&1023 == 0 && !e.poll() {
			return false
		}
		if !e.pathEach(px.sub, g, n, visit) {
			return ok
		}
	}
	return ok
}

// graphNodes returns every node of g (distinct subjects and objects),
// cached per evaluation: both-ends-unbound path patterns range over
// it, because p* relates every node to itself.
func (e *evaluator) graphNodes(g *rdf.Graph) []rdf.TermID {
	if ns, ok := e.pathNodes[g]; ok {
		return ns
	}
	vs := e.acquireVisited()
	defer e.releaseVisited(vs)
	var ns []rdf.TermID
	g.EachMatchIDs(rdf.AnyID, rdf.AnyID, rdf.AnyID, func(ms, _, mo rdf.TermID) bool {
		if !vs.has(ms) {
			vs.add(ms)
			ns = append(ns, ms)
		}
		if !vs.has(mo) {
			vs.add(mo)
			ns = append(ns, mo)
		}
		return true
	})
	if e.pathNodes == nil {
		e.pathNodes = make(map[*rdf.Graph][]rdf.TermID)
	}
	e.pathNodes[g] = ns
	return ns
}

// pathIter streams one path pattern: per input row it materializes the
// (subject, object) pairs consistent with the row's endpoint bindings
// into buf, then emits them composed into its scratch row.
type pathIter struct {
	e   *evaluator
	src rowIter
	p   *pathPlan

	scratch []rdf.TermID
	buf     []rdf.TermID // flat (s, o) pairs for the current input row
	pos     int
}

func (it *pathIter) next() []rdf.TermID {
	p := it.p
	for {
		if it.pos < len(it.buf) {
			if p.sSlot >= 0 {
				it.scratch[p.sSlot] = it.buf[it.pos]
			}
			if p.oSlot >= 0 {
				it.scratch[p.oSlot] = it.buf[it.pos+1]
			}
			it.pos += 2
			return it.scratch
		}
		if !it.e.poll() {
			return nil
		}
		row := it.src.next()
		if row == nil {
			return nil
		}
		copy(it.scratch, row)
		it.buf, it.pos = it.buf[:0], 0
		s, o := p.sID, p.oID
		if p.sSlot >= 0 {
			s = row[p.sSlot]
		}
		if p.oSlot >= 0 {
			o = row[p.oSlot]
		}
		it.buf = it.e.pathPairs(it.buf, p, s, o)
		if it.e.err != nil {
			return nil
		}
	}
}

// pathPairs appends every (subject, object) pair p's path relates that
// is consistent with the given endpoint values (unboundID = free).
// A bound subject walks the path forward; subject free but object
// bound walks the reversed compilation from the object; both free
// seeds a forward walk from every graph node.
func (e *evaluator) pathPairs(buf []rdf.TermID, p *pathPlan, s, o rdf.TermID) []rdf.TermID {
	switch {
	case s != unboundID:
		e.pathEach(p.fwd, p.g, s, func(t rdf.TermID) bool {
			if o == unboundID || o == t {
				buf = append(buf, s, t)
			}
			return true
		})
	case o != unboundID:
		e.pathEach(p.rev, p.g, o, func(t rdf.TermID) bool {
			buf = append(buf, t, o)
			return true
		})
	default:
		for _, n := range e.graphNodes(p.g) {
			if e.err != nil {
				break
			}
			e.pathEach(p.fwd, p.g, n, func(t rdf.TermID) bool {
				if !p.soSame || t == n {
					buf = append(buf, n, t)
				}
				return true
			})
		}
	}
	return buf
}
