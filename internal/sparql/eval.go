package sparql

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"mdm/internal/obs"
	"mdm/internal/rdf"
)

// This file holds the shared evaluation substrate: the variable-slot
// layout, the evaluator state (arena, dictionary snapshot, context
// polling), pattern planning, and the materialized Result. The
// pull-based operator pipeline itself — the primary evaluation product
// since the cursor redesign — lives in cursor.go; Eval and EvalContext
// are thin wrappers that drain a Cursor. The retained map-based
// reference evaluator lives in oracle_test.go and is used by the
// randomized equivalence harness in spec_test.go.

// Binding maps variable names (without '?') to terms. It is the decoded
// form of one solution row.
type Binding map[string]rdf.Term

// Clone returns a copy of the binding.
func (b Binding) Clone() Binding {
	out := make(Binding, len(b)+1)
	for k, v := range b {
		out[k] = v
	}
	return out
}

// Lookup implements Env.
func (b Binding) Lookup(name string) (rdf.Term, bool) {
	t, ok := b[name]
	return t, ok
}

// unboundID marks an unbound variable slot in an ID row. It reuses
// rdf.AnyID, which is never assigned to a real term — and which doubles
// as the wildcard when an unbound slot is substituted into a match
// pattern, so resolution needs no separate translation step.
const unboundID = rdf.AnyID

// slotLayout is a query's compiled variable-to-column mapping: every
// variable the query can bind, project, order by or filter on gets a
// fixed column index in the solution rows.
type slotLayout struct {
	names []string       // slot -> variable name, sorted
	index map[string]int // variable name -> slot
}

func compileLayout(q *Query) *slotLayout {
	set := map[string]bool{}
	q.Where.collectVars(set)
	for _, v := range q.Variables {
		set[v] = true
	}
	for _, k := range q.OrderBy {
		set[k.Var] = true
	}
	for _, v := range q.GroupBy {
		set[v] = true
	}
	for _, a := range q.Aggregates {
		if a.Var != "" {
			set[a.Var] = true
		}
		set[a.As] = true
	}
	for _, h := range q.Having {
		h.Vars(set)
	}
	names := make([]string, 0, len(set))
	for v := range set {
		names = append(names, v)
	}
	sort.Strings(names)
	index := make(map[string]int, len(names))
	for i, v := range names {
		index[v] = i
	}
	return &slotLayout{names: names, index: index}
}

// Result is a fully materialized query answer: a thin view over a
// drained Cursor. Solution rows are kept in dictionary-encoded form;
// Solutions, Term and Table decode them on demand
// (decode-at-projection). Callers that only need a page of a large
// result should prefer EvalCursor, which stops work as soon as the page
// is complete.
type Result struct {
	// Vars is the projection list in order.
	Vars []string
	// Bool is the ASK answer when the query form is ASK.
	Bool bool
	// Form echoes the query form.
	Form QueryForm

	rows  [][]rdf.TermID // full-width solution rows
	slots []int          // row column per Vars entry
	terms []rdf.Term     // dictionary snapshot covering every row ID

	solsOnce sync.Once
	sols     []Binding
}

// Len returns the number of solution rows.
func (r *Result) Len() int { return len(r.rows) }

// Term returns the term bound to projected variable v in solution row i;
// ok is false when v is unbound in that row (OPTIONAL miss) or not in
// the projection.
func (r *Result) Term(i int, v string) (rdf.Term, bool) {
	for vi, name := range r.Vars {
		if name == v {
			return r.TermAt(i, vi)
		}
	}
	return rdf.Term{}, false
}

// TermAt is the column-index form of Term: col indexes Vars. Callers
// iterating whole result tables should prefer it — it skips the
// per-cell variable-name scan.
func (r *Result) TermAt(i, col int) (rdf.Term, bool) {
	if id := r.rows[i][r.slots[col]]; id != unboundID {
		return r.terms[id], true
	}
	return rdf.Term{}, false
}

// Solutions decodes all rows to Bindings. Unbound variables are absent
// from their row's map. The decode runs once and is memoized; the
// returned slice is shared, so callers must not mutate it.
func (r *Result) Solutions() []Binding {
	r.solsOnce.Do(func() {
		r.sols = make([]Binding, len(r.rows))
		for i, row := range r.rows {
			b := make(Binding, len(r.Vars))
			for vi, v := range r.Vars {
				if id := row[r.slots[vi]]; id != unboundID {
					b[v] = r.terms[id]
				}
			}
			r.sols[i] = b
		}
	})
	return r.sols
}

// Table renders the result as an aligned text table (for demos/tests).
// Unbound cells render empty.
func (r *Result) Table() string {
	if r.Form == FormAsk {
		return fmt.Sprintf("ASK -> %v\n", r.Bool)
	}
	widths := make([]int, len(r.Vars))
	for i, v := range r.Vars {
		widths[i] = len(v) + 1
	}
	cells := make([][]string, len(r.rows))
	for si, s := range r.rows {
		row := make([]string, len(r.Vars))
		for i := range r.Vars {
			if id := s[r.slots[i]]; id != unboundID {
				row[i] = r.terms[id].Value
			}
			if len(row[i]) > widths[i] {
				widths[i] = len(row[i])
			}
		}
		cells[si] = row
	}
	var sb strings.Builder
	for i, v := range r.Vars {
		fmt.Fprintf(&sb, "%-*s", widths[i]+2, "?"+v)
	}
	sb.WriteString("\n")
	for _, row := range cells {
		for i, c := range row {
			fmt.Fprintf(&sb, "%-*s", widths[i]+2, c)
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// evaluator carries the evaluation state shared by every operator of
// one pipeline: dataset, slot layout, a row arena with a free list, a
// cached dictionary snapshot for decoding, and the context/error pair
// that cancellation and failures propagate through.
type evaluator struct {
	ds    *rdf.Dataset
	dict  *rdf.Dict
	lay   *slotLayout
	arena []rdf.TermID   // tail of the current allocation chunk
	free  [][]rdf.TermID // recycled rows (e.g. top-k evictions)
	terms []rdf.Term     // lazily refreshed dictionary snapshot

	// tables caches hash-join build sides per plan node for the lifetime
	// of this evaluation, so sub-chains instantiated once per input row
	// (OPTIONAL, UNION, GRAPH) share one build instead of re-scanning.
	tables map[*triplePlan]*hashTable

	// Path-operator state (path.go): pooled visited bitsets and
	// frontier buffer for the closure fixpoint (pooled because nested
	// closures need independent sets), and the per-graph node set that
	// both-ends-unbound path patterns range over.
	visitedPool  []*visitedSet
	frontierPool []rdf.TermID
	pathNodes    map[*rdf.Graph][]rdf.TermID

	// ctx is the caller's context for the in-flight Next call; err
	// latches the first failure (typically ctx.Err()) and makes every
	// operator wind down: next() returns nil once err is set.
	ctx context.Context
	err error

	// join is the forced join algorithm; joinAuto, the zero value, leaves
	// the choice to the cost model (chooseJoin).
	join int32

	// State of the pipeline's canonical-order or top-k barrier (cursor.go,
	// beginCanonical): the dictionary's term order as the barrier began,
	// and the rdf.Compare calls the barrier has made on terms that order
	// does not cover, charged to the dictionary when it ends.
	order    *rdf.TermOrder
	compares int

	// trace is the query's observability trace, nil on the untraced
	// path. The planner annotates it always; operator wrapping
	// (metrics.go traced) happens only when trace.Detail is set, so a
	// plain evaluation pays one nil-check per operator construction.
	trace *obs.Trace
}

// poll reports whether evaluation may continue, latching the context
// error when the caller's context is done. Operators call it once per
// pulled row (and periodically inside long index scans), which bounds
// how much work a canceled query can still do.
func (e *evaluator) poll() bool {
	if e.err != nil {
		return false
	}
	if err := e.ctx.Err(); err != nil {
		e.err = err
		return false
	}
	return true
}

// newRow carves one uninitialized row from the arena (or the free
// list), growing the arena in chunks so row allocation amortizes to a
// copy.
func (e *evaluator) newRow() []rdf.TermID {
	w := len(e.lay.names)
	if w == 0 {
		// Zero-width rows (queries without variables) must still be
		// non-nil: nil is the iterator exhaustion signal.
		return zeroWidthRow
	}
	if n := len(e.free); n > 0 {
		r := e.free[n-1]
		e.free = e.free[:n-1]
		return r
	}
	if len(e.arena) < w {
		e.arena = make([]rdf.TermID, 256*w)
	}
	r := e.arena[:w:w]
	e.arena = e.arena[w:]
	return r
}

// zeroWidthRow is the shared row for variable-free queries; being
// width 0 it is never written to.
var zeroWidthRow = make([]rdf.TermID, 0)

// release returns a row to the free list. Only owners of provably
// unreferenced rows (a barrier evicting a copy it made itself) may call
// it.
func (e *evaluator) release(r []rdf.TermID) {
	if len(r) > 0 {
		e.free = append(e.free, r)
	}
}

// extend returns a fresh row initialized as a copy of parent.
func (e *evaluator) extend(parent []rdf.TermID) []rdf.TermID {
	r := e.newRow()
	copy(r, parent)
	return r
}

// term decodes an ID (must not be unboundID). The snapshot is refreshed
// when the ID postdates it; the dictionary is append-only, so a refresh
// covers every ID interned before the call.
func (e *evaluator) term(id rdf.TermID) rdf.Term {
	if int(id) >= len(e.terms) {
		e.terms = e.dict.Snapshot()
	}
	return e.terms[id]
}

// rowEnv adapts an ID row to the filter Env, decoding only the
// variables the expression actually reads.
type rowEnv struct {
	e   *evaluator
	row []rdf.TermID
}

// Lookup implements Env.
func (env *rowEnv) Lookup(name string) (rdf.Term, bool) {
	slot, ok := env.e.lay.index[name]
	if !ok {
		return rdf.Term{}, false
	}
	id := env.row[slot]
	if id == unboundID {
		return rdf.Term{}, false
	}
	return env.e.term(id), true
}

// Eval evaluates a query against a dataset and materializes the full
// answer. The default graph is the active graph except inside GRAPH
// blocks. It is EvalContext with a background context.
func Eval(ds *rdf.Dataset, q *Query) (*Result, error) {
	return EvalContext(context.Background(), ds, q)
}

// EvalContext evaluates a query and materializes the answer, checking
// ctx once per produced row: a canceled context aborts evaluation and
// returns ctx's error. Callers that want to stop after a page of rows
// should use EvalCursor instead.
func EvalContext(ctx context.Context, ds *rdf.Dataset, q *Query) (*Result, error) {
	c, err := EvalCursor(ds, q)
	if err != nil {
		return nil, err
	}
	return c.result(ctx)
}

// result drains the cursor into a materialized answer.
func (c *Cursor) result(ctx context.Context) (*Result, error) {
	res := &Result{Form: c.form}
	if c.form == FormAsk {
		res.Bool = c.Next(ctx)
		if err := c.Err(); err != nil {
			return nil, err
		}
		return res, nil
	}
	res.Vars = c.vars
	res.slots = c.slots
	for c.Next(ctx) {
		// The tail operator of every SELECT pipeline is a barrier whose
		// rows stay valid after the cursor advances, so the drain can
		// alias them instead of copying.
		res.rows = append(res.rows, c.row)
	}
	if err := c.Err(); err != nil {
		return nil, err
	}
	if len(res.rows) > 0 {
		res.terms = c.e.dict.Snapshot()
	}
	return res, nil
}

// compareOrder orders terms numerically when both parse as numbers, else
// by rdf.Compare.
func compareOrder(a, b rdf.Term) int {
	fa, erra := a.Float()
	fb, errb := b.Float()
	if erra == nil && errb == nil {
		switch {
		case fa < fb:
			return -1
		case fa > fb:
			return 1
		default:
			return 0
		}
	}
	return rdf.Compare(a, b)
}

// orderPatterns arranges a group's patterns for evaluation: basic
// patterns (triples and property paths) before OPTIONALs so left joins
// see the full base solution set, preserving the relative order of
// non-OPTIONAL patterns; then each contiguous run of basic patterns is
// greedily reordered by estimated selectivity. Runs never cross a
// UNION or GRAPH boundary: this evaluator threads accumulated rows
// into sub-groups, where a branch FILTER can observe them, so only
// pure basic-join prefixes — whose joins are commutative — are safe to
// permute.
func orderPatterns(g *rdf.Graph, ps []Pattern) []Pattern {
	if len(ps) <= 1 {
		return ps
	}
	out := make([]Pattern, 0, len(ps))
	for _, p := range ps {
		if _, ok := p.(Optional); !ok {
			out = append(out, p)
		}
	}
	for _, p := range ps {
		if _, ok := p.(Optional); ok {
			out = append(out, p)
		}
	}
	for lo := 0; lo < len(out); {
		if !isBasicPattern(out[lo]) {
			lo++
			continue
		}
		hi := lo + 1
		for hi < len(out) && isBasicPattern(out[hi]) {
			hi++
		}
		orderBasicPrefix(g, out[lo:hi])
		lo = hi
	}
	return out
}

// isBasicPattern reports whether p joins commutatively in its group: a
// triple pattern or a property-path pattern.
func isBasicPattern(p Pattern) bool {
	switch p.(type) {
	case TriplePattern, PathPattern:
		return true
	}
	return false
}

// orderBasicPrefix greedily orders a run of basic patterns in place by
// estimated selectivity: at each step it picks the cheapest remaining
// pattern among those that share a variable with the already-chosen
// prefix (avoiding accidental cartesian products), falling back to the
// globally cheapest when none connects. Estimates are
// index-cardinality counts from Graph.Count with variables widened to
// wildcards (path operators combine per-link counts, see pathASTEst),
// so they cost a handful of map-length reads per pattern.
func orderBasicPrefix(g *rdf.Graph, ps []Pattern) {
	if len(ps) <= 1 {
		return
	}
	if len(ps) == 2 {
		// Two-pattern joins need no connectivity analysis: evaluate the
		// cheaper side first.
		if basicEst(g, ps[1]) < basicEst(g, ps[0]) {
			ps[0], ps[1] = ps[1], ps[0]
		}
		return
	}
	est := make([]int, len(ps))
	for i := range ps {
		est[i] = basicEst(g, ps[i])
	}
	bound := map[string]bool{}
	for k := range ps {
		best := -1
		bestConn := false
		for i := k; i < len(ps); i++ {
			conn := k == 0 || patConnected(ps[i], bound)
			switch {
			case best == -1:
			case conn && !bestConn:
			case conn == bestConn && est[i] < est[best]:
			default:
				continue
			}
			best, bestConn = i, conn
		}
		ps[k], ps[best] = ps[best], ps[k]
		est[k], est[best] = est[best], est[k]
		ps[k].Vars(bound)
	}
}

// basicEst estimates a basic pattern's match cardinality against the
// active graph.
func basicEst(g *rdf.Graph, p Pattern) int {
	switch bp := p.(type) {
	case TriplePattern:
		return patEst(g, bp)
	case PathPattern:
		return pathASTEst(g, bp.Path)
	}
	return 0
}

// patEst estimates a pattern's match cardinality against the active
// graph.
func patEst(g *rdf.Graph, tp TriplePattern) int {
	return g.Count(patTerm(tp.S), patTerm(tp.P), patTerm(tp.O))
}

// patTerm widens a pattern node to a match term: variables become Any.
func patTerm(n Node) rdf.Term {
	if n.IsVar() {
		return rdf.Any
	}
	return n.Term
}

// patConnected reports whether the pattern shares a variable with the
// bound set, or has no variables at all (a pure existence check is
// always safe to evaluate next).
func patConnected(p Pattern, bound map[string]bool) bool {
	vars := map[string]bool{}
	p.Vars(vars)
	for v := range vars {
		if bound[v] {
			return true
		}
	}
	return len(vars) == 0
}

// MustParse parses a query and panics on error; for fixtures and tests.
func MustParse(src string) *Query {
	q, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return q
}

// Run parses and evaluates src against ds in one step.
func Run(ds *rdf.Dataset, src string) (*Result, error) {
	q, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return Eval(ds, q)
}

// RunCursor parses src and starts cursor-based evaluation in one step.
func RunCursor(ds *rdf.Dataset, src string) (*Cursor, error) {
	q, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return EvalCursor(ds, q)
}
