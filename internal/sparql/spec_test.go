package sparql

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"mdm/internal/rdf"
)

// Randomized equivalence harness: every generated query/graph pair is
// evaluated through both the ID-row engine (Eval) and the retained
// Binding-map oracle (refEval, oracle_test.go), and the two solution
// multisets must be identical. Generation is seeded, so failures
// reproduce by seed number.
//
// Generator invariant: LIMIT/OFFSET are only generated *without* ORDER
// BY. Without ORDER BY both engines canonically sort by all projected
// columns, a total order up to row identity, so page selection is
// multiset-deterministic; ORDER BY keys, in contrast, may tie distinct
// rows (numeric comparison even ties distinct terms such as "3" and
// "3"^^xsd:integer), making the page cut legitimately engine-dependent.

const specPairs = 300

// --- vocabulary ---

var (
	specSubjects = []rdf.Term{
		rdf.IRI("http://ex.org/s0"), rdf.IRI("http://ex.org/s1"),
		rdf.IRI("http://ex.org/s2"), rdf.IRI("http://ex.org/s3"),
		rdf.IRI("http://ex.org/s4"), rdf.Blank("b0"), rdf.Blank("b1"),
	}
	specPreds = []rdf.Term{
		rdf.IRI("http://ex.org/p0"), rdf.IRI("http://ex.org/p1"),
		rdf.IRI("http://ex.org/p2"), rdf.IRI("http://ex.org/p3"),
	}
	specObjects = []rdf.Term{
		rdf.IRI("http://ex.org/s0"), rdf.IRI("http://ex.org/s2"),
		rdf.IRI("http://ex.org/o0"), rdf.Lit("v0"), rdf.Lit("v1"),
		rdf.Lit("3"), rdf.IntLit(1), rdf.IntLit(3), rdf.IntLit(7),
		rdf.FloatLit(2.5), rdf.LangLit("hola", "es"), rdf.Blank("b0"),
	}
	specGraphNames = []rdf.Term{
		rdf.IRI("http://ex.org/g0"), rdf.IRI("http://ex.org/g1"),
	}
	specVars = []string{"a", "b", "c", "d", "e"}
)

func pick[T any](r *rand.Rand, xs []T) T { return xs[r.Intn(len(xs))] }

func genTriple(r *rand.Rand) rdf.Triple {
	return rdf.T(pick(r, specSubjects), pick(r, specPreds), pick(r, specObjects))
}

func genDataset(r *rand.Rand) *rdf.Dataset {
	ds := rdf.NewDataset()
	def := ds.Default()
	for i, n := 0, 5+r.Intn(20); i < n; i++ {
		def.MustAdd(genTriple(r))
	}
	for _, name := range specGraphNames {
		if r.Intn(3) == 0 {
			continue // sometimes the named graph does not exist at all
		}
		g := ds.Graph(name)
		for i, n := 0, r.Intn(10); i < n; i++ {
			g.MustAdd(genTriple(r))
		}
	}
	return ds
}

// --- query generation ---

// genNode draws an unanchored pattern node (may match nothing).
func genNode(r *rand.Rand, pos int) Node { // pos: 0=subject 1=predicate 2=object
	switch pos {
	case 0:
		if r.Intn(10) < 6 {
			return V(pick(r, specVars))
		}
		return N(pick(r, specSubjects))
	case 1:
		if r.Intn(10) < 3 {
			return V(pick(r, specVars))
		}
		return N(pick(r, specPreds))
	default:
		if r.Intn(10) < 5 {
			return V(pick(r, specVars))
		}
		return N(pick(r, specObjects))
	}
}

func genFilter(r *rand.Rand, depth int) Expr {
	switch r.Intn(7) {
	case 0:
		return BoundExpr{Name: pick(r, specVars)}
	case 1:
		op := pick(r, []string{"=", "!=", "<", "<=", ">", ">="})
		return CmpExpr{Op: op, L: VarExpr{Name: pick(r, specVars)}, R: ConstExpr{Term: rdf.IntLit(int64(r.Intn(8)))}}
	case 2:
		op := pick(r, []string{"=", "!="})
		return CmpExpr{Op: op, L: VarExpr{Name: pick(r, specVars)}, R: ConstExpr{Term: pick(r, specObjects)}}
	case 3:
		return CmpExpr{Op: "=", L: StrExpr{X: VarExpr{Name: pick(r, specVars)}}, R: ConstExpr{Term: rdf.Lit("v0")}}
	case 4:
		re, err := NewRegexExpr(VarExpr{Name: pick(r, specVars)}, "^v", pick(r, []string{"", "i"}))
		if err != nil {
			panic(err)
		}
		return re
	case 5:
		if depth > 0 {
			return NotExpr{X: genFilter(r, depth-1)}
		}
		return BoundExpr{Name: pick(r, specVars)}
	default:
		if depth > 0 {
			op := pick(r, []string{"&&", "||"})
			return LogicExpr{Op: op, L: genFilter(r, depth-1), R: genFilter(r, depth-1)}
		}
		return CmpExpr{Op: "=", L: VarExpr{Name: pick(r, specVars)}, R: VarExpr{Name: pick(r, specVars)}}
	}
}

//
// Generation is witness-driven: a specGen carries a variable assignment
// (the "witness") that is extended as patterns are generated, and most
// patterns are anchored on a stored triple consistent with that
// assignment. The witness is a solution of the generated BGP by
// construction, so most queries return rows and the harness compares
// populated multisets instead of vacuously equal empty ones. A fraction
// of patterns remain unanchored for empty-join coverage, and filters
// are free to reject the witness.

type specGen struct {
	r   *rand.Rand
	ds  *rdf.Dataset
	env map[string]rdf.Term // witness assignment, shared across the query
}

// triplesFor returns the triples of the graph a group runs against
// (zero name = default graph).
func (g *specGen) triplesFor(name rdf.Term) []rdf.Triple {
	if name.IsZero() {
		return g.ds.Default().Triples()
	}
	gr, ok := g.ds.Lookup(name)
	if !ok {
		return nil
	}
	return gr.Triples()
}

// node turns one position of an anchored triple into a pattern node:
// with probability varProb/10 a variable consistent with the witness
// (unassigned, or already assigned to exactly this term), else the
// term itself as a constant.
func (g *specGen) node(term rdf.Term, varProb int) Node {
	if g.r.Intn(10) >= varProb {
		return N(term)
	}
	for try := 0; try < 3; try++ {
		v := pick(g.r, specVars)
		if cur, ok := g.env[v]; !ok || cur == term {
			g.env[v] = term
			return V(v)
		}
	}
	return N(term)
}

func (g *specGen) triplePattern(ts []rdf.Triple) TriplePattern {
	if len(ts) == 0 || g.r.Intn(10) >= 8 {
		// Unanchored: may well match nothing (empty-join coverage).
		return TriplePattern{S: genNode(g.r, 0), P: genNode(g.r, 1), O: genNode(g.r, 2)}
	}
	// Prefer a stored triple consistent with the witness assignment so
	// far; fall back to any stored triple after a few tries.
	t := pick(g.r, ts)
	for try := 0; try < 4; try++ {
		cand := pick(g.r, ts)
		if g.consistent(cand) {
			t = cand
			break
		}
	}
	return TriplePattern{S: g.node(t.S, 7), P: g.node(t.P, 3), O: g.node(t.O, 6)}
}

// consistent reports whether the triple could extend the witness (no
// position conflicts with an assigned variable's term — approximated by
// value overlap: a triple reusing already-witnessed terms is favored).
func (g *specGen) consistent(t rdf.Triple) bool {
	if len(g.env) == 0 {
		return true
	}
	for _, v := range g.env {
		if t.S == v || t.P == v || t.O == v {
			return true
		}
	}
	return false
}

// group generates a group graph pattern evaluated against the graph
// whose triples are ts. nested guards against deep recursion.
func (g *specGen) group(ts []rdf.Triple, nested bool) *Group {
	out := &Group{}
	for i, n := 0, 1+g.r.Intn(3); i < n; i++ {
		out.Patterns = append(out.Patterns, g.triplePattern(ts))
	}
	if !nested {
		if g.r.Intn(10) < 3 {
			out.Patterns = append(out.Patterns, Optional{Group: g.group(ts, true)})
		}
		if g.r.Intn(10) < 3 {
			out.Patterns = append(out.Patterns, Union{Branches: []*Group{g.group(ts, true), g.group(ts, true)}})
		}
		if g.r.Intn(10) < 3 {
			var name Node
			var sub []rdf.Triple
			switch g.r.Intn(4) {
			case 0:
				gname := pick(g.r, specGraphNames)
				name = V("g")
				sub = g.triplesFor(gname) // witness graph for anchoring
			case 1:
				name = N(rdf.IRI("http://ex.org/gMissing"))
			default:
				gname := pick(g.r, specGraphNames)
				name = N(gname)
				sub = g.triplesFor(gname)
			}
			out.Patterns = append(out.Patterns, GraphPattern{Name: name, Group: g.group(sub, true)})
		}
		// Shuffle so OPTIONAL/UNION/GRAPH also appear before triples.
		g.r.Shuffle(len(out.Patterns), func(i, j int) {
			out.Patterns[i], out.Patterns[j] = out.Patterns[j], out.Patterns[i]
		})
	}
	if g.r.Intn(10) < 4 {
		out.Filters = append(out.Filters, genFilter(g.r, 2))
	}
	return out
}

func genQuery(r *rand.Rand, ds *rdf.Dataset) *Query {
	g := &specGen{r: r, ds: ds, env: map[string]rdf.Term{}}
	q := &Query{Limit: -1, Where: g.group(g.triplesFor(rdf.Term{}), false)}
	if r.Intn(8) == 0 {
		q.Form = FormAsk
		return q
	}
	q.Distinct = r.Intn(10) < 3
	if r.Intn(10) < 3 {
		q.Star = true
	} else {
		n := 1 + r.Intn(3)
		seen := map[string]bool{}
		for i := 0; i < n; i++ {
			v := pick(r, specVars)
			switch r.Intn(12) {
			case 0:
				v = "unbound" // projection of a variable the pattern never binds
			case 1, 2:
				v = "g" // the GRAPH name variable, when one was generated
			}
			if !seen[v] {
				seen[v] = true
				q.Variables = append(q.Variables, v)
			}
		}
	}
	switch r.Intn(10) {
	case 0, 1, 2, 3: // ORDER BY, no paging
		for i, n := 0, 1+r.Intn(2); i < n; i++ {
			q.OrderBy = append(q.OrderBy, OrderKey{Var: pick(r, specVars), Desc: r.Intn(2) == 0})
		}
	case 4, 5: // paging without ORDER BY (canonical sort is total)
		if r.Intn(2) == 0 {
			q.Limit = r.Intn(12)
		}
		if r.Intn(2) == 0 {
			q.Offset = r.Intn(8) // sometimes beyond the result size
		}
	}
	return q
}

// --- multiset comparison ---

func solKey(vars []string, b Binding) string {
	var sb strings.Builder
	for _, v := range vars {
		if t, ok := b[v]; ok {
			sb.WriteString(t.String())
		}
		sb.WriteByte('\x00')
	}
	return sb.String()
}

func multiset(vars []string, sols []Binding) map[string]int {
	m := make(map[string]int, len(sols))
	for _, s := range sols {
		m[solKey(vars, s)]++
	}
	return m
}

func diffMultisets(a, b map[string]int) string {
	keys := map[string]bool{}
	for k := range a {
		keys[k] = true
	}
	for k := range b {
		keys[k] = true
	}
	sorted := make([]string, 0, len(keys))
	for k := range keys {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)
	var sb strings.Builder
	for _, k := range sorted {
		if a[k] != b[k] {
			fmt.Fprintf(&sb, "  engine=%d oracle=%d row=%q\n", a[k], b[k], k)
		}
	}
	return sb.String()
}

func datasetDump(ds *rdf.Dataset) string {
	var sb strings.Builder
	for _, q := range ds.Quads() {
		sb.WriteString(q.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// checkEquivalence evaluates q through both engines and fails the test
// on any divergence.
func checkEquivalence(t *testing.T, ds *rdf.Dataset, q *Query, seed int64) {
	t.Helper()
	got, gerr := Eval(ds, q)
	want, werr := refEval(ds, q)
	if (gerr != nil) != (werr != nil) {
		t.Fatalf("seed %d: engine err = %v, oracle err = %v\nquery: %s", seed, gerr, werr, q)
	}
	if gerr != nil {
		return
	}
	if q.Form == FormAsk {
		if got.Bool != want.Bool {
			t.Fatalf("seed %d: ASK engine=%v oracle=%v\nquery: %s\ndata:\n%s", seed, got.Bool, want.Bool, q, datasetDump(ds))
		}
		checkJoinStrategies(t, ds, q, seed, want.Bool, nil)
		return
	}
	if strings.Join(got.Vars, ",") != strings.Join(want.Vars, ",") {
		t.Fatalf("seed %d: vars engine=%v oracle=%v\nquery: %s", seed, got.Vars, want.Vars, q)
	}
	sols := got.Solutions()
	if got.Len() != len(sols) || got.Len() != len(want.Sols) {
		t.Fatalf("seed %d: rows engine=%d decoded=%d oracle=%d\nquery: %s\ndata:\n%s",
			seed, got.Len(), len(sols), len(want.Sols), q, datasetDump(ds))
	}
	me, mo := multiset(got.Vars, sols), multiset(want.Vars, want.Sols)
	if len(me) != len(mo) {
		t.Fatalf("seed %d: %d distinct rows vs oracle %d\nquery: %s\ndata:\n%sdiff:\n%s",
			seed, len(me), len(mo), q, datasetDump(ds), diffMultisets(me, mo))
	}
	for k, n := range me {
		if mo[k] != n {
			t.Fatalf("seed %d: multiset mismatch\nquery: %s\ndata:\n%sdiff:\n%s",
				seed, q, datasetDump(ds), diffMultisets(me, mo))
		}
	}
	if len(q.OrderBy) == 0 {
		checkCanonicalOrder(t, q, got.Vars, sols, want.Sols, seed)
	}
	// Cross-check the cell accessor against the decoded bindings.
	for i := 0; i < got.Len(); i++ {
		for _, v := range got.Vars {
			ct, cok := got.Term(i, v)
			bt, bok := sols[i][v]
			if cok != bok || ct != bt {
				t.Fatalf("seed %d: Term(%d,%q)=(%v,%v) but Solutions()=(%v,%v)", seed, i, v, ct, cok, bt, bok)
			}
		}
	}
	checkCursor(t, ds, q, seed, got, mo)
	checkJoinStrategies(t, ds, q, seed, false, mo)
}

// checkCanonicalOrder pins the canonical order itself, where the
// multiset checks only pin what is returned: without ORDER BY the
// engine's rows must be the oracle's solutions sorted by canonicalCmp,
// the documented order restated here independently of both engines.
// (With LIMIT/OFFSET the oracle's page is already the right page, so
// sorting it again is the identity.)
func checkCanonicalOrder(t *testing.T, q *Query, vars []string, got, oracle []Binding, seed int64) {
	t.Helper()
	want := slices.Clone(oracle)
	slices.SortStableFunc(want, func(a, b Binding) int { return canonicalCmp(vars, a, b) })
	for i := range got {
		if g, w := solKey(vars, got[i]), solKey(vars, want[i]); g != w {
			t.Fatalf("seed %d: row %d is %q, canonical order puts %q there\nquery: %s", seed, i, g, w, q)
		}
	}
}

// canonicalCmp is the canonical order: projected columns left to right,
// an unbound column first, terms by rdf.Compare.
func canonicalCmp(vars []string, a, b Binding) int {
	for _, v := range vars {
		x, xok := a[v]
		y, yok := b[v]
		switch {
		case !xok && !yok:
			continue
		case !xok:
			return -1
		case !yok:
			return 1
		}
		if c := rdf.Compare(x, y); c != 0 {
			return c
		}
	}
	return 0
}

// checkDictStates runs checkEquivalence on one generated case in each
// state the dictionary's term order can be in when a canonical barrier
// runs: none built (the fresh dataset; the charge rule may build one
// during the case's evaluations), one covering every term, and a stale
// one that misses about half the terms the results use.
func checkDictStates(t *testing.T, ds *rdf.Dataset, q *Query, seed int64) {
	t.Helper()
	if ds.Dict().Order() != nil {
		t.Fatalf("seed %d: a fresh dataset already has a term order", seed)
	}
	checkEquivalence(t, ds, q, seed)
	forceOrder(ds.Dict())
	checkEquivalence(t, ds, q, seed)
	checkEquivalence(t, staleOrderCopy(ds), q, seed)
}

// forceOrder charges d until its term order covers every interned term.
func forceOrder(d *rdf.Dict) {
	for d.Order().N() != d.Len() {
		d.ChargeOrder(math.MaxInt32)
	}
}

// staleOrderCopy copies ds into a dataset whose term order was built
// over every other term of the generator's vocabulary, before any quad
// was added: results mix terms the order ranks with terms interned
// after it.
func staleOrderCopy(ds *rdf.Dataset) *rdf.Dataset {
	out := rdf.NewDataset()
	vocab := slices.Concat(specSubjects, specPreds, specObjects, specGraphNames)
	for i := 0; i < len(vocab); i += 2 {
		out.Dict().Intern(vocab[i])
	}
	forceOrder(out.Dict())
	for _, name := range ds.GraphNames() {
		out.Graph(name)
	}
	for _, q := range ds.Quads() {
		if q.Graph.IsZero() {
			out.Default().MustAdd(q.Triple)
		} else {
			out.Graph(q.Graph).MustAdd(q.Triple)
		}
	}
	return out
}

// requireBothCanonicalPaths returns a check, to defer, that the
// canonical barriers run since the call took both the ranked and the
// fallback path — so the dictionary states above really exercise both.
func requireBothCanonicalPaths(t *testing.T) func() {
	ranked, fallback := obsCanonicalRanked.Value(), obsCanonicalFallback.Value()
	return func() {
		if obsCanonicalRanked.Value() == ranked || obsCanonicalFallback.Value() == fallback {
			t.Errorf("canonical barriers: %v ranked, %v fallback; want both paths taken",
				obsCanonicalRanked.Value()-ranked, obsCanonicalFallback.Value()-fallback)
		}
	}
}

// checkJoinStrategies re-evaluates q with the planner's join choice
// forced to each strategy in turn — index nested loop and hash join —
// and asserts the solution multiset still matches the oracle (or, for
// ASK, the oracle's boolean). The cost model may only change how a join
// runs, never what it returns — this pins that for every generated
// query, including the OPTIONAL/UNION/GRAPH shapes whose probe rows can
// leave pattern variables unbound.
func checkJoinStrategies(t *testing.T, ds *rdf.Dataset, q *Query, seed int64, askWant bool, oracle map[string]int) {
	t.Helper()
	strategies := []struct {
		name string
		join int32
	}{
		{"nested", joinForceNested},
		{"hash", joinForceHash},
	}
	for _, st := range strategies {
		name := st.name
		res, err := evalJoin(ds, q, st.join)
		if err != nil {
			t.Fatalf("seed %d: %s-join Eval err = %v (auto succeeded)", seed, name, err)
		}
		if q.Form == FormAsk {
			if res.Bool != askWant {
				t.Fatalf("seed %d: %s-join ASK=%v oracle=%v\nquery: %s", seed, name, res.Bool, askWant, q)
			}
			continue
		}
		m := multiset(res.Vars, res.Solutions())
		if len(m) != len(oracle) {
			t.Fatalf("seed %d: %s-join %d distinct rows vs oracle %d\nquery: %s\ndata:\n%sdiff:\n%s",
				seed, name, len(m), len(oracle), q, datasetDump(ds), diffMultisets(m, oracle))
		}
		for k, n := range m {
			if oracle[k] != n {
				t.Fatalf("seed %d: %s-join multiset mismatch\nquery: %s\ndata:\n%sdiff:\n%s",
					seed, name, q, datasetDump(ds), diffMultisets(m, oracle))
			}
		}
	}
}

// checkCursor re-evaluates q through the streaming API and pins it
// against the already-verified materialized result: a full drain via
// Solutions must reproduce the oracle multiset, and — when ORDER BY is
// absent, so the canonical order is total — a partial drain (read k
// rows, stop) must equal the prefix of the full read.
func checkCursor(t *testing.T, ds *rdf.Dataset, q *Query, seed int64, full *Result, oracle map[string]int) {
	t.Helper()
	ctx := context.Background()

	cur, err := EvalCursor(ds, q)
	if err != nil {
		t.Fatalf("seed %d: EvalCursor err = %v (Eval succeeded)", seed, err)
	}
	var sols []Binding
	for b := range cur.Solutions(ctx) {
		sols = append(sols, b)
	}
	if cur.Err() != nil {
		t.Fatalf("seed %d: cursor Err = %v", seed, cur.Err())
	}
	if mc := multiset(cur.Vars(), sols); len(mc) != len(oracle) {
		t.Fatalf("seed %d: cursor drain %d distinct rows vs oracle %d\nquery: %s", seed, len(mc), len(oracle), q)
	} else {
		for k, n := range mc {
			if oracle[k] != n {
				t.Fatalf("seed %d: cursor multiset mismatch\nquery: %s\ndiff:\n%s",
					seed, q, diffMultisets(mc, oracle))
			}
		}
	}

	if len(q.OrderBy) > 0 {
		// ORDER BY keys may tie distinct rows, so prefixes are
		// legitimately run-dependent; only the multiset is pinned above.
		return
	}
	k := full.Len() / 2
	if k == 0 {
		return
	}
	pc, err := EvalCursor(ds, q)
	if err != nil {
		t.Fatalf("seed %d: EvalCursor err = %v", seed, err)
	}
	defer pc.Close()
	for i := 0; i < k; i++ {
		if !pc.Next(ctx) {
			t.Fatalf("seed %d: paged cursor exhausted at row %d of %d: %v", seed, i, k, pc.Err())
		}
		row := pc.Row()
		for col := range pc.Vars() {
			ct, cok := row.Term(col)
			ft, fok := full.TermAt(i, col)
			if cok != fok || ct != ft {
				t.Fatalf("seed %d: paged read row %d col %d = (%v,%v), full read = (%v,%v)\nquery: %s",
					seed, i, col, ct, cok, ft, fok, q)
			}
		}
	}
}

// TestSpecRandomizedEquivalence is the oracle harness: specPairs
// generated query/graph pairs, each evaluated by both engines in every
// term-order state.
func TestSpecRandomizedEquivalence(t *testing.T) {
	defer requireBothCanonicalPaths(t)()
	for seed := int64(0); seed < specPairs; seed++ {
		r := rand.New(rand.NewSource(seed))
		ds := genDataset(r)
		q := genQuery(r, ds)
		checkDictStates(t, ds, q, seed)
	}
}

// --- deterministic edge cases the generator should also hit ---

func edgeDataset() *rdf.Dataset {
	ds := rdf.NewDataset()
	def := ds.Default()
	ex := func(s string) rdf.Term { return rdf.IRI("http://ex.org/" + s) }
	def.MustAdd(rdf.T(ex("s0"), ex("p0"), rdf.IntLit(1)))
	def.MustAdd(rdf.T(ex("s1"), ex("p0"), rdf.IntLit(2)))
	def.MustAdd(rdf.T(ex("s1"), ex("p1"), rdf.Lit("x")))
	return ds
}

func TestSpecEdgeCases(t *testing.T) {
	ds := edgeDataset()
	cases := []struct {
		name string
		src  string
		rows int
	}{
		{"empty BGP", `SELECT * WHERE { }`, 1},
		{"unbound var in projection", `PREFIX ex: <http://ex.org/> SELECT ?s ?nope WHERE { ?s ex:p0 ?v }`, 2},
		{"unbound var in ORDER BY", `PREFIX ex: <http://ex.org/> SELECT ?s WHERE { ?s ex:p0 ?v } ORDER BY ?nope ?s`, 2},
		{"OPTIONAL binds no rows", `PREFIX ex: <http://ex.org/> SELECT ?s ?w WHERE { ?s ex:p0 ?v OPTIONAL { ?s ex:p9 ?w } }`, 2},
		{"OPTIONAL binds some rows", `PREFIX ex: <http://ex.org/> SELECT ?s ?w WHERE { ?s ex:p0 ?v OPTIONAL { ?s ex:p1 ?w } }`, 2},
		{"UNION branch variable disjointness", `PREFIX ex: <http://ex.org/> SELECT * WHERE { { ?a ex:p0 ?b } UNION { ?c ex:p1 ?d } }`, 3},
		{"OFFSET beyond result size", `PREFIX ex: <http://ex.org/> SELECT ?s WHERE { ?s ex:p0 ?v } OFFSET 10`, 0},
		{"LIMIT beyond result size", `PREFIX ex: <http://ex.org/> SELECT ?s WHERE { ?s ex:p0 ?v } LIMIT 99`, 2},
		{"LIMIT zero", `PREFIX ex: <http://ex.org/> SELECT ?s WHERE { ?s ex:p0 ?v } LIMIT 0`, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			q := MustParse(tc.src)
			res, err := Eval(ds, q)
			if err != nil {
				t.Fatal(err)
			}
			if res.Len() != tc.rows {
				t.Fatalf("rows = %d, want %d\n%s", res.Len(), tc.rows, res.Table())
			}
			checkEquivalence(t, ds, q, -1)
		})
	}

	// Unbound projected variables must be absent from decoded bindings
	// and render as empty table cells, not as the zero Term's value.
	res, err := Run(ds, `PREFIX ex: <http://ex.org/> SELECT ?s ?w WHERE { ?s ex:p0 ?v OPTIONAL { ?s ex:p1 ?w } } ORDER BY ?s`)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.Solutions()[0]["w"]; ok {
		t.Errorf("unbound ?w present in binding: %v", res.Solutions()[0])
	}
	if _, ok := res.Term(0, "w"); ok {
		t.Errorf("Term reported unbound ?w as bound")
	}
	lines := strings.Split(strings.TrimRight(res.Table(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("table lines = %d\n%s", len(lines), res.Table())
	}
	if strings.Contains(lines[1], "<") || !strings.Contains(lines[2], "x") {
		t.Errorf("unexpected table rendering:\n%s", res.Table())
	}
}

// --- property path / aggregation harness ---
//
// The same oracle discipline extended over the PR's new surface: path
// patterns mixed into BGPs, and GROUP BY/aggregate/HAVING tails. Every
// generated query flows through the full checkEquivalence stack —
// materialized Eval vs refEval, cursor drain, paged-prefix reads, and
// both forced join strategies.

// genPath draws a random path AST over the shared predicate vocabulary;
// depth bounds nesting so closures of sequences and inverted groups all
// appear without blowing up the naive oracle.
func genPath(r *rand.Rand, depth int) *Path {
	if depth <= 0 || r.Intn(10) < 4 {
		return Link(pick(r, specPreds))
	}
	switch r.Intn(6) {
	case 0:
		return &Path{Kind: PathSeq, L: genPath(r, depth-1), R: genPath(r, depth-1)}
	case 1:
		return &Path{Kind: PathAlt, L: genPath(r, depth-1), R: genPath(r, depth-1)}
	case 2:
		return &Path{Kind: PathInv, Sub: genPath(r, depth-1)}
	case 3:
		return &Path{Kind: PathPlus, Sub: genPath(r, depth-1)}
	case 4:
		return &Path{Kind: PathStar, Sub: genPath(r, depth-1)}
	default:
		return &Path{Kind: PathOpt, Sub: genPath(r, depth-1)}
	}
}

// pathPattern anchors path endpoints on a stored triple the way
// triplePattern does; the path itself is random, so anchoring is a bias
// towards populated results, not a guarantee.
func (g *specGen) pathPattern(ts []rdf.Triple) PathPattern {
	p := genPath(g.r, 2)
	if len(ts) == 0 || g.r.Intn(10) >= 8 {
		return PathPattern{S: genNode(g.r, 0), Path: p, O: genNode(g.r, 2)}
	}
	t := pick(g.r, ts)
	return PathPattern{S: g.node(t.S, 7), Path: p, O: g.node(t.O, 6)}
}

// genPathAggQuery generates a query with path patterns, an aggregation
// tail, or both, per the flags.
func genPathAggQuery(r *rand.Rand, ds *rdf.Dataset, withPath, withAgg bool) *Query {
	g := &specGen{r: r, ds: ds, env: map[string]rdf.Term{}}
	ts := g.triplesFor(rdf.Term{})
	q := &Query{Limit: -1, Where: &Group{}}
	nPath := 0
	for i, n := 0, 1+r.Intn(3); i < n; i++ {
		if withPath && (r.Intn(2) == 0 || (i == n-1 && nPath == 0)) {
			q.Where.Patterns = append(q.Where.Patterns, g.pathPattern(ts))
			nPath++
		} else {
			q.Where.Patterns = append(q.Where.Patterns, g.triplePattern(ts))
		}
	}
	if r.Intn(10) < 3 {
		q.Where.Filters = append(q.Where.Filters, genFilter(r, 2))
	}

	if !withAgg {
		if r.Intn(8) == 0 {
			q.Form = FormAsk
			return q
		}
		q.Distinct = r.Intn(10) < 3
		if r.Intn(10) < 3 {
			q.Star = true
		} else {
			seen := map[string]bool{}
			for i, n := 0, 1+r.Intn(3); i < n; i++ {
				if v := pick(r, specVars); !seen[v] {
					seen[v] = true
					q.Variables = append(q.Variables, v)
				}
			}
		}
		switch r.Intn(10) {
		case 0, 1, 2, 3:
			for i, n := 0, 1+r.Intn(2); i < n; i++ {
				q.OrderBy = append(q.OrderBy, OrderKey{Var: pick(r, specVars), Desc: r.Intn(2) == 0})
			}
		case 4, 5:
			if r.Intn(2) == 0 {
				q.Limit = r.Intn(12)
			}
			if r.Intn(2) == 0 {
				q.Offset = r.Intn(8)
			}
		}
		return q
	}

	// Aggregation tail: GROUP BY over 0-2 vars (possibly vars the WHERE
	// never binds: a single all-unbound group), 1-2 aggregates, HAVING
	// over an alias sometimes, projection = group vars + aliases.
	seen := map[string]bool{}
	for i, n := 0, r.Intn(3); i < n; i++ {
		if v := pick(r, specVars); !seen[v] {
			seen[v] = true
			q.GroupBy = append(q.GroupBy, v)
		}
	}
	for i, n := 0, 1+r.Intn(2); i < n; i++ {
		a := Aggregate{Func: AggFunc(r.Intn(4)), As: fmt.Sprintf("n%d", i)}
		if a.Func != AggCount || r.Intn(3) > 0 {
			a.Var = pick(r, specVars) // else COUNT(*)
			a.Distinct = r.Intn(3) == 0
		}
		q.Aggregates = append(q.Aggregates, a)
	}
	q.Variables = append(append([]string{}, q.GroupBy...), aggAliases(q)...)
	if r.Intn(10) < 3 {
		op := pick(r, []string{"=", "!=", "<", "<=", ">", ">="})
		q.Having = append(q.Having, CmpExpr{
			Op: op,
			L:  VarExpr{Name: pick(r, aggAliases(q))},
			R:  ConstExpr{Term: rdf.IntLit(int64(r.Intn(4)))},
		})
	}
	switch r.Intn(10) {
	case 0, 1, 2:
		q.OrderBy = append(q.OrderBy, OrderKey{Var: pick(r, q.Variables), Desc: r.Intn(2) == 0})
	case 3, 4:
		if r.Intn(2) == 0 {
			q.Limit = r.Intn(6)
		}
		if r.Intn(2) == 0 {
			q.Offset = r.Intn(4)
		}
	}
	return q
}

func aggAliases(q *Query) []string {
	out := make([]string, len(q.Aggregates))
	for i, a := range q.Aggregates {
		out[i] = a.As
	}
	return out
}

// TestSpecPathAggregateEquivalence drives specPairs additional seeds
// through the path/aggregate generator, cycling path-only, aggregate-
// only, and combined shapes, each in every term-order state.
func TestSpecPathAggregateEquivalence(t *testing.T) {
	defer requireBothCanonicalPaths(t)()
	for seed := int64(0); seed < specPairs; seed++ {
		r := rand.New(rand.NewSource(1_000_000 + seed))
		ds := genDataset(r)
		q := genPathAggQuery(r, ds, seed%3 != 1, seed%3 != 0)
		checkDictStates(t, ds, q, seed)
	}
}

// --- mutation checks ---
//
// Each test first proves the fixture passes cleanly, then injects one
// seeded operator bug and asserts the oracle harness catches it — the
// harness is itself under test here.

// assertMutationCaught evaluates q with the given mutation active and
// fails unless the engine now diverges from the oracle (an evaluation
// error also counts as caught).
func assertMutationCaught(t *testing.T, ds *rdf.Dataset, q *Query, m int32) {
	t.Helper()
	mutation = m
	defer func() { mutation = mutNone }()
	got, err := Eval(ds, q)
	if err != nil {
		return
	}
	want, werr := refEval(ds, q)
	if werr != nil {
		t.Fatalf("oracle err = %v", werr)
	}
	me, mo := multiset(got.Vars, got.Solutions()), multiset(want.Vars, want.Sols)
	if len(me) == len(mo) {
		same := true
		for k, n := range me {
			if mo[k] != n {
				same = false
				break
			}
		}
		if same {
			t.Fatalf("mutation %d not caught: engine still matches oracle\nquery: %s\nresult:\n%s", m, q, got.Table())
		}
	}
}

func TestSpecMutationPathDupEmit(t *testing.T) {
	// Diamond: two routes from a to d. Dropping the fixpoint's emission
	// dedup yields d twice.
	ds := rdf.NewDataset()
	ex := func(s string) rdf.Term { return rdf.IRI("http://ex.org/" + s) }
	for _, e := range [][2]string{{"a", "b"}, {"a", "c"}, {"b", "d"}, {"c", "d"}} {
		ds.Default().MustAdd(rdf.T(ex(e[0]), ex("p"), ex(e[1])))
	}
	q := MustParse(`PREFIX ex: <http://ex.org/> SELECT ?x WHERE { ex:a ex:p+ ?x }`)
	checkEquivalence(t, ds, q, -1)
	assertMutationCaught(t, ds, q, mutPathDupEmit)
}

func TestSpecMutationGroupKeyNarrow(t *testing.T) {
	// More than 256 distinct group keys: truncating IDs to their low
	// byte must collide at least two groups (pigeonhole).
	ds := rdf.NewDataset()
	ex := func(s string) rdf.Term { return rdf.IRI("http://ex.org/" + s) }
	for i := 0; i < 300; i++ {
		ds.Default().MustAdd(rdf.T(ex(fmt.Sprintf("s%d", i)), ex("p"), rdf.IntLit(int64(i))))
	}
	q := MustParse(`PREFIX ex: <http://ex.org/> SELECT ?v (COUNT(*) AS ?n) WHERE { ?s ex:p ?v } GROUP BY ?v`)
	checkEquivalence(t, ds, q, -1)
	assertMutationCaught(t, ds, q, mutGroupKeyNarrow)
}

func TestSpecMutationHavingPreAgg(t *testing.T) {
	// HAVING ?n > 1 filters groups; applied before aggregation the alias
	// is unbound on every input row (effective false), so all rows — and
	// with them the qualifying group — vanish.
	ds := rdf.NewDataset()
	ex := func(s string) rdf.Term { return rdf.IRI("http://ex.org/" + s) }
	ds.Default().MustAdd(rdf.T(ex("a"), ex("p"), ex("x")))
	ds.Default().MustAdd(rdf.T(ex("a"), ex("p"), ex("y")))
	ds.Default().MustAdd(rdf.T(ex("b"), ex("p"), ex("z")))
	q := MustParse(`PREFIX ex: <http://ex.org/> SELECT ?s (COUNT(*) AS ?n) WHERE { ?s ex:p ?o } GROUP BY ?s HAVING (?n > 1)`)
	checkEquivalence(t, ds, q, -1)
	assertMutationCaught(t, ds, q, mutHavingPreAgg)
}
