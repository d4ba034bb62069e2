package sparql

import (
	"math/rand"
	"testing"

	"mdm/internal/rdf"
)

// footballDataset builds a small dataset mirroring the paper's
// motivational use case.
func footballDataset(t *testing.T) *rdf.Dataset {
	t.Helper()
	src := `
@prefix ex: <http://ex.org/> .
@prefix sc: <http://schema.org/> .

ex:messi a ex:Player ; ex:name "Lionel Messi" ; ex:height 170.18 ; ex:team ex:fcb .
ex:lewa a ex:Player ; ex:name "Robert Lewandowski" ; ex:height 184.0 ; ex:team ex:bay .
ex:zlatan a ex:Player ; ex:name "Zlatan Ibrahimovic" ; ex:height 195.0 ; ex:team ex:mu .
ex:coach a ex:Coach ; ex:name "Pep Guardiola" .

ex:fcb a sc:SportsTeam ; ex:name "FC Barcelona" .
ex:bay a sc:SportsTeam ; ex:name "Bayern Munich" .
ex:mu a sc:SportsTeam ; ex:name "Manchester United" .

ex:g1 { ex:messi ex:active true . }
ex:g2 { ex:lewa ex:active true . }
`
	ds, err := ParseTriG(src)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func run(t *testing.T, ds *rdf.Dataset, q string) *Result {
	t.Helper()
	res, err := Run(ds, q)
	if err != nil {
		t.Fatalf("query failed: %v\n%s", err, q)
	}
	return res
}

func TestEvalBGPJoin(t *testing.T) {
	ds := footballDataset(t)
	res := run(t, ds, `
PREFIX ex: <http://ex.org/>
PREFIX sc: <http://schema.org/>
SELECT ?playerName ?teamName WHERE {
  ?p a ex:Player .
  ?p ex:name ?playerName .
  ?p ex:team ?t .
  ?t a sc:SportsTeam .
  ?t ex:name ?teamName .
} ORDER BY ?playerName`)
	if res.Len() != 3 {
		t.Fatalf("solutions = %d, want 3\n%s", res.Len(), res.Table())
	}
	first := res.Solutions()[0]
	if first["playerName"].Value != "Lionel Messi" || first["teamName"].Value != "FC Barcelona" {
		t.Errorf("first row = %v", first)
	}
}

func TestEvalSharedVariableSemantics(t *testing.T) {
	ds := rdf.NewDataset()
	g := ds.Default()
	g.MustAdd(rdf.T(rdf.IRI("a"), rdf.IRI("p"), rdf.IRI("a"))) // self loop
	g.MustAdd(rdf.T(rdf.IRI("a"), rdf.IRI("p"), rdf.IRI("b")))
	res := run(t, ds, `SELECT ?x WHERE { ?x <p> ?x . }`)
	if res.Len() != 1 || res.Solutions()[0]["x"].Value != "a" {
		t.Errorf("shared-var solutions = %v", res.Solutions())
	}
}

func TestEvalFilterNumeric(t *testing.T) {
	ds := footballDataset(t)
	res := run(t, ds, `
PREFIX ex: <http://ex.org/>
SELECT ?n WHERE { ?p ex:name ?n . ?p ex:height ?h . FILTER (?h > 180) } ORDER BY ?n`)
	if res.Len() != 2 {
		t.Fatalf("solutions = %d\n%s", res.Len(), res.Table())
	}
	if res.Solutions()[0]["n"].Value != "Robert Lewandowski" {
		t.Errorf("row0 = %v", res.Solutions()[0])
	}
}

func TestEvalFilterStringAndLogic(t *testing.T) {
	ds := footballDataset(t)
	res := run(t, ds, `
PREFIX ex: <http://ex.org/>
SELECT ?n WHERE {
  ?p ex:name ?n .
  FILTER (?n = "Pep Guardiola" || REGEX(?n, "^Lionel"))
} ORDER BY ?n`)
	if res.Len() != 2 {
		t.Fatalf("solutions = %d\n%s", res.Len(), res.Table())
	}
}

func TestEvalFilterErrorIsFalse(t *testing.T) {
	ds := footballDataset(t)
	// ?h unbound for the coach; comparison errors must drop the row, not
	// abort the query.
	res := run(t, ds, `
PREFIX ex: <http://ex.org/>
SELECT ?n WHERE { ?p ex:name ?n . OPTIONAL { ?p ex:height ?h . } FILTER (?h > 0) }`)
	if res.Len() != 3 {
		t.Fatalf("solutions = %d, want 3 players (coach filtered)", res.Len())
	}
}

func TestEvalOptionalLeftJoin(t *testing.T) {
	ds := footballDataset(t)
	// 3 players + 1 coach + 3 teams all have ex:name; only players have
	// height, so the left join must keep 7 rows, 4 of them unextended.
	res := run(t, ds, `
PREFIX ex: <http://ex.org/>
SELECT ?n ?h WHERE { ?p ex:name ?n . OPTIONAL { ?p ex:height ?h . } } ORDER BY ?n`)
	if res.Len() != 7 {
		t.Fatalf("solutions = %d, want 7", res.Len())
	}
	// Coach row must exist with unbound ?h.
	var coachSeen bool
	for _, s := range res.Solutions() {
		if s["n"].Value == "Pep Guardiola" {
			coachSeen = true
			if _, bound := s["h"]; bound {
				t.Error("coach height should be unbound")
			}
		}
	}
	if !coachSeen {
		t.Error("left join dropped the coach")
	}
}

func TestEvalBoundFilter(t *testing.T) {
	ds := footballDataset(t)
	// Height is unbound for the coach and the three teams.
	res := run(t, ds, `
PREFIX ex: <http://ex.org/>
SELECT ?n WHERE { ?p ex:name ?n . OPTIONAL { ?p ex:height ?h . } FILTER (!BOUND(?h)) } ORDER BY ?n`)
	if res.Len() != 4 {
		t.Fatalf("!BOUND result = %v", res.Solutions())
	}
	var coachSeen bool
	for _, s := range res.Solutions() {
		if s["n"].Value == "Pep Guardiola" {
			coachSeen = true
		}
		if s["n"].Value == "Lionel Messi" {
			t.Error("player with height passed !BOUND filter")
		}
	}
	if !coachSeen {
		t.Error("coach missing from !BOUND result")
	}
}

func TestEvalUnion(t *testing.T) {
	ds := footballDataset(t)
	res := run(t, ds, `
PREFIX ex: <http://ex.org/>
SELECT ?n WHERE {
  { ?p a ex:Player . ?p ex:name ?n . } UNION { ?p a ex:Coach . ?p ex:name ?n . }
}`)
	if res.Len() != 4 {
		t.Fatalf("union solutions = %d, want 4", res.Len())
	}
}

func TestEvalNamedGraphIRI(t *testing.T) {
	ds := footballDataset(t)
	res := run(t, ds, `
PREFIX ex: <http://ex.org/>
SELECT ?p WHERE { GRAPH ex:g1 { ?p ex:active true . } }`)
	if res.Len() != 1 || res.Solutions()[0]["p"].Value != "http://ex.org/messi" {
		t.Errorf("GRAPH iri = %v", res.Solutions())
	}
	// Missing graph yields empty, not error.
	res = run(t, ds, `PREFIX ex: <http://ex.org/>
SELECT ?p WHERE { GRAPH ex:nope { ?p ex:active true . } }`)
	if res.Len() != 0 {
		t.Errorf("missing graph should be empty, got %v", res.Solutions())
	}
}

func TestEvalNamedGraphVariable(t *testing.T) {
	ds := footballDataset(t)
	res := run(t, ds, `
PREFIX ex: <http://ex.org/>
SELECT ?g ?p WHERE { GRAPH ?g { ?p ex:active true . } } ORDER BY ?g`)
	if res.Len() != 2 {
		t.Fatalf("graph-var solutions = %d", res.Len())
	}
	if res.Solutions()[0]["g"].Value != "http://ex.org/g1" {
		t.Errorf("row0 = %v", res.Solutions()[0])
	}
	// Default graph triples must NOT leak into GRAPH ?g.
	res = run(t, ds, `PREFIX ex: <http://ex.org/>
SELECT ?g WHERE { GRAPH ?g { ?p ex:name ?n . } }`)
	if res.Len() != 0 {
		t.Errorf("default graph leaked into GRAPH ?g: %v", res.Solutions())
	}
}

func TestEvalDistinctAndLimitOffset(t *testing.T) {
	ds := footballDataset(t)
	res := run(t, ds, `
PREFIX ex: <http://ex.org/>
PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
SELECT DISTINCT ?type WHERE { ?x rdf:type ?type . } ORDER BY ?type`)
	if res.Len() != 3 { // Player, Coach, SportsTeam
		t.Fatalf("distinct types = %d\n%s", res.Len(), res.Table())
	}
	res = run(t, ds, `
PREFIX ex: <http://ex.org/>
SELECT ?n WHERE { ?p a ex:Player . ?p ex:name ?n . } ORDER BY ?n LIMIT 1 OFFSET 1`)
	if res.Len() != 1 || res.Solutions()[0]["n"].Value != "Robert Lewandowski" {
		t.Errorf("limit/offset = %v", res.Solutions())
	}
	// Offset beyond result set.
	res = run(t, ds, `
PREFIX ex: <http://ex.org/>
SELECT ?n WHERE { ?p a ex:Player . ?p ex:name ?n . } OFFSET 99`)
	if res.Len() != 0 {
		t.Errorf("offset beyond end = %v", res.Solutions())
	}
}

func TestEvalOrderByNumericAndDesc(t *testing.T) {
	ds := footballDataset(t)
	res := run(t, ds, `
PREFIX ex: <http://ex.org/>
SELECT ?n ?h WHERE { ?p ex:name ?n . ?p ex:height ?h . } ORDER BY DESC(?h)`)
	if res.Solutions()[0]["n"].Value != "Zlatan Ibrahimovic" {
		t.Errorf("DESC order wrong: %s", res.Table())
	}
	// Numeric, not lexicographic: 170.18 < 184.0 even though "170..." < "184" lexically too;
	// use a case that differs: add 95.5 player.
	ds.Default().MustAdd(rdf.T(rdf.IRI("http://ex.org/kid"), rdf.IRI("http://ex.org/name"), rdf.Lit("Kid")))
	ds.Default().MustAdd(rdf.T(rdf.IRI("http://ex.org/kid"), rdf.IRI("http://ex.org/height"), rdf.TypedLit("95.5", rdf.XSDDouble)))
	res = run(t, ds, `
PREFIX ex: <http://ex.org/>
SELECT ?n WHERE { ?p ex:name ?n . ?p ex:height ?h . } ORDER BY ?h LIMIT 1`)
	if res.Solutions()[0]["n"].Value != "Kid" {
		t.Errorf("numeric order wrong: %s", res.Table())
	}
}

func TestEvalAsk(t *testing.T) {
	ds := footballDataset(t)
	res := run(t, ds, `PREFIX ex: <http://ex.org/>
ASK { ?p ex:name "Lionel Messi" . }`)
	if res.Form != FormAsk || !res.Bool {
		t.Errorf("ASK true case = %+v", res)
	}
	res = run(t, ds, `PREFIX ex: <http://ex.org/>
ASK { ?p ex:name "Nobody" . }`)
	if res.Bool {
		t.Error("ASK false case returned true")
	}
}

func TestEvalSelectStarProjection(t *testing.T) {
	ds := footballDataset(t)
	res := run(t, ds, `PREFIX ex: <http://ex.org/>
SELECT * WHERE { ?p ex:team ?t . }`)
	if len(res.Vars) != 2 || res.Vars[0] != "p" || res.Vars[1] != "t" {
		t.Errorf("star vars = %v", res.Vars)
	}
	if res.Len() != 3 {
		t.Errorf("star solutions = %d", res.Len())
	}
}

func TestEvalCrossProductWhenDisconnected(t *testing.T) {
	ds := rdf.NewDataset()
	g := ds.Default()
	g.MustAdd(rdf.T(rdf.IRI("a1"), rdf.IRI("p"), rdf.Lit("1")))
	g.MustAdd(rdf.T(rdf.IRI("a2"), rdf.IRI("p"), rdf.Lit("2")))
	g.MustAdd(rdf.T(rdf.IRI("b1"), rdf.IRI("q"), rdf.Lit("x")))
	res := run(t, ds, `SELECT * WHERE { ?a <p> ?v . ?b <q> ?w . }`)
	if res.Len() != 2 {
		t.Errorf("cross product = %d rows, want 2", res.Len())
	}
}

func TestEvalTableRendering(t *testing.T) {
	ds := footballDataset(t)
	res := run(t, ds, `PREFIX ex: <http://ex.org/>
SELECT ?n WHERE { ?p a ex:Player . ?p ex:name ?n . } ORDER BY ?n`)
	tab := res.Table()
	if !contains(tab, "?n") || !contains(tab, "Lionel Messi") {
		t.Errorf("table rendering:\n%s", tab)
	}
	ask := run(t, ds, `ASK { ?s ?p ?o . }`)
	if !contains(ask.Table(), "ASK -> true") {
		t.Errorf("ask table: %s", ask.Table())
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 ||
		(func() bool { return indexOf(s, sub) >= 0 })())
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

func TestEvalEmptyGroupYieldsOneEmptySolution(t *testing.T) {
	ds := rdf.NewDataset()
	res := run(t, ds, `ASK { }`)
	if !res.Bool {
		t.Error("ASK {} should be true (one empty solution)")
	}
}

func TestRunParseErrorPropagates(t *testing.T) {
	if _, err := Run(rdf.NewDataset(), `SELECT`); err == nil {
		t.Error("parse error not propagated")
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParse should panic on bad input")
		}
	}()
	MustParse("not sparql")
}

// TestPropSinglePatternMatchesGraphMatch: evaluating a single triple
// pattern must agree with the store's Match results for every pattern
// shape over random data.
func TestPropSinglePatternMatchesGraphMatch(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	ds := rdf.NewDataset()
	g := ds.Default()
	subjects := []rdf.Term{rdf.IRI("s1"), rdf.IRI("s2"), rdf.IRI("s3")}
	preds := []rdf.Term{rdf.IRI("p1"), rdf.IRI("p2")}
	objects := []rdf.Term{rdf.Lit("a"), rdf.Lit("b"), rdf.IntLit(1), rdf.IRI("o1")}
	for i := 0; i < 60; i++ {
		g.MustAdd(rdf.T(
			subjects[rng.Intn(len(subjects))],
			preds[rng.Intn(len(preds))],
			objects[rng.Intn(len(objects))]))
	}
	// All 8 pattern shapes via optional binding of s/p/o.
	for mask := 0; mask < 8; mask++ {
		s, p, o := rdf.Any, rdf.Any, rdf.Any
		var parts [3]string
		parts[0], parts[1], parts[2] = "?s", "?p", "?o"
		if mask&1 != 0 {
			s = subjects[0]
			parts[0] = "<s1>"
		}
		if mask&2 != 0 {
			p = preds[0]
			parts[1] = "<p1>"
		}
		if mask&4 != 0 {
			o = objects[0]
			parts[2] = `"a"`
		}
		q := "SELECT * WHERE { " + parts[0] + " " + parts[1] + " " + parts[2] + " . }"
		res, err := Run(ds, q)
		if err != nil {
			t.Fatalf("mask %d: %v", mask, err)
		}
		want := g.Count(s, p, o)
		if res.Len() != want {
			t.Errorf("mask %d: eval %d rows, store %d", mask, res.Len(), want)
		}
	}
}

// TestBGPReorderProducesIdenticalSolutions evaluates the same BGP under
// every textual pattern permutation and checks the solution multisets
// coincide — selectivity reordering must never change semantics.
func TestBGPReorderProducesIdenticalSolutions(t *testing.T) {
	ds := footballDataset(t)
	patterns := []string{
		"?p ex:name ?playerName .",
		"?p a ex:Player .",
		"?p ex:team ?t .",
		"?t ex:name ?teamName .",
	}
	canon := func(res *Result) map[string]int {
		out := map[string]int{}
		for _, s := range res.Solutions() {
			key := ""
			for _, v := range []string{"p", "playerName", "t", "teamName"} {
				if tm, ok := s[v]; ok {
					key += tm.String()
				}
				key += "|"
			}
			out[key]++
		}
		return out
	}
	perms := [][]int{{0, 1, 2, 3}, {3, 2, 1, 0}, {1, 3, 0, 2}, {2, 0, 3, 1}}
	var want map[string]int
	for i, perm := range perms {
		body := ""
		for _, pi := range perm {
			body += patterns[pi] + "\n"
		}
		res := run(t, ds, "PREFIX ex: <http://ex.org/>\nSELECT * WHERE {\n"+body+"}")
		if res.Len() != 3 {
			t.Fatalf("perm %v: %d solutions, want 3", perm, res.Len())
		}
		got := canon(res)
		if i == 0 {
			want = got
			continue
		}
		if len(got) != len(want) {
			t.Fatalf("perm %v: solution multiset differs", perm)
		}
		for k, n := range want {
			if got[k] != n {
				t.Errorf("perm %v: solution %q count = %d, want %d", perm, k, got[k], n)
			}
		}
	}
}

// TestEvalRepeatedProjectionVarDoesNotLeak: SELECT ?x ?x must not reuse
// the raw solution map (which would expose non-projected variables).
func TestEvalRepeatedProjectionVarDoesNotLeak(t *testing.T) {
	ds := rdf.NewDataset()
	ds.Default().MustAdd(rdf.T(rdf.IRI("s"), rdf.IRI("p"), rdf.IRI("o")))
	res := run(t, ds, `SELECT ?x ?x WHERE { ?x <p> ?y . }`)
	if res.Len() != 1 {
		t.Fatalf("solutions = %d", res.Len())
	}
	if _, leaked := res.Solutions()[0]["y"]; leaked {
		t.Errorf("non-projected var leaked into solution: %v", res.Solutions()[0])
	}
	if res.Solutions()[0]["x"] != rdf.IRI("s") {
		t.Errorf("projected var = %v", res.Solutions()[0])
	}
}

// TestEvalLimitOffsetStableWithoutOrderBy: pagination without ORDER BY
// must be repeatable and non-overlapping across evaluations even though
// BGP iteration order is unspecified.
func TestEvalLimitOffsetStableWithoutOrderBy(t *testing.T) {
	ds := footballDataset(t)
	q := `PREFIX ex: <http://ex.org/> SELECT ?n WHERE { ?p ex:name ?n . } LIMIT 3`
	first := run(t, ds, q)
	seen := map[string]bool{}
	for _, s := range first.Solutions() {
		seen[s["n"].Value] = true
	}
	for i := 0; i < 5; i++ {
		again := run(t, ds, q)
		if again.Len() != 3 {
			t.Fatalf("run %d: %d rows", i, again.Len())
		}
		for j, s := range again.Solutions() {
			if s["n"] != first.Solutions()[j]["n"] {
				t.Fatalf("run %d: row %d = %v, want %v", i, j, s["n"], first.Solutions()[j]["n"])
			}
		}
	}
	// Pages must partition the result set.
	rest := run(t, ds, `PREFIX ex: <http://ex.org/> SELECT ?n WHERE { ?p ex:name ?n . } OFFSET 3`)
	if rest.Len() != 4 {
		t.Fatalf("offset page rows = %d, want 4", rest.Len())
	}
	for _, s := range rest.Solutions() {
		if seen[s["n"].Value] {
			t.Errorf("row %v appeared on both pages", s["n"])
		}
	}
}

// TestOrderPatternsKeepsUnionPosition: reordering must not move triple
// patterns across a UNION boundary, where a branch FILTER could observe
// bindings it would not otherwise see.
func TestOrderPatternsKeepsUnionPosition(t *testing.T) {
	ds := footballDataset(t)
	g := ds.Default()
	ex := func(s string) rdf.Term { return rdf.IRI("http://ex.org/" + s) }
	u := Union{Branches: []*Group{{Patterns: []Pattern{TriplePattern{S: V("b"), P: N(ex("name")), O: V("m")}}}}}
	ps := []Pattern{
		TriplePattern{S: V("a"), P: N(ex("name")), O: V("n")}, // 7 matches
		u,
		TriplePattern{S: V("a"), P: N(rdf.IRI(rdf.RDFType)), O: N(ex("Coach"))}, // 1 match
	}
	got := orderPatterns(g, ps)
	if _, ok := got[1].(Union); !ok {
		t.Fatalf("UNION moved from its position: %v", got)
	}
	if _, ok := got[0].(TriplePattern); !ok {
		t.Fatalf("triple pattern missing before UNION: %v", got)
	}
}

// TestOrderTriplePrefixSelectivity checks the greedy planner puts the
// most selective pattern first and keeps the join connected.
func TestOrderTriplePrefixSelectivity(t *testing.T) {
	ds := footballDataset(t)
	g := ds.Default()
	ex := func(s string) rdf.Term { return rdf.IRI("http://ex.org/" + s) }
	// ex:name has 7 triples; (Any, rdf:type, ex:Coach) has 1;
	// ex:team has 3.
	ps := []Pattern{
		TriplePattern{S: V("p"), P: N(ex("name")), O: V("n")},
		TriplePattern{S: V("p"), P: N(rdf.IRI(rdf.RDFType)), O: N(ex("Coach"))},
		TriplePattern{S: V("p"), P: N(ex("team")), O: V("t")},
	}
	got := orderPatterns(g, ps)
	if len(got) != 3 {
		t.Fatalf("orderPatterns dropped patterns: %v", got)
	}
	first := got[0].(TriplePattern)
	if !first.P.Term.IsIRI() || first.P.Term != rdf.IRI(rdf.RDFType) {
		t.Errorf("most selective pattern not first: %v", got)
	}
	// Disconnected pattern must be deferred until the connected ones ran,
	// even though it is cheaper than ex:name.
	ps = []Pattern{
		TriplePattern{S: V("a"), P: N(ex("name")), O: V("n")},   // 7 matches, uses ?a
		TriplePattern{S: V("b"), P: N(ex("active")), O: V("w")}, // 0 matches in default graph, disconnected
		TriplePattern{S: V("a"), P: N(ex("height")), O: V("h")}, // 3 matches, joins ?a
	}
	got = orderPatterns(g, ps)
	mid := got[1].(TriplePattern)
	if mid.P.Term != ex("height") {
		t.Errorf("connected pattern should precede disconnected one: %v", got)
	}

	// OPTIONAL stays after the basic patterns.
	ps = []Pattern{
		Optional{Group: &Group{Patterns: []Pattern{TriplePattern{S: V("a"), P: N(ex("height")), O: V("h")}}}},
		TriplePattern{S: V("a"), P: N(ex("name")), O: V("n")},
	}
	got = orderPatterns(g, ps)
	if _, ok := got[0].(TriplePattern); !ok {
		t.Errorf("triple pattern should precede OPTIONAL: %v", got)
	}
	if _, ok := got[1].(Optional); !ok {
		t.Errorf("OPTIONAL should come last: %v", got)
	}
}

func TestLexerLessThanVsIRI(t *testing.T) {
	// '<' as comparison operator must not be mistaken for an IRI opener.
	ds := rdf.NewDataset()
	ds.Default().MustAdd(rdf.T(rdf.IRI("s"), rdf.IRI("p"), rdf.IntLit(5)))
	ds.Default().MustAdd(rdf.T(rdf.IRI("t"), rdf.IRI("p"), rdf.IntLit(50)))
	res := run(t, ds, `SELECT ?x WHERE { ?s <p> ?x . FILTER (?x < 10) }`)
	if res.Len() != 1 {
		t.Errorf("< operator solutions = %v", res.Solutions())
	}
	res = run(t, ds, `SELECT ?x WHERE { ?s <p> ?x . FILTER (?x <= 50) }`)
	if res.Len() != 2 {
		t.Errorf("<= operator solutions = %v", res.Solutions())
	}
	res = run(t, ds, `SELECT ?x WHERE { ?s <p> ?x . FILTER (10 < ?x) }`)
	if res.Len() != 1 {
		t.Errorf("literal-first < solutions = %v", res.Solutions())
	}
}
