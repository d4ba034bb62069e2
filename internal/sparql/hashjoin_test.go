package sparql

import (
	"context"
	"fmt"
	"testing"

	"mdm/internal/rdf"
)

// Deterministic coverage for the hash-join operator: build/probe edge
// cases the randomized spec harness may not hit every run, plus what a
// re-evaluated Query must see of a dataset that changed in between.

// evalJoin is Eval with the planner's join choice forced: the evaluator
// is built with it, so concurrent tests cannot see each other's mode.
func evalJoin(ds *rdf.Dataset, q *Query, join int32) (*Result, error) {
	c, err := evalCursor(ds, q, nil, join)
	if err != nil {
		return nil, err
	}
	return c.result(context.Background())
}

func hashJoinDataset() *rdf.Dataset {
	ds := rdf.NewDataset()
	g := ds.Default()
	ex := func(s string) rdf.Term { return rdf.IRI("http://ex.org/" + s) }
	// Duplicate join keys on both sides: two ?a rows share ?b=b0, and
	// b0 fans out to two ?c values.
	g.MustAdd(rdf.T(ex("a1"), ex("p0"), ex("b0")))
	g.MustAdd(rdf.T(ex("a2"), ex("p0"), ex("b0")))
	g.MustAdd(rdf.T(ex("a3"), ex("p0"), ex("b1")))
	g.MustAdd(rdf.T(ex("b0"), ex("p1"), ex("c1")))
	g.MustAdd(rdf.T(ex("b0"), ex("p1"), ex("c2")))
	// p2 is interned but never links to any ?b value: an empty join.
	g.MustAdd(rdf.T(ex("z"), ex("p2"), ex("z")))
	// pEmpty is interned (as an object) but no triple uses it as a
	// predicate: a pattern over it has an empty — not dead — match set.
	g.MustAdd(rdf.T(ex("meta"), ex("ref"), ex("pEmpty")))
	return ds
}

// assertStrategiesAgree evaluates src under forced-nested and
// forced-hash and asserts both produce the expected row count and the
// same solution multiset.
func assertStrategiesAgree(t *testing.T, ds *rdf.Dataset, src string, rows int) {
	t.Helper()
	q := MustParse(src)
	resN, err := evalJoin(ds, q, joinForceNested)
	if err != nil {
		t.Fatalf("nested Eval(%q): %v", src, err)
	}
	resH, err := evalJoin(ds, q, joinForceHash)
	if err != nil {
		t.Fatalf("hash Eval(%q): %v", src, err)
	}
	nested, hashed, vars := resN.Solutions(), resH.Solutions(), resN.Vars
	if len(nested) != rows || len(hashed) != rows {
		t.Fatalf("rows nested=%d hash=%d, want %d\nquery: %s", len(nested), len(hashed), rows, src)
	}
	mn, mh := multiset(vars, nested), multiset(vars, hashed)
	for k, n := range mn {
		if mh[k] != n {
			t.Fatalf("strategy multisets differ\nquery: %s\ndiff:\n%s", src, diffMultisets(mh, mn))
		}
	}
	if len(mn) != len(mh) {
		t.Fatalf("strategy multisets differ in distinct rows (%d vs %d)\nquery: %s", len(mh), len(mn), src)
	}
}

func TestHashJoinEdgeCases(t *testing.T) {
	ds := hashJoinDataset()
	pre := `PREFIX ex: <http://ex.org/> `
	cases := []struct {
		name string
		src  string
		rows int
	}{
		{"duplicate join keys both sides",
			pre + `SELECT ?a ?c WHERE { ?a ex:p0 ?b . ?b ex:p1 ?c }`, 4},
		{"empty build side",
			pre + `SELECT ?a ?c WHERE { ?a ex:p0 ?b . ?b ex:pEmpty ?c }`, 0},
		{"empty join (non-empty build, no key matches)",
			pre + `SELECT ?a ?c WHERE { ?a ex:p0 ?b . ?b ex:p2 ?c }`, 0},
		{"build side dead constant",
			pre + `SELECT ?a WHERE { ?a ex:p0 ?b . ?b ex:neverInterned ?c }`, 0},
		{"cartesian (no shared variable)",
			pre + `SELECT ?a ?z WHERE { ?a ex:p0 ?b . ?z ex:p2 ?z2 }`, 3},
		{"repeated variable on build side",
			pre + `SELECT ?z WHERE { ?z ex:p2 ?z }`, 1},
		{"probe rows from UNION bind the join var on one branch only",
			pre + `SELECT ?a ?b ?c WHERE { { ?a ex:p0 ?b } UNION { ?c ex:p1 ?x } . ?b ex:p1 ?y }`, 8},
		{"join var under OPTIONAL stays out of the key",
			pre + `SELECT ?a ?b ?c WHERE { ?a ex:p0 ?b OPTIONAL { ?b ex:p1 ?c } }`, 5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			assertStrategiesAgree(t, ds, tc.src, tc.rows)
			// And both must agree with the reference evaluator.
			q := MustParse(tc.src)
			checkEquivalence(t, ds, q, -2)
		})
	}
}

// TestHashJoinUnboundKeySlotFallsBack pins the operator-level fallback:
// when a probe row leaves a key slot unbound — the planner believed the
// variable bound, the runtime disagrees — the operator must scan the
// whole table and still produce exactly the nested-loop answer, binding
// the variable from the match.
func TestHashJoinUnboundKeySlotFallsBack(t *testing.T) {
	ds := hashJoinDataset()
	q := MustParse(`PREFIX ex: <http://ex.org/> SELECT ?s ?o WHERE { ?s ex:p0 ?o }`)
	lay := q.layout()
	e := &evaluator{ds: ds, dict: ds.Dict(), lay: lay, ctx: context.Background()}
	p := e.planTriple(TriplePattern{
		S: V("s"),
		P: N(rdf.IRI("http://ex.org/p0")),
		O: V("o"),
	}, ds.Default())
	p.hash = true
	p.keySlots = []int{lay.index["s"]} // keyed on ?s ...
	p.keyPos = []uint8{0}

	seed := e.newRow()
	for i := range seed {
		seed[i] = unboundID // ... but ?s is unbound in the probe row
	}
	it := &hashJoinIter{e: e, src: &onceIter{row: seed}, p: p, scratch: e.newRow(), chain: -1}
	got := 0
	for it.next() != nil {
		got++
	}
	if want := ds.Default().Count(rdf.Any, rdf.IRI("http://ex.org/p0"), rdf.Any); got != want {
		t.Fatalf("fallback emitted %d rows, want %d", got, want)
	}

	// A bound-but-absent key value must produce nothing via the hash path.
	seed2 := e.newRow()
	for i := range seed2 {
		seed2[i] = unboundID
	}
	zID, ok := ds.Dict().ID(rdf.IRI("http://ex.org/z"))
	if !ok {
		t.Fatal("z not interned")
	}
	seed2[lay.index["s"]] = zID
	it2 := &hashJoinIter{e: e, src: &onceIter{row: seed2}, p: p, scratch: e.newRow(), chain: -1}
	if r := it2.next(); r != nil {
		t.Fatalf("probe with absent key emitted a row: %v", r)
	}
}

// TestReevaluationSeesDatasetChanges pins what a parsed Query may keep
// between evaluations (its slot layout, no plan): a re-evaluation sees a
// constant that was dead become live once its term is interned, and a
// named graph appear and disappear.
func TestReevaluationSeesDatasetChanges(t *testing.T) {
	ds := rdf.NewDataset()
	ex := func(s string) rdf.Term { return rdf.IRI("http://ex.org/" + s) }
	ds.Default().MustAdd(rdf.T(ex("s"), ex("p"), ex("o")))

	q := MustParse(`PREFIX ex: <http://ex.org/> SELECT ?s WHERE { ?s ex:missing ?o }`)
	if res, err := Eval(ds, q); err != nil || res.Len() != 0 {
		t.Fatalf("dead-constant query: len=%v err=%v", res.Len(), err)
	}

	// Interning ex:missing revives the constant.
	ds.Default().MustAdd(rdf.T(ex("s2"), ex("missing"), ex("o2")))
	res, err := Eval(ds, q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 {
		t.Fatalf("revived constant found %d rows, want 1", res.Len())
	}

	// GRAPH ?g plans snapshot the named-graph set; creating a graph
	// whose name term is already interned must still be seen.
	gq := MustParse(`SELECT ?g ?s WHERE { GRAPH ?g { ?s ?p ?o } }`)
	if res, err := Eval(ds, gq); err != nil || res.Len() != 0 {
		t.Fatalf("no named graphs yet: len=%v err=%v", res.Len(), err)
	}
	gname := ex("s") // already interned as a subject
	ds.Graph(gname).MustAdd(rdf.T(ex("a"), ex("b"), ex("c")))
	res, err = Eval(ds, gq)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 {
		t.Fatalf("new named graph invisible to a re-evaluation: %d rows", res.Len())
	}

	ds.DropGraph(gname)
	res, err = Eval(ds, gq)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 0 {
		t.Fatalf("dropped graph still visible: %d rows", res.Len())
	}
}

// TestQueryCarriesNothingAcrossDatasets ensures a query evaluated against a second
// dataset carries nothing over from the first.
func TestQueryCarriesNothingAcrossDatasets(t *testing.T) {
	ex := func(s string) rdf.Term { return rdf.IRI("http://ex.org/" + s) }
	a, b := rdf.NewDataset(), rdf.NewDataset()
	a.Default().MustAdd(rdf.T(ex("s"), ex("p"), ex("o1")))
	b.Default().MustAdd(rdf.T(ex("s"), ex("p"), ex("o2")))
	b.Default().MustAdd(rdf.T(ex("s"), ex("p"), ex("o3")))
	q := MustParse(`PREFIX ex: <http://ex.org/> SELECT ?o WHERE { ?s ex:p ?o }`)
	ra, err := Eval(a, q)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := Eval(b, q)
	if err != nil {
		t.Fatal(err)
	}
	if ra.Len() != 1 || rb.Len() != 2 {
		t.Fatalf("rows a=%d b=%d, want 1 and 2", ra.Len(), rb.Len())
	}
}

// benchJoinDataset mirrors the root BenchmarkSPARQLJoinRows fixture:
// a 3-pattern BGP over ~10k triples producing 9k rows.
func benchJoinDataset() (*rdf.Dataset, *Query) {
	ds := rdf.NewDataset()
	g := ds.Default()
	ex := func(p, i int) rdf.Term { return rdf.IRI(fmt.Sprintf("http://ex.org/n%d_%d", p, i)) }
	p0, p1 := rdf.IRI("http://ex.org/p0"), rdf.IRI("http://ex.org/p1")
	p2, p3 := rdf.IRI("http://ex.org/p2"), rdf.IRI("http://ex.org/p3")
	for x := 0; x < 1000; x++ {
		g.MustAdd(rdf.T(ex(0, x), p0, ex(1, x%100)))
		g.MustAdd(rdf.T(ex(0, x), p2, rdf.IntLit(int64(x))))
	}
	for m := 0; m < 100; m++ {
		for k := 0; k < 9; k++ {
			g.MustAdd(rdf.T(ex(1, m), p1, rdf.IntLit(int64(m*9+k))))
		}
	}
	for i := 0; i < 7100; i++ {
		g.MustAdd(rdf.T(ex(2, i), p3, rdf.IntLit(int64(i))))
	}
	q := MustParse(`PREFIX ex: <http://ex.org/>
SELECT ?a ?c ?w WHERE { ?a ex:p0 ?b . ?b ex:p1 ?c . ?a ex:p2 ?w }`)
	return ds, q
}

// BenchmarkJoinStrategies contrasts the two join operators on the same
// wide join, with the cost model's pick alongside: the gap between
// nested and hash is what chooseJoin's constants buy.
func BenchmarkJoinStrategies(b *testing.B) {
	ds, q := benchJoinDataset()
	for _, tc := range []struct {
		name string
		mode int32
	}{{"auto", joinAuto}, {"nested", joinForceNested}, {"hash", joinForceHash}} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := evalJoin(ds, q, tc.mode)
				if err != nil {
					b.Fatal(err)
				}
				if res.Len() != 9000 {
					b.Fatalf("rows = %d", res.Len())
				}
			}
		})
	}
}

// BenchmarkJoinDrain evaluates a LIMIT 1 variant of the three-pattern
// join: the bounded top-k tail keeps the canonical barrier out of the
// measurement, so the timing isolates the join's build and probe. The
// small variant (~100 result rows) shows the fixed per-evaluation cost.
func BenchmarkJoinDrain(b *testing.B) {
	large, _ := joinFixture()
	small := rdf.NewDataset()
	g := small.Default()
	for x := 0; x < 100; x++ {
		g.MustAdd(rdf.T(
			rdf.IRI(fmt.Sprintf("http://ex.org/n0_%d", x)),
			rdf.IRI("http://ex.org/p0"),
			rdf.IRI(fmt.Sprintf("http://ex.org/n1_%d", x%10))))
		g.MustAdd(rdf.T(
			rdf.IRI(fmt.Sprintf("http://ex.org/n0_%d", x)),
			rdf.IRI("http://ex.org/p2"),
			rdf.IntLit(int64(x))))
	}
	for m := 0; m < 10; m++ {
		g.MustAdd(rdf.T(
			rdf.IRI(fmt.Sprintf("http://ex.org/n1_%d", m)),
			rdf.IRI("http://ex.org/p1"),
			rdf.IntLit(int64(m))))
	}
	for _, tc := range []struct {
		name string
		ds   *rdf.Dataset
	}{{"large", large}, {"small", small}} {
		b.Run(tc.name, func(b *testing.B) {
			q := MustParse(joinFixtureQuerySrc + " LIMIT 1")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := Eval(tc.ds, q)
				if err != nil {
					b.Fatal(err)
				}
				if res.Len() != 1 {
					b.Fatalf("rows = %d, want 1", res.Len())
				}
			}
		})
	}
}

// TestSortCanonicalSparseRanks drives the canonical sort's sparse-rank
// path: a tiny result over a dictionary large enough that dense
// ID-indexed rank arrays would be dictionary-sized. The visible order
// must stay the canonical term order.
func TestSortCanonicalSparseRanks(t *testing.T) {
	ds := rdf.NewDataset()
	g := ds.Default()
	// Inflate the dictionary well past the sparse threshold.
	for i := 0; i < 3000; i++ {
		g.MustAdd(rdf.T(
			rdf.IRI(fmt.Sprintf("http://ex.org/noise%04d", i)),
			rdf.IRI("http://ex.org/noisep"),
			rdf.IntLit(int64(i))))
	}
	// The two interesting triples intern last, so their IDs are maximal.
	g.MustAdd(rdf.T(rdf.IRI("http://ex.org/zz"), rdf.IRI("http://ex.org/p"), rdf.Lit("b")))
	g.MustAdd(rdf.T(rdf.IRI("http://ex.org/aa"), rdf.IRI("http://ex.org/p"), rdf.Lit("a")))

	res, err := Run(ds, `PREFIX ex: <http://ex.org/> SELECT ?s WHERE { ?s ex:p ?v }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 {
		t.Fatalf("rows = %d, want 2", res.Len())
	}
	first, _ := res.Term(0, "s")
	second, _ := res.Term(1, "s")
	if first.Value != "http://ex.org/aa" || second.Value != "http://ex.org/zz" {
		t.Fatalf("canonical order broken under sparse ranks: %s, %s", first.Value, second.Value)
	}
	q := MustParse(`PREFIX ex: <http://ex.org/> SELECT ?s ?v WHERE { ?s ex:p ?v }`)
	checkEquivalence(t, ds, q, -3)
}
