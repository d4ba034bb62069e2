package sparql_test

import (
	"reflect"
	"testing"

	"mdm/internal/rdf"
	"mdm/internal/rewrite"
	"mdm/internal/sparql"
	"mdm/internal/usecase"
)

// fuzzDataset is a small fixed dataset the fuzzer evaluates parsed
// queries against, so evaluation code is exercised too (evaluation may
// fail, but must not panic).
func fuzzDataset() *rdf.Dataset {
	ds := rdf.NewDataset()
	ex := func(s string) rdf.Term { return rdf.IRI("http://ex.org/" + s) }
	ds.Default().MustAdd(rdf.T(ex("s"), ex("p"), rdf.IntLit(1)))
	ds.Default().MustAdd(rdf.T(ex("s"), ex("q"), rdf.Lit("v")))
	ds.Graph(ex("g")).MustAdd(rdf.T(ex("s2"), ex("p"), rdf.LangLit("hola", "es")))
	return ds
}

// seedQueries collects realistic corpus entries: hand-written queries in
// the shapes the tests use plus SPARQL renderings produced by the
// rewriting pipeline for the use-case walks (the queries MDM itself
// generates).
func seedQueries() []string {
	seeds := []string{
		"SELECT * WHERE { ?s ?p ?o }",
		"ASK { <http://ex.org/s> <http://ex.org/p> 1 }",
		`PREFIX ex: <http://ex.org/> SELECT DISTINCT ?s ?o WHERE { ?s ex:p ?o . FILTER (?o >= 1 && BOUND(?s)) } ORDER BY DESC(?o) LIMIT 3 OFFSET 1`,
		`PREFIX ex: <http://ex.org/> SELECT ?s WHERE { { ?s ex:p ?o } UNION { ?s ex:q "v" } OPTIONAL { ?s ex:r ?w } }`,
		`PREFIX ex: <http://ex.org/> SELECT ?g ?s WHERE { GRAPH ?g { ?s ex:p ?o . FILTER (REGEX(?o, "^h", "i")) } }`,
		`SELECT ?s WHERE { ?s a <http://ex.org/C> . FILTER (STR(?s) = "x" || !BOUND(?s)) }`,
		// Property paths: every operator, precedence mixes, grouped
		// closures, paths in predicate-object lists.
		`PREFIX ex: <http://ex.org/> SELECT ?x WHERE { ex:s ex:p+ ?x }`,
		`PREFIX ex: <http://ex.org/> SELECT ?x ?y WHERE { ?x ex:p* ?y . ?y ^ex:q ?x }`,
		`PREFIX ex: <http://ex.org/> SELECT ?x WHERE { ex:s ^ex:p/ex:q|ex:r ?x }`,
		`PREFIX ex: <http://ex.org/> SELECT ?x WHERE { ex:s (ex:p/ex:q)+ ?x ; (^ex:p)? ?y }`,
		`PREFIX ex: <http://ex.org/> ASK { ex:s (a|ex:p)* 1 }`,
		// Aggregation: GROUP BY, HAVING, COUNT(*)/DISTINCT, MIN/MAX/SUM.
		`PREFIX ex: <http://ex.org/> SELECT ?s (COUNT(*) AS ?n) WHERE { ?s ex:p ?o } GROUP BY ?s HAVING (?n > 1)`,
		`PREFIX ex: <http://ex.org/> SELECT (COUNT(DISTINCT ?o) AS ?n) (SUM(?o) AS ?t) WHERE { ?s ex:p ?o }`,
		`PREFIX ex: <http://ex.org/> SELECT ?g (MIN(?o) AS ?lo) (MAX(?o) AS ?hi) WHERE { ?g ex:p+ ?o } GROUP BY ?g ORDER BY ?g LIMIT 2`,
		// Nested comparisons and escapes render back to what they read.
		`SELECT * WHERE { ?s ?p ?o FILTER ((?s = ?p) = !(?o < 1)) }`,
		`SELECT * WHERE { <\u0031> ?p "caf\u00e9\b\f\'\U0001F600" FILTER (REGEX(?o, "\t")) }`,
	}
	f := usecase.MustNew()
	r := rewrite.New(f.Ont, f.Reg)
	if res, err := r.Rewrite(usecase.Fig8Walk()); err == nil {
		seeds = append(seeds, res.SPARQL)
	}
	if res, err := r.Rewrite(usecase.NationalityWalk()); err == nil {
		seeds = append(seeds, res.SPARQL)
	}
	return seeds
}

// FuzzParse checks that the tokenizer/parser never panic, and that any
// query that parses (a) renders to concrete syntax that re-parses and
// renders to the same text again, and (b) evaluates without panicking.
func FuzzParse(f *testing.F) {
	for _, s := range seedQueries() {
		f.Add(s)
	}
	ds := fuzzDataset()
	f.Fuzz(func(t *testing.T, src string) {
		q, err := sparql.Parse(src)
		if err != nil {
			return
		}
		rendered := q.String()
		q2, rerr := sparql.Parse(rendered)
		if rerr != nil {
			t.Fatalf("parsed query renders to non-parsable syntax: %v\ninput: %q\nrendered: %q", rerr, src, rendered)
		}
		if again := q2.String(); again != rendered {
			t.Fatalf("rendering is not a fixed point:\ninput: %q\nrendered: %q\nre-rendered: %q", src, rendered, again)
		}
		_, _ = sparql.Eval(ds, q) // must not panic; errors are fine
	})
}

// FuzzParseTriG checks that the TriG reader never panics, and that any
// document it reads is written by rdf.WriteDataset as a document it
// reads back to the same quads and prefix bindings. The one term the
// writer does not tell apart is a literal typed xsd:string, which it
// writes as the plain literal (TestXSDStringLiteralRendersPlain), so
// quads are compared with that datatype dropped.
func FuzzParseTriG(f *testing.F) {
	seeds := []string{
		"",
		"<http://ex.org/s> <http://ex.org/p> <http://ex.org/o> .\n",
		`@prefix ex: <http://ex.org/> .
ex:s ex:p "v" ; ex:q 4 , 2.5 .
ex:s2 a ex:C .
_:b ex:p "hola"@es .
ex:g {
  ex:s ex:p "in-graph"^^<http://www.w3.org/2001/XMLSchema#string> .
}
`,
	}
	// The real corpus: the use-case ontology's TriG serialization, the
	// document /api/export serves.
	seeds = append(seeds, rdf.WriteDataset(usecase.MustNew().Ont.Dataset()))
	// The escapes the reader knows, a fresh blank node and a bare block.
	seeds = append(seeds, `@prefix ex: <http://ex.org/> . ex:s ex:p "caf\u00e9 \U0001F600 \b\f\'" , [] . { ex:s ex:q <http://ex.org/\u003E> }`)
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		ds, err := sparql.ParseTriG(src)
		if err != nil {
			return
		}
		out := rdf.WriteDataset(ds)
		back, err := sparql.ParseTriG(out)
		if err != nil {
			t.Fatalf("written document does not read back: %v\ninput: %q\nwritten: %q", err, src, out)
		}
		if got, want := plainQuads(back), plainQuads(ds); !reflect.DeepEqual(got, want) {
			t.Fatalf("quads differ after a round trip:\ngot  %v\nwant %v\nwritten: %q", got, want, out)
		}
		if got, want := back.Prefixes().Pairs(), ds.Prefixes().Pairs(); !reflect.DeepEqual(got, want) {
			t.Fatalf("prefixes differ after a round trip:\ngot  %v\nwant %v\nwritten: %q", got, want, out)
		}
	})
}

// plainQuads is the set of ds's quads with every xsd:string literal made
// plain.
func plainQuads(ds *rdf.Dataset) map[rdf.Quad]bool {
	set := map[rdf.Quad]bool{}
	for _, q := range ds.Quads() {
		if q.O.Datatype == rdf.XSDString {
			q.O.Datatype = ""
		}
		set[q] = true
	}
	return set
}
