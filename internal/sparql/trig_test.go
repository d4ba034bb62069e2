package sparql

import (
	"strings"
	"testing"

	"mdm/internal/rdf"
)

// parseTurtle reads a Turtle document through ParseTriG and returns its
// default graph and prefix bindings.
func parseTurtle(src string) (*rdf.Graph, *rdf.PrefixMap, error) {
	ds, err := ParseTriG(src)
	if err != nil {
		return nil, nil, err
	}
	return ds.Default(), ds.Prefixes(), nil
}

func TestTriGBasicTriples(t *testing.T) {
	src := `
@prefix ex: <http://ex.org/> .
ex:alice ex:knows ex:bob .
<http://ex.org/bob> <http://ex.org/name> "Bob" .
`
	g, pm, err := parseTurtle(src)
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 2 {
		t.Fatalf("Len = %d, want 2", g.Len())
	}
	if !g.Has(rdf.T(rdf.IRI("http://ex.org/alice"), rdf.IRI("http://ex.org/knows"), rdf.IRI("http://ex.org/bob"))) {
		t.Error("missing prefixed triple")
	}
	if !g.Has(rdf.T(rdf.IRI("http://ex.org/bob"), rdf.IRI("http://ex.org/name"), rdf.Lit("Bob"))) {
		t.Error("missing full-IRI triple")
	}
	if iri, ok := pm.Expand("ex:x"); !ok || iri != "http://ex.org/x" {
		t.Errorf("prefix not recorded: %q, %v", iri, ok)
	}
}

func TestTriGAKeywordAndLists(t *testing.T) {
	src := `
@prefix ex: <http://ex.org/> .
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
ex:Player a ex:Concept ;
    rdfs:label "Player" ;
    ex:hasFeature ex:name , ex:height .
`
	g, _, err := parseTurtle(src)
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 4 {
		t.Fatalf("Len = %d, want 4: %v", g.Len(), g.Triples())
	}
	if !g.Has(rdf.T(rdf.IRI("http://ex.org/Player"), rdf.IRI(rdf.RDFType), rdf.IRI("http://ex.org/Concept"))) {
		t.Error("'a' keyword not expanded to rdf:type")
	}
	if !g.Has(rdf.T(rdf.IRI("http://ex.org/Player"), rdf.IRI("http://ex.org/hasFeature"), rdf.IRI("http://ex.org/height"))) {
		t.Error("object list not parsed")
	}
}

func TestTriGLiteralForms(t *testing.T) {
	src := `
@prefix ex: <http://ex.org/> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
ex:m ex:height 170.18 .
ex:m ex:weight 159 .
ex:m ex:left true .
ex:m ex:nick "Leo"@es .
ex:m ex:rating "94"^^xsd:integer .
ex:m ex:note "line\nbreak \"q\" A" .
`
	g, _, err := parseTurtle(src)
	if err != nil {
		t.Fatal(err)
	}
	m := rdf.IRI("http://ex.org/m")
	checks := []struct {
		p string
		o rdf.Term
	}{
		{"height", rdf.TypedLit("170.18", rdf.XSDDouble)},
		{"weight", rdf.TypedLit("159", rdf.XSDInteger)},
		{"left", rdf.BoolLit(true)},
		{"nick", rdf.LangLit("Leo", "es")},
		{"rating", rdf.TypedLit("94", rdf.XSDInteger)},
		{"note", rdf.Lit("line\nbreak \"q\" A")},
	}
	for _, c := range checks {
		if !g.Has(rdf.T(m, rdf.IRI("http://ex.org/"+c.p), c.o)) {
			t.Errorf("missing %s -> %s; graph: %v", c.p, c.o, g.Triples())
		}
	}
}

func TestTriGNegativeAndExponentNumbers(t *testing.T) {
	src := `@prefix ex: <http://ex.org/> .
ex:a ex:v -5 . ex:a ex:w +3 . ex:a ex:x 1.5e3 .`
	g, _, err := parseTurtle(src)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Has(rdf.T(rdf.IRI("http://ex.org/a"), rdf.IRI("http://ex.org/v"), rdf.TypedLit("-5", rdf.XSDInteger))) {
		t.Error("negative integer missing")
	}
	if !g.Has(rdf.T(rdf.IRI("http://ex.org/a"), rdf.IRI("http://ex.org/x"), rdf.TypedLit("1.5e3", rdf.XSDDouble))) {
		t.Error("exponent double missing")
	}
}

func TestTriGBlankNodes(t *testing.T) {
	src := `@prefix ex: <http://ex.org/> .
_:b1 ex:p ex:o .
ex:s ex:q _:b1 .`
	g, _, err := parseTurtle(src)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Has(rdf.T(rdf.Blank("b1"), rdf.IRI("http://ex.org/p"), rdf.IRI("http://ex.org/o"))) {
		t.Error("blank subject missing")
	}
	if !g.Has(rdf.T(rdf.IRI("http://ex.org/s"), rdf.IRI("http://ex.org/q"), rdf.Blank("b1"))) {
		t.Error("blank object missing")
	}
}

func TestTriGNamedGraphs(t *testing.T) {
	src := `
@prefix ex: <http://ex.org/> .
ex:s ex:p "default" .
ex:g1 {
    ex:s ex:p "one" .
    ex:s ex:q "two" .
}
GRAPH ex:g2 { ex:s ex:p "three" . }
`
	ds, err := ParseTriG(src)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Default().Len() != 1 {
		t.Errorf("default len = %d", ds.Default().Len())
	}
	g1, ok := ds.Lookup(rdf.IRI("http://ex.org/g1"))
	if !ok || g1.Len() != 2 {
		t.Errorf("g1 = %v, %v", g1, ok)
	}
	g2, ok := ds.Lookup(rdf.IRI("http://ex.org/g2"))
	if !ok || g2.Len() != 1 {
		t.Errorf("g2 = %v, %v", g2, ok)
	}
}

func TestTriGComments(t *testing.T) {
	src := `# leading comment
@prefix ex: <http://ex.org/> . # trailing
# between
ex:s ex:p ex:o . # after triple`
	g, _, err := parseTurtle(src)
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 1 {
		t.Errorf("Len = %d", g.Len())
	}
}

func TestTriGErrors(t *testing.T) {
	cases := []struct {
		name, src string
	}{
		{"unknown prefix", `ex:s ex:p ex:o .`},
		{"unterminated iri", `<http://ex.org/s ex:p ex:o .`},
		{"unterminated literal", `@prefix ex: <http://e/> . ex:s ex:p "abc .`},
		{"missing dot", `@prefix ex: <http://e/> . ex:s ex:p ex:o`},
		{"literal subject", `@prefix ex: <http://e/> . "s" ex:p ex:o .`},
		{"unterminated graph", `@prefix ex: <http://e/> . ex:g { ex:s ex:p ex:o .`},
		{"bare word", `@prefix ex: <http://e/> . ex:s ex:p banana .`},
		{"dangling escape", `@prefix ex: <http://e/> . ex:s ex:p "a\`},
		{"bad unicode escape", `@prefix ex: <http://e/> . ex:s ex:p "\uZZZZ" .`},
		// What a query reads and data does not.
		{"variable", `@prefix ex: <http://e/> . ex:s ex:p ?o .`},
		{"variable predicate", `@prefix ex: <http://e/> . ex:s ?p ex:o .`},
		{"property path", `@prefix ex: <http://e/> . ex:s ex:p/ex:q ex:o .`},
		{"empty blank label", `@prefix ex: <http://e/> . ex:s ex:p _: .`},
		{"blank graph name", `@prefix ex: <http://e/> . GRAPH _:g { ex:s ex:p ex:o . }`},
		{"blank prefix label", `@prefix _: <http://e/> .`},
		{"surrogate escape", `@prefix ex: <http://e/> . ex:s ex:p "\uD800" .`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := ParseTriG(c.src); err == nil {
				t.Errorf("expected error for %q", c.src)
			} else if !strings.Contains(err.Error(), "trig: line") {
				t.Errorf("error lacks position info: %v", err)
			}
		})
	}
}

func TestTriGWriteDatasetRoundTrip(t *testing.T) {
	src := `
@prefix ex: <http://ex.org/> .
ex:s ex:p "default" .
ex:g1 { ex:s ex:p "one" . ex:t ex:q 5 . }
ex:g2 { ex:s ex:p "two"@en . }
`
	ds1, err := ParseTriG(src)
	if err != nil {
		t.Fatal(err)
	}
	out := rdf.WriteDataset(ds1)
	ds2, err := ParseTriG(out)
	if err != nil {
		t.Fatalf("reparse failed: %v\noutput:\n%s", err, out)
	}
	if ds1.Len() != ds2.Len() {
		t.Fatalf("quad counts differ: %d vs %d\n%s", ds1.Len(), ds2.Len(), out)
	}
	for _, name := range ds1.GraphNames() {
		a, _ := ds1.Lookup(name)
		b, ok := ds2.Lookup(name)
		if !ok || !a.Equal(b) {
			t.Errorf("graph %v differs after round trip", name)
		}
	}
	if !ds1.Default().Equal(ds2.Default()) {
		t.Error("default graph differs after round trip")
	}
}

func TestTriGTrailingSemicolon(t *testing.T) {
	src := `@prefix ex: <http://e/> . ex:s ex:p ex:o ; .`
	g, _, err := parseTurtle(src)
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 1 {
		t.Errorf("Len = %d", g.Len())
	}
}

func TestTriGEmptyBlankPropertyList(t *testing.T) {
	src := `@prefix ex: <http://e/> . ex:s ex:p [] .`
	g, _, err := parseTurtle(src)
	if err != nil {
		t.Fatal(err)
	}
	ts := g.Match(rdf.IRI("http://e/s"), rdf.IRI("http://e/p"), rdf.Any)
	if len(ts) != 1 || !ts[0].O.IsBlank() {
		t.Errorf("anonymous blank not generated: %v", ts)
	}
}

// TestQueryRejectsBlankNodes: _:label and [] are data; a query still
// refuses both.
func TestQueryRejectsBlankNodes(t *testing.T) {
	for _, q := range []string{
		`SELECT * WHERE { _:b <http://e/p> ?o }`,
		`SELECT * WHERE { ?s <http://e/p> [] }`,
		`PREFIX _: <http://e/> SELECT * WHERE { _:b <http://e/p> ?o }`,
	} {
		if _, err := Parse(q); err == nil {
			t.Errorf("Parse(%q) accepted a blank node", q)
		}
	}
}
