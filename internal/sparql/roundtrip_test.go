package sparql_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"mdm/internal/rdf"
	"mdm/internal/sparql"
)

// onePattern parses a query and returns its one triple pattern.
func onePattern(t *testing.T, src string) sparql.TriplePattern {
	t.Helper()
	q, err := sparql.Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	if len(q.Where.Patterns) != 1 {
		t.Fatalf("Parse(%q) read %d patterns: %v", src, len(q.Where.Patterns), q.Where.Patterns)
	}
	return q.Where.Patterns[0].(sparql.TriplePattern)
}

// TestCompactedIRIWithCommaIsOneTerm: an IRI whose local part holds a
// comma and a colon is not compacted into what reads as an object list.
func TestCompactedIRIWithCommaIsOneTerm(t *testing.T) {
	pm := rdf.NewPrefixMap()
	pm.Bind("ex", "http://ex.org/")
	iri := rdf.IRI("http://ex.org/a,ex:b")
	tp := onePattern(t, "PREFIX ex: <http://ex.org/> SELECT * WHERE { ?s ?p "+pm.CompactTerm(iri)+" }")
	if tp.O.Term != iri {
		t.Errorf("read %s back as %s", iri, tp.O)
	}
}

// TestCompactedIRIWithTrailingDotKeepsIt: a local part ending in '.' is
// not compacted, or the dot would read as the triple terminator.
func TestCompactedIRIWithTrailingDotKeepsIt(t *testing.T) {
	pm := rdf.NewPrefixMap()
	pm.Bind("ex", "http://ex.org/")
	iri := rdf.IRI("http://ex.org/a.")
	tp := onePattern(t, "PREFIX ex: <http://ex.org/> SELECT * WHERE { ?s ?p "+pm.CompactTerm(iri)+" }")
	if tp.O.Term != iri {
		t.Errorf("read %s back as %s", iri, tp.O)
	}
}

// TestQueryReadsUnicodeEscapes: the standard \u escape reads, so a
// literal Term.String escapes reads back too.
func TestQueryReadsUnicodeEscapes(t *testing.T) {
	if tp := onePattern(t, `SELECT * WHERE { ?s ?p "caf\u00e9" }`); tp.O.Term != rdf.Lit("caf\u00e9") {
		t.Errorf(`"caf\u00e9" read as %s`, tp.O)
	}
	zw := rdf.Lit("zw\u200b")
	if tp := onePattern(t, "SELECT * WHERE { ?s ?p "+zw.String()+" }"); tp.O.Term != zw {
		t.Errorf("%s read back as %s", zw, tp.O)
	}
}

// Random terms for the round-trip property: the bytes the writer must
// escape or refuse to compact, and the ones it must leave alone.
var (
	iriBytes   = []string{",", ";", ".", "%", "(", ")", "~", ">", `"`, `\`, "{", "}", "|", "^", "`", " ", ":", "#", "/", "<", "=", "?", "$", "-", "+", "_", "\u00e9", "\u200b", "\n", "\x01", "a", "Z", "0", "9"}
	iriFirst   = []string{"0", "7", "=", "?", "$", "-", "+", " ", "\t", `"`, "<", ""}
	litBytes   = []string{"\x00", "\x01", "\a", "\b", "\t", "\n", "\v", "\f", "\r", "\x1b", "\x7f", `"`, "'", `\`, `\u`, "\u200b", "\u00e9", "\xff", "\xc3", " ", "a", "Z", "0", "@", "^"}
	labelFirst = []string{"a", "Z", "_", "\u00e9"}
	labelRest  = []string{"a", "0", "_", "-", ".", "\u00e9", "x"}
)

func pick(r *rand.Rand, from []string, n int) string {
	var sb strings.Builder
	for i := 0; i < n; i++ {
		sb.WriteString(from[r.Intn(len(from))])
	}
	return sb.String()
}

// randIRI is an IRI under one of the bound namespaces, or one that starts
// with a byte '<' could be read as less-than before.
func randIRI(r *rand.Rand, nss []string) rdf.Term {
	if r.Intn(4) == 0 {
		return rdf.IRI(pick(r, iriFirst, 1) + pick(r, iriBytes, r.Intn(6)))
	}
	return rdf.IRI(nss[r.Intn(len(nss))] + pick(r, iriBytes, r.Intn(6)))
}

func randTerm(r *rand.Rand, nss []string) rdf.Term {
	lex := pick(r, litBytes, r.Intn(8))
	switch r.Intn(4) {
	case 0:
		return randIRI(r, nss)
	case 1:
		return rdf.LangLit(lex, pick(r, []string{"en", "es-ES", "x-1"}, 1))
	case 2:
		return rdf.TypedLit(lex, randIRI(r, nss).Value)
	}
	return rdf.Lit(lex)
}

// TestTermRoundTrip: every term the rdf writer renders — whole, or
// compacted under random prefix bindings — reads back as the identical
// term, in a query and in a TriG document.
func TestTermRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	compacted := 0
	for i := 0; i < 3000; i++ {
		ds := rdf.NewDataset()
		nss := []string{"http://www.w3.org/2001/XMLSchema#"}
		for k := r.Intn(4); k > 0; k-- {
			label := pick(r, labelFirst, 1) + pick(r, labelRest, r.Intn(4))
			if label == "_" {
				continue
			}
			ns := "http://ex.org/" + pick(r, iriBytes, r.Intn(4))
			ds.Prefixes().Bind(label, ns)
			nss = append(nss, ns)
		}
		pm := ds.Prefixes()
		g, s, p, o := randIRI(r, nss), randIRI(r, nss), randIRI(r, nss), randTerm(r, nss)
		for _, term := range []rdf.Term{g, s, p, o} {
			if term.IsIRI() && !strings.HasPrefix(pm.CompactTerm(term), "<") {
				compacted++
			}
		}

		var sb strings.Builder
		for _, pair := range pm.Pairs() {
			fmt.Fprintf(&sb, "PREFIX %s: %s\n", pair[0], rdf.IRI(pair[1]))
		}
		fmt.Fprintf(&sb, "SELECT * WHERE { GRAPH %s { %s %s %s } }",
			pm.CompactTerm(g), pm.CompactTerm(s), pm.CompactTerm(p), pm.CompactTerm(o))
		q, err := sparql.Parse(sb.String())
		if err != nil {
			t.Fatalf("query does not read back: %v\n%s", err, sb.String())
		}
		gp := q.Where.Patterns[0].(sparql.GraphPattern)
		want := sparql.TriplePattern{S: sparql.N(s), P: sparql.N(p), O: sparql.N(o)}
		if gp.Name != sparql.N(g) || len(gp.Group.Patterns) != 1 || gp.Group.Patterns[0] != want {
			t.Fatalf("query read back as %s, want GRAPH %s { %s }\n%s", gp, g, want, sb.String())
		}

		ds.Graph(g).MustAdd(rdf.T(s, p, o))
		doc := rdf.WriteDataset(ds)
		back, err := sparql.ParseTriG(doc)
		if err != nil {
			t.Fatalf("TriG does not read back: %v\n%s", err, doc)
		}
		if got, want := back.Quads(), ds.Quads(); !reflect.DeepEqual(got, want) {
			t.Fatalf("TriG read back as\n%v\nwant\n%v\n%s", got, want, doc)
		}
		if got, want := back.Prefixes().Pairs(), pm.Pairs(); !reflect.DeepEqual(got, want) {
			t.Fatalf("TriG prefixes read back as %v, want %v\n%s", got, want, doc)
		}
	}
	if compacted == 0 {
		t.Error("no term was compacted: the property never exercised CURIEs")
	}
}
