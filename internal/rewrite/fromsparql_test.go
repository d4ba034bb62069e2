package rewrite_test

import (
	"context"
	"sort"
	"strings"
	"testing"

	"mdm/internal/relalg/relalgtest"
	"mdm/internal/rewrite"
	"mdm/internal/usecase"
)

const fig8SPARQL = `
PREFIX ex: <http://www.example.org/football/>
PREFIX sc: <http://schema.org/>
SELECT ?teamName ?playerName WHERE {
  ?team rdf:type sc:SportsTeam .
  ?team ex:teamName ?teamName .
  ?player rdf:type ex:Player .
  ?player ex:playerName ?playerName .
  ?player ex:playsIn ?team .
}`

func TestWalkFromSPARQLFig8(t *testing.T) {
	f := usecase.MustNew()
	// rdf: is pre-bound by the SPARQL parser? No — it needs PREFIX.
	walk, err := rewrite.WalkFromSPARQL(f.Ont, "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>\n"+fig8SPARQL)
	if err != nil {
		t.Fatal(err)
	}
	res, err := rewrite.New(f.Ont, f.Reg).Rewrite(walk)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.OutputColumns) != 2 || res.OutputColumns[0] != "teamName" || res.OutputColumns[1] != "playerName" {
		t.Fatalf("columns = %v", res.OutputColumns)
	}
	rel, err := relalgtest.Execute(context.Background(), res.Plan)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 5 {
		t.Fatalf("rows = %d", rel.Len())
	}
}

func TestWalkFromSPARQLRoundTrip(t *testing.T) {
	// walk -> SPARQL -> walk -> rewriting must yield the same answer.
	f := usecase.MustNew()
	orig := usecase.Fig8Walk()
	sparqlText := orig.SPARQL(f.Ont)
	back, err := rewrite.WalkFromSPARQL(f.Ont, sparqlText)
	if err != nil {
		t.Fatalf("round trip parse: %v\n%s", err, sparqlText)
	}
	r := rewrite.New(f.Ont, f.Reg)
	res1, err := r.Rewrite(orig)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := r.Rewrite(back)
	if err != nil {
		t.Fatal(err)
	}
	rel1, err := relalgtest.Execute(context.Background(), res1.Plan)
	if err != nil {
		t.Fatal(err)
	}
	rel2, err := relalgtest.Execute(context.Background(), res2.Plan)
	if err != nil {
		t.Fatal(err)
	}
	if !rel1.Equal(rel2) {
		t.Errorf("round trip changed the answer:\n%s\nvs\n%s", rel1.Table(), rel2.Table())
	}
}

func TestWalkFromSPARQLNationalityRoundTrip(t *testing.T) {
	f := usecase.MustNew()
	orig := usecase.NationalityWalk()
	back, err := rewrite.WalkFromSPARQL(f.Ont, orig.SPARQL(f.Ont))
	if err != nil {
		t.Fatal(err)
	}
	r := rewrite.New(f.Ont, f.Reg)
	res, err := r.Rewrite(back)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := relalgtest.Execute(context.Background(), res.Plan)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 2 {
		t.Fatalf("rows = %d\n%s", rel.Len(), rel.Table())
	}
}

func TestWalkFromSPARQLSelectStar(t *testing.T) {
	f := usecase.MustNew()
	walk, err := rewrite.WalkFromSPARQL(f.Ont, `
PREFIX ex: <http://www.example.org/football/>
PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
SELECT * WHERE { ?p rdf:type ex:Player . ?p ex:playerName ?n . }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(walk.ProjectedFeatures()) != 1 {
		t.Fatalf("features = %v", walk.ProjectedFeatures())
	}
}

// SELECT * has no written projection order, so the translation must
// impose one: sorted variable names. Guards against map-iteration
// nondeterminism leaking into output column order.
func TestWalkFromSPARQLSelectStarDeterministicColumns(t *testing.T) {
	f := usecase.MustNew()
	const q = `
PREFIX ex: <http://www.example.org/football/>
PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
SELECT * WHERE {
  ?p rdf:type ex:Player .
  ?p ex:playerName ?name .
  ?p ex:height ?height .
  ?p ex:playerId ?id .
}`
	r := rewrite.New(f.Ont, f.Reg)
	var first []string
	for i := 0; i < 8; i++ {
		walk, err := rewrite.WalkFromSPARQL(f.Ont, q)
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.Rewrite(walk)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = res.OutputColumns
			if !sort.StringsAreSorted(first) {
				t.Fatalf("SELECT * columns not sorted: %v", first)
			}
			continue
		}
		if strings.Join(res.OutputColumns, ",") != strings.Join(first, ",") {
			t.Fatalf("run %d columns %v != %v", i, res.OutputColumns, first)
		}
	}
}

func TestWalkFromSPARQLErrors(t *testing.T) {
	f := usecase.MustNew()
	cases := []struct{ name, q, wantErr string }{
		{"ask", `ASK { ?s ?p ?o . }`, "SELECT"},
		{"distinct", `PREFIX ex: <http://www.example.org/football/>
PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
SELECT DISTINCT ?n WHERE { ?p rdf:type ex:Player . ?p ex:playerName ?n . }`, "modifiers"},
		{"filter", `PREFIX ex: <http://www.example.org/football/>
PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
SELECT ?n WHERE { ?p rdf:type ex:Player . ?p ex:playerName ?n . FILTER (?n != "x") }`, "FILTER"},
		{"untyped subject", `PREFIX ex: <http://www.example.org/football/>
SELECT ?n WHERE { ?p ex:playerName ?n . }`, "rdf:type"},
		{"unknown concept", `PREFIX ex: <http://www.example.org/football/>
PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
SELECT ?n WHERE { ?p rdf:type ex:Ghost . ?p ex:playerName ?n . }`, "not a declared concept"},
		{"foreign feature", `PREFIX ex: <http://www.example.org/football/>
PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
SELECT ?n WHERE { ?p rdf:type ex:Player . ?p ex:teamName ?n . }`, "not a feature of"},
		{"bad relation", `PREFIX ex: <http://www.example.org/football/>
PREFIX sc: <http://schema.org/>
PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
SELECT ?n WHERE {
  ?p rdf:type ex:Player . ?p ex:playerName ?n .
  ?t rdf:type sc:SportsTeam . ?p ex:inCountry ?t .
}`, "not in global graph"},
		{"constant object", `PREFIX ex: <http://www.example.org/football/>
PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
SELECT ?n WHERE { ?p rdf:type ex:Player . ?p ex:playerName "Messi" . ?p ex:foot ?n . }`, "constant"},
		{"unbound projection", `PREFIX ex: <http://www.example.org/football/>
PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
SELECT ?ghost WHERE { ?p rdf:type ex:Player . ?p ex:playerName ?n . }`, "not bound"},
		{"double typing", `PREFIX ex: <http://www.example.org/football/>
PREFIX sc: <http://schema.org/>
PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
SELECT ?n WHERE { ?p rdf:type ex:Player . ?p rdf:type sc:SportsTeam . ?p ex:playerName ?n . }`, "two concepts"},
		{"syntax error", `SELEC bogus`, "sparql"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := rewrite.WalkFromSPARQL(f.Ont, c.q)
			if err == nil {
				t.Fatalf("no error for %s", c.name)
			}
			if !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("err = %v, want substring %q", err, c.wantErr)
			}
		})
	}
}
