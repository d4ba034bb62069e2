// Quickstart: the paper's motivational use case end-to-end, in-process.
//
// A data steward defines the global graph for european football, starts
// the simulated REST providers, registers wrappers over them (with the
// automatic schema extraction of paper §2.2), defines LAV mappings, and
// then — switching to the analyst role — poses the Figure 8 query and
// prints the Table 1 answer together with the generated SPARQL and
// relational algebra.
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"mdm"
	"mdm/internal/apisim"
	"mdm/internal/wrapper"
)

func main() {
	ctx := context.Background()

	// Third-party providers (normally not under your control).
	provider := apisim.NewFootball()
	defer provider.Close()

	sys := mdm.New()
	sys.BindPrefix("ex", "http://www.example.org/football/")
	sys.BindPrefix("sc", "http://schema.org/")

	// --- steward: global graph (Figure 5) ---
	check(sys.AddConcept("ex:Player", "Player"))
	check(sys.AddConcept("sc:SportsTeam", "SportsTeam")) // reused vocabulary
	for _, f := range []struct{ iri, concept string }{
		{"ex:playerId", "ex:Player"},
		{"ex:playerName", "ex:Player"},
		{"ex:height", "ex:Player"},
		{"ex:teamId", "sc:SportsTeam"},
		{"ex:teamName", "sc:SportsTeam"},
	} {
		check(sys.AddFeature(f.iri, ""))
		check(sys.AttachFeature(f.concept, f.iri))
	}
	check(sys.MarkIdentifier("ex:playerId"))
	check(sys.MarkIdentifier("ex:teamId"))
	check(sys.RelateConcepts("ex:Player", "ex:playsIn", "sc:SportsTeam"))

	// --- steward: sources and wrappers (Figure 6) ---
	check(sys.AddSource("players-api", "Players API"))
	check(sys.AddSource("teams-api", "Teams API"))

	w1, err := wrapper.NewHTTP(ctx, "w1", "players-api", provider.URL()+"/v1/players",
		wrapper.WithRename("name", "pName"),
		wrapper.WithRename("preferred_foot", "foot"),
		wrapper.WithRename("team_id", "teamId"),
		wrapper.WithRename("rating", "score"))
	check(err)
	rel1, err := sys.RegisterWrapper(w1)
	check(err)
	fmt.Println(rel1.Summary())

	w2, err := wrapper.NewHTTP(ctx, "w2", "teams-api", provider.URL()+"/v1/teams")
	check(err)
	rel2, err := sys.RegisterWrapper(w2)
	check(err)
	fmt.Println(rel2.Summary())

	// --- steward: LAV mappings (Figure 7) ---
	check(sys.DefineMapping(mdm.Mapping{
		Wrapper: "w1",
		Subgraph: []mdm.Triple{
			mdm.T(sys.IRI("ex:Player"), sys.IRI("rdf:type"), sys.IRI("G:Concept")),
			mdm.T(sys.IRI("ex:Player"), sys.IRI("G:hasFeature"), sys.IRI("ex:playerId")),
			mdm.T(sys.IRI("ex:Player"), sys.IRI("G:hasFeature"), sys.IRI("ex:playerName")),
			mdm.T(sys.IRI("ex:Player"), sys.IRI("G:hasFeature"), sys.IRI("ex:height")),
			mdm.T(sys.IRI("ex:Player"), sys.IRI("ex:playsIn"), sys.IRI("sc:SportsTeam")),
			mdm.T(sys.IRI("sc:SportsTeam"), sys.IRI("rdf:type"), sys.IRI("G:Concept")),
			mdm.T(sys.IRI("sc:SportsTeam"), sys.IRI("G:hasFeature"), sys.IRI("ex:teamId")),
		},
		SameAs: map[string]mdm.Term{
			"id":     sys.IRI("ex:playerId"),
			"pName":  sys.IRI("ex:playerName"),
			"height": sys.IRI("ex:height"),
			"teamId": sys.IRI("ex:teamId"),
		},
	}))
	check(sys.DefineMapping(mdm.Mapping{
		Wrapper: "w2",
		Subgraph: []mdm.Triple{
			mdm.T(sys.IRI("sc:SportsTeam"), sys.IRI("rdf:type"), sys.IRI("G:Concept")),
			mdm.T(sys.IRI("sc:SportsTeam"), sys.IRI("G:hasFeature"), sys.IRI("ex:teamId")),
			mdm.T(sys.IRI("sc:SportsTeam"), sys.IRI("G:hasFeature"), sys.IRI("ex:teamName")),
		},
		SameAs: map[string]mdm.Term{
			"id":   sys.IRI("ex:teamId"),
			"name": sys.IRI("ex:teamName"),
		},
	}))

	if v := sys.Validate(); len(v) > 0 {
		log.Fatalf("ontology inconsistent: %v", v)
	}
	fmt.Println("\n" + sys.RenderGlobalGraph())
	fmt.Println(sys.RenderSourceGraph())

	// --- analyst: the Figure 8 walk ---
	walk := mdm.NewWalk().
		SelectAs(sys.IRI("sc:SportsTeam"), sys.IRI("ex:teamName"), "teamName").
		SelectAs(sys.IRI("ex:Player"), sys.IRI("ex:playerName"), "playerName").
		Relate(sys.IRI("ex:Player"), sys.IRI("ex:playsIn"), sys.IRI("sc:SportsTeam"))

	rel, res, err := sys.Query(ctx, walk)
	check(err)

	fmt.Println("-- SPARQL (generated) --")
	fmt.Println(res.SPARQL)
	fmt.Println("\n-- Relational algebra over the wrappers --")
	for _, cq := range res.CQs {
		fmt.Println(" ", cq.Algebra())
	}
	fmt.Println("\n-- Table 1 --")
	rel.Sort()
	fmt.Print(rel.Table())

	// --- analyst: streaming metadata reads over the cursor API ---
	// SPARQLPage evaluates lazily: the page bound (here limit 3, offset
	// 0, overriding any LIMIT/OFFSET in the text) is pushed into the
	// engine, rows arrive one Next at a time, and dropping the cursor
	// (or canceling ctx) stops the work — the pattern the REST layer
	// uses to stream NDJSON pages to paging clients.
	cur, err := sys.SPARQLPage(`
PREFIX G: <http://www.essi.upc.edu/~snadal/BDIOntology/Global/>
SELECT ?c ?f WHERE {
  GRAPH <http://www.essi.upc.edu/~snadal/BDIOntology/Global/graph> {
    ?c G:hasFeature ?f .
  }
}`, 3, 0)
	check(err)
	defer cur.Close()
	fmt.Println("\n-- first page of features, streamed --")
	for b := range cur.Solutions(ctx) {
		fmt.Printf("  %s -> %s\n", b["c"].Value, b["f"].Value)
	}
	check(cur.Err())
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
