// Command mdm-bench regenerates every artifact of the paper's
// demonstration — Figures 1–8, Table 1 and the three on-site scenarios —
// plus the extension experiments S1–S4.
//
// Usage:
//
//	mdm-bench -exp fig5        # one experiment
//	mdm-bench -all             # everything, in paper order
//	mdm-bench -list            # list experiment ids
//
// Outputs are plain text, suitable for diffing between runs.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"mdm"
	"mdm/internal/apisim"
	"mdm/internal/federate"
	"mdm/internal/relalg"
	"mdm/internal/rewrite"
	"mdm/internal/rewrite/gav"
	"mdm/internal/usecase"
	"mdm/internal/wrapper"
)

type experiment struct {
	id, title string
	run       func(ctx context.Context) error
}

func experiments() []experiment {
	return []experiment{
		{"fig1", "Figure 1: UML of the motivational use case", runFig1},
		{"fig2", "Figure 2: sample payloads of the Players and Teams APIs", runFig2},
		{"fig4", "Figure 4: high-level architecture smoke test (all four interactions)", runFig4},
		{"fig5", "Figure 5: global graph of the motivational use case", runFig5},
		{"fig6", "Figure 6: source graph of the motivational use case", runFig6},
		{"fig7", "Figure 7: LAV mappings of the motivational use case", runFig7},
		{"fig8", "Figure 8: OMQ -> SPARQL -> relational algebra", runFig8},
		{"table1", "Table 1: sample output of the exemplary query", runTable1},
		{"setup", "Demo scenario 1: system setup", runSetup},
		{"omq", "Demo scenario 2: ontology-mediated queries", runOMQ},
		{"evolution", "Demo scenario 3: governance of evolution", runEvolution},
		{"s1", "S1: rewriting cost vs number of wrapper versions per source", runS1},
		{"s2", "S2: rewriting cost vs walk size (number of concepts)", runS2},
		{"s3", "S3: federated execution vs row count", runS3},
		{"s4", "S4: GAV baseline vs LAV under schema evolution", runS4},
	}
}

func main() {
	exp := flag.String("exp", "", "experiment id to run")
	all := flag.Bool("all", false, "run every experiment")
	list := flag.Bool("list", false, "list experiment ids")
	flag.Parse()

	exps := experiments()
	if *list {
		for _, e := range exps {
			fmt.Printf("%-10s %s\n", e.id, e.title)
		}
		return
	}
	ctx := context.Background()
	run := func(e experiment) {
		fmt.Printf("=== %s — %s ===\n", e.id, e.title)
		if err := e.run(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "mdm-bench: %s: %v\n", e.id, err)
			os.Exit(1)
		}
		fmt.Println()
	}
	if *all {
		for _, e := range exps {
			run(e)
		}
		return
	}
	for _, e := range exps {
		if e.id == *exp {
			run(e)
			return
		}
	}
	fmt.Fprintf(os.Stderr, "mdm-bench: unknown experiment %q (use -list)\n", *exp)
	os.Exit(1)
}

// --- paper artifacts ---

func runFig1(context.Context) error {
	fmt.Print(`UML domain model (conceptualized as in Figure 1):

  Player(id, name, height, weight, rating, preferredFoot)
  SportsTeam(id, name, shortName)
  League(id, name)
  Country(id, name)

  Player        --playsIn-->        SportsTeam
  SportsTeam    --competesIn-->     League
  League        --inCountry-->      Country
  Player        --hasNationality--> Country
`)
	return nil
}

func runFig2(ctx context.Context) error {
	provider := apisim.NewFootball()
	defer provider.Close()
	for _, ep := range []struct{ label, path string }{
		{"Players API (JSON)", "/v1/players"},
		{"Teams API (XML)", "/v1/teams"},
	} {
		body, ct, err := fetch(ctx, provider.URL()+ep.path)
		if err != nil {
			return err
		}
		fmt.Printf("-- %s [%s] --\n%s\n", ep.label, ct, truncate(body, 400))
	}
	return nil
}

func runFig4(ctx context.Context) error {
	// All four interactions end-to-end: (a) global graph definition,
	// (b) wrapper registration, (c) LAV mappings, (d) querying.
	f, err := usecase.New()
	if err != nil {
		return err
	}
	sys := mdm.FromParts(f.Ont, f.Reg)
	st := sys.Stats()
	fmt.Printf("(a) global graph defined: %d concepts, %d features, %d relations\n",
		st.Concepts, st.Features, st.Relations)
	fmt.Printf("(b) wrappers registered:  %d sources, %d wrappers, %d attributes\n",
		st.Sources, st.Wrappers, st.Attributes)
	fmt.Printf("(c) LAV mappings defined: %d mappings, %d sameAs links\n",
		st.Mappings, st.SameAs)
	rel, res, err := sys.Query(ctx, usecase.Fig8Walk())
	if err != nil {
		return err
	}
	fmt.Printf("(d) OMQ answered:         %d rows from %d conjunctive queries\n",
		rel.Len(), len(res.CQs))
	if v := sys.Validate(); len(v) != 0 {
		return fmt.Errorf("integrity violations: %v", v)
	}
	fmt.Println("integrity constraints:    all satisfied")
	return nil
}

func runFig5(context.Context) error {
	f, err := usecase.New()
	if err != nil {
		return err
	}
	fmt.Print(f.Ont.RenderGlobal())
	return nil
}

func runFig6(context.Context) error {
	f, err := usecase.New()
	if err != nil {
		return err
	}
	fmt.Print(f.Ont.RenderSource())
	return nil
}

func runFig7(context.Context) error {
	f, err := usecase.New()
	if err != nil {
		return err
	}
	fmt.Print(f.Ont.RenderMappings())
	return nil
}

func runFig8(context.Context) error {
	f, err := usecase.New()
	if err != nil {
		return err
	}
	res, err := rewrite.New(f.Ont, f.Reg).Rewrite(usecase.Fig8Walk())
	if err != nil {
		return err
	}
	fmt.Println("-- Walk (drawn contour): Player.playerName, SportsTeam.teamName via playsIn --")
	fmt.Println("\n-- Equivalent SPARQL --")
	fmt.Println(res.SPARQL)
	fmt.Println("\n-- Relational algebra over the wrappers --")
	for _, cq := range res.CQs {
		fmt.Println(" ", cq.Algebra())
	}
	return nil
}

func runTable1(ctx context.Context) error {
	f, err := usecase.New()
	if err != nil {
		return err
	}
	sys := mdm.FromParts(f.Ont, f.Reg)
	rel, _, err := sys.Query(ctx, usecase.Fig8Walk())
	if err != nil {
		return err
	}
	rel.Sort()
	fmt.Print(rel.Table())
	return nil
}

// --- demo scenarios ---

func runSetup(ctx context.Context) error {
	provider := apisim.NewFootball()
	defer provider.Close()
	sys := mdm.New()
	sys.BindPrefix("ex", usecase.EX)
	sys.BindPrefix("sc", "http://schema.org/")

	steps := []struct {
		what string
		err  error
	}{
		{"concept ex:Player", sys.AddConcept("ex:Player", "Player")},
		{"concept sc:SportsTeam (reused vocabulary)", sys.AddConcept("sc:SportsTeam", "SportsTeam")},
	}
	for _, s := range steps {
		if s.err != nil {
			return s.err
		}
		fmt.Println("defined", s.what)
	}
	for _, fd := range []struct{ iri, concept string }{
		{"ex:playerId", "ex:Player"}, {"ex:playerName", "ex:Player"},
		{"ex:teamId", "sc:SportsTeam"}, {"ex:teamName", "sc:SportsTeam"},
	} {
		if err := sys.AddFeature(fd.iri, ""); err != nil {
			return err
		}
		if err := sys.AttachFeature(fd.concept, fd.iri); err != nil {
			return err
		}
	}
	_ = sys.MarkIdentifier("ex:playerId")
	_ = sys.MarkIdentifier("ex:teamId")
	_ = sys.RelateConcepts("ex:Player", "ex:playsIn", "sc:SportsTeam")
	fmt.Println("defined features and identifiers; related Player --playsIn--> SportsTeam")

	if err := sys.AddSource("players-api", "Players API"); err != nil {
		return err
	}
	if err := sys.AddSource("teams-api", "Teams API"); err != nil {
		return err
	}
	w1, err := wrapper.NewHTTP(ctx, "w1", "players-api", provider.URL()+"/v1/players",
		wrapper.WithRename("name", "pName"),
		wrapper.WithRename("preferred_foot", "foot"),
		wrapper.WithRename("team_id", "teamId"),
		wrapper.WithRename("rating", "score"))
	if err != nil {
		return err
	}
	rel1, err := sys.RegisterWrapper(w1)
	if err != nil {
		return err
	}
	fmt.Println(rel1.Summary())
	fmt.Println("  extracted signature:", w1.Signature())

	w2, err := wrapper.NewHTTP(ctx, "w2", "teams-api", provider.URL()+"/v1/teams")
	if err != nil {
		return err
	}
	rel2, err := sys.RegisterWrapper(w2)
	if err != nil {
		return err
	}
	fmt.Println(rel2.Summary())
	fmt.Println("  extracted signature:", w2.Signature())

	if err := sys.DefineMapping(mdm.Mapping{
		Wrapper: "w1",
		Subgraph: []mdm.Triple{
			mdm.T(sys.IRI("ex:Player"), sys.IRI("rdf:type"), sys.IRI("G:Concept")),
			mdm.T(sys.IRI("ex:Player"), sys.IRI("G:hasFeature"), sys.IRI("ex:playerId")),
			mdm.T(sys.IRI("ex:Player"), sys.IRI("G:hasFeature"), sys.IRI("ex:playerName")),
			mdm.T(sys.IRI("ex:Player"), sys.IRI("ex:playsIn"), sys.IRI("sc:SportsTeam")),
			mdm.T(sys.IRI("sc:SportsTeam"), sys.IRI("rdf:type"), sys.IRI("G:Concept")),
			mdm.T(sys.IRI("sc:SportsTeam"), sys.IRI("G:hasFeature"), sys.IRI("ex:teamId")),
		},
		SameAs: map[string]mdm.Term{
			"id": sys.IRI("ex:playerId"), "pName": sys.IRI("ex:playerName"),
			"teamId": sys.IRI("ex:teamId"),
		},
	}); err != nil {
		return err
	}
	if err := sys.DefineMapping(mdm.Mapping{
		Wrapper: "w2",
		Subgraph: []mdm.Triple{
			mdm.T(sys.IRI("sc:SportsTeam"), sys.IRI("rdf:type"), sys.IRI("G:Concept")),
			mdm.T(sys.IRI("sc:SportsTeam"), sys.IRI("G:hasFeature"), sys.IRI("ex:teamId")),
			mdm.T(sys.IRI("sc:SportsTeam"), sys.IRI("G:hasFeature"), sys.IRI("ex:teamName")),
		},
		SameAs: map[string]mdm.Term{
			"id": sys.IRI("ex:teamId"), "name": sys.IRI("ex:teamName"),
		},
	}); err != nil {
		return err
	}
	fmt.Println("defined LAV mappings for w1 (red contour) and w2 (green contour)")
	if v := sys.Validate(); len(v) > 0 {
		return fmt.Errorf("violations: %v", v)
	}
	fmt.Println("ontology consistent")
	return nil
}

func runOMQ(ctx context.Context) error {
	f, err := usecase.New()
	if err != nil {
		return err
	}
	sys := mdm.FromParts(f.Ont, f.Reg)

	fmt.Println("Q1: names of players and their teams (Figure 8)")
	if err := showQuery(ctx, sys, usecase.Fig8Walk()); err != nil {
		return err
	}
	fmt.Println("\nQ2: who are the players that play in a league of their nationality?")
	if err := showQuery(ctx, sys, usecase.NationalityWalk()); err != nil {
		return err
	}
	fmt.Println("\nQ3: player heights (single concept, single wrapper)")
	q3 := mdm.NewWalk().
		SelectAs(usecase.Player, usecase.PlayerName, "player").
		SelectAs(usecase.Player, usecase.Height, "height")
	return showQuery(ctx, sys, q3)
}

func showQuery(ctx context.Context, sys *mdm.System, w *mdm.Walk) error {
	rel, res, err := sys.Query(ctx, w)
	if err != nil {
		return err
	}
	for _, cq := range res.CQs {
		fmt.Println("  CQ:", cq.Algebra())
	}
	rel.Sort()
	fmt.Print(indent(rel.Table(), "  "))
	return nil
}

func runEvolution(ctx context.Context) error {
	f, err := usecase.New()
	if err != nil {
		return err
	}
	sys := mdm.FromParts(f.Ont, f.Reg)
	fmt.Println("step 1: query before the release")
	if err := showQuery(ctx, sys, usecase.Fig8Walk()); err != nil {
		return err
	}
	fmt.Println("\nstep 2: players API ships breaking v2 (pName->fullName, weight/score dropped, position added)")
	if err := f.ReleasePlayersV2(); err != nil {
		return err
	}
	fmt.Println("  registered wrapper w1v2 for the SAME data source + LAV mapping; nothing else changed")
	fmt.Println("\nstep 3: the same query now fetches BOTH schema versions (union of CQs)")
	if err := showQuery(ctx, sys, usecase.Fig8Walk()); err != nil {
		return err
	}
	fmt.Println("\nstep 4: the new v2-only feature is queryable too")
	return showQuery(ctx, sys, usecase.PositionWalk())
}

// --- extension sweeps (S1-S4) ---

func runS1(ctx context.Context) error {
	fmt.Println("versions  CQs  rewrite_time")
	for _, versions := range []int{1, 2, 4, 8, 16, 32} {
		f, reg, walk := syntheticVersions(versions)
		r := rewrite.New(f, reg)
		start := time.Now()
		res, err := r.Rewrite(walk)
		if err != nil {
			return err
		}
		fmt.Printf("%-9d %-4d %v\n", versions, len(res.CQs), time.Since(start).Round(time.Microsecond))
	}
	return nil
}

func runS2(ctx context.Context) error {
	fmt.Println("concepts  CQs  rewrite_time")
	for _, n := range []int{1, 2, 4, 8, 16, 32} {
		ont, reg, walk := syntheticChain(n)
		r := rewrite.New(ont, reg)
		start := time.Now()
		res, err := r.Rewrite(walk)
		if err != nil {
			return err
		}
		fmt.Printf("%-9d %-4d %v\n", n, len(res.CQs), time.Since(start).Round(time.Microsecond))
	}
	return nil
}

func runS3(ctx context.Context) error {
	fmt.Println("rows_per_wrapper  result_rows  exec_time")
	for _, n := range []int{100, 1000, 10000, 100000} {
		f := usecase.MustNew()
		f.W1.SetDocs(syntheticPlayers(n))
		f.W2.SetDocs(syntheticTeams(n / 10))
		sys := mdm.FromParts(f.Ont, f.Reg)
		start := time.Now()
		rel, _, err := sys.Query(ctx, usecase.Fig8Walk())
		if err != nil {
			return err
		}
		fmt.Printf("%-17d %-12d %v\n", n, rel.Len(), time.Since(start).Round(time.Microsecond))
	}
	return nil
}

func runS4(ctx context.Context) error {
	f := usecase.MustNew()
	gavMap := gav.FromLAV(f.Ont)
	walk := usecase.Fig8Walk()

	fmt.Println("phase 1 (before evolution): both answer the Fig.8 query")
	lavRes, err := rewrite.New(f.Ont, f.Reg).Rewrite(walk)
	if err != nil {
		return err
	}
	lavRel, err := execute(ctx, lavRes.Plan)
	if err != nil {
		return err
	}
	gavPlan, err := gav.New(f.Ont, f.Reg, gavMap).Rewrite(walk)
	if err != nil {
		return err
	}
	gavRel, err := execute(ctx, gavPlan)
	if err != nil {
		return err
	}
	fmt.Printf("  LAV rows=%d  GAV rows=%d\n", lavRel.Len(), gavRel.Len())

	fmt.Println("phase 2: players API replaces its schema in place (breaking)")
	f.W1.SetDocs(usecase.PlayersV2Docs())
	brokenReg := wrapper.NewRegistry()
	_ = brokenReg.Register(wrapper.NewMem("w1", usecase.SrcPlayers, usecase.PlayersV2Docs(), nil))
	for _, n := range []string{"w2", "w3", "w4", "w5", "w6"} {
		w, _ := f.Reg.Get(n)
		_ = brokenReg.Register(w)
	}
	if _, err := gav.New(f.Ont, brokenReg, gavMap).Rewrite(walk); err != nil {
		fmt.Printf("  GAV: query CRASHES: %v\n", err)
	} else {
		fmt.Println("  GAV: unexpectedly survived (should not happen)")
	}
	fmt.Printf("  GAV: steward must manually redefine %d bindings referencing w1\n",
		gavMap.BindingsReferencing("w1"))

	fmt.Println("phase 3: LAV governance: register w1v2 + one LAV mapping (existing mappings untouched)")
	if err := f.ReleasePlayersV2(); err != nil {
		return err
	}
	lavRes2, err := rewrite.New(f.Ont, f.Reg).Rewrite(walk)
	if err != nil {
		return err
	}
	lavRel2, err := execute(ctx, lavRes2.Plan)
	if err != nil {
		return err
	}
	fmt.Printf("  LAV: query answers from %d schema versions, rows=%d\n",
		len(lavRes2.CQs), lavRel2.Len())
	return nil
}

// execute runs a plan the way the server does: through the federate
// engine, materialized.
func execute(ctx context.Context, plan relalg.Plan) (*relalg.Relation, error) {
	cur, err := federate.NewEngine().Run(ctx, plan)
	if err != nil {
		return nil, err
	}
	return cur.Materialize(ctx)
}

// --- synthetic fixtures live in internal/usecase (shared with the
// testing.B benches in bench_test.go) ---

var (
	syntheticVersions = usecase.SyntheticVersions
	syntheticChain    = usecase.SyntheticChain
	syntheticPlayers  = usecase.SyntheticPlayers
	syntheticTeams    = usecase.SyntheticTeams
)

// --- utilities ---

var httpClient = &http.Client{Timeout: 10 * time.Second}

func fetch(ctx context.Context, url string) (string, string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return "", "", err
	}
	resp, err := httpClient.Do(req)
	if err != nil {
		return "", "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", "", err
	}
	return string(body), resp.Header.Get("Content-Type"), nil
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "…"
}

func indent(s, prefix string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i := range lines {
		lines[i] = prefix + lines[i]
	}
	return strings.Join(lines, "\n") + "\n"
}
