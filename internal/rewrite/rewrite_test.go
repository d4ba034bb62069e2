package rewrite_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	"mdm"
	"mdm/internal/bdi"
	"mdm/internal/rdf"
	"mdm/internal/relalg"
	"mdm/internal/relalg/relalgtest"
	"mdm/internal/rewrite"
	"mdm/internal/schema"
	"mdm/internal/usecase"
	"mdm/internal/wrapper"
)

func mustRewrite(t *testing.T, f *usecase.Fixture, w *rewrite.Walk) *rewrite.Result {
	t.Helper()
	res, err := rewrite.New(f.Ont, f.Reg).Rewrite(w)
	if err != nil {
		t.Fatalf("rewrite: %v", err)
	}
	return res
}

func execute(t *testing.T, res *rewrite.Result) *relalg.Relation {
	t.Helper()
	rel, err := relalgtest.Execute(context.Background(), res.Plan)
	if err != nil {
		t.Fatalf("execute: %v\nplan: %s", err, relalg.Algebra(res.Plan))
	}
	return rel
}

func TestFig8PlayerTeamQuery(t *testing.T) {
	f := usecase.MustNew()
	res := mustRewrite(t, f, usecase.Fig8Walk())

	// Output columns as in Table 1.
	if len(res.OutputColumns) != 2 || res.OutputColumns[0] != "teamName" || res.OutputColumns[1] != "playerName" {
		t.Fatalf("columns = %v", res.OutputColumns)
	}
	// Single CQ: w1 ⋈ w2 on teamId.
	if len(res.CQs) != 1 {
		t.Fatalf("CQs = %d, want 1: %+v", len(res.CQs), res.CQs)
	}
	if got := res.CQs[0].Wrappers; len(got) != 2 || got[0] != "w1" || got[1] != "w2" {
		t.Fatalf("wrappers = %v", got)
	}
	if !strings.Contains(res.CQs[0].Algebra(), "⋈") {
		t.Errorf("algebra missing join: %s", res.CQs[0].Algebra())
	}
	// Expansion added identifiers (playerId and teamId are not projected).
	if len(res.ExpandedFeatures) != 2 {
		t.Errorf("expanded = %v", res.ExpandedFeatures)
	}

	rel := execute(t, res)
	if rel.Len() != 5 {
		t.Fatalf("rows = %d, want 5\n%s", rel.Len(), rel.Table())
	}
	// Table 1's sample rows must be present.
	got := map[string]string{}
	ti, pi := rel.ColIndex("teamName"), rel.ColIndex("playerName")
	for _, row := range rel.Rows {
		got[row[pi].Text()] = row[ti].Text()
	}
	want := map[string]string{
		"Lionel Messi":       "FC Barcelona",
		"Robert Lewandowski": "Bayern Munich",
		"Zlatan Ibrahimovic": "Manchester United",
	}
	for p, team := range want {
		if got[p] != team {
			t.Errorf("row (%s, %s) missing or wrong: got %q", team, p, got[p])
		}
	}
}

func TestFig8SPARQLRendering(t *testing.T) {
	f := usecase.MustNew()
	res := mustRewrite(t, f, usecase.Fig8Walk())
	for _, frag := range []string{
		"SELECT ?teamName ?playerName",
		"rdf:type ex:Player",
		"rdf:type sc:SportsTeam",
		"ex:playsIn",
		"?playerName",
	} {
		if !strings.Contains(res.SPARQL, frag) {
			t.Errorf("SPARQL missing %q:\n%s", frag, res.SPARQL)
		}
	}
}

func TestSingleConceptSingleWrapper(t *testing.T) {
	f := usecase.MustNew()
	w := rewrite.NewWalk().SelectAs(usecase.Country, usecase.CountryName, "country")
	res := mustRewrite(t, f, w)
	if len(res.CQs) != 1 || len(res.CQs[0].Wrappers) != 1 || res.CQs[0].Wrappers[0] != "w4" {
		t.Fatalf("CQs = %+v", res.CQs)
	}
	rel := execute(t, res)
	if rel.Len() != 6 {
		t.Fatalf("countries = %d", rel.Len())
	}
}

func TestIntraConceptJoinAcrossWrappersOfOneConcept(t *testing.T) {
	// Player name (w1) + nationality country id (w5) — two wrappers of
	// the same concept joined on playerId (intra-concept generation).
	f := usecase.MustNew()
	w := rewrite.NewWalk().
		SelectAs(usecase.Player, usecase.PlayerName, "name").
		Relate(usecase.Player, usecase.HasNationality, usecase.Country).
		SelectAs(usecase.Country, usecase.CountryName, "country")
	res := mustRewrite(t, f, w)
	rel := execute(t, res)
	if rel.Len() != 5 {
		t.Fatalf("rows = %d\n%s", rel.Len(), rel.Table())
	}
	ni, ci := rel.ColIndex("name"), rel.ColIndex("country")
	byName := map[string]string{}
	for _, r := range rel.Rows {
		byName[r[ni].Text()] = r[ci].Text()
	}
	if byName["Lionel Messi"] != "Argentina" || byName["Harry Kane"] != "England" {
		t.Errorf("nationalities = %v", byName)
	}
}

func TestNationalityQueryFourConcepts(t *testing.T) {
	// The paper's exemplary OMQ: players that play in a league of their
	// nationality — Country reached via two paths, joined on countryId.
	f := usecase.MustNew()
	res := mustRewrite(t, f, usecase.NationalityWalk())
	rel := execute(t, res)
	names := map[string]bool{}
	pi := rel.ColIndex("playerName")
	for _, r := range rel.Rows {
		names[r[pi].Text()] = true
	}
	if !names["Harry Kane"] || !names["Marcus Rashford"] {
		t.Errorf("expected Kane and Rashford, got %v\n%s", names, rel.Table())
	}
	if names["Lionel Messi"] || names["Zlatan Ibrahimovic"] {
		t.Errorf("non-matching players leaked: %v", names)
	}
	if rel.Len() != 2 {
		t.Errorf("rows = %d\n%s", rel.Len(), rel.Table())
	}
}

func TestEvolutionUnionOfSchemaVersions(t *testing.T) {
	// Governance of evolution: after the v2 release the same walk is
	// answered by both wrapper versions, unioned.
	f := usecase.MustNew()
	before := mustRewrite(t, f, usecase.Fig8Walk())
	if len(before.CQs) != 1 {
		t.Fatalf("CQs before release = %d", len(before.CQs))
	}
	if err := f.ReleasePlayersV2(); err != nil {
		t.Fatal(err)
	}
	after := mustRewrite(t, f, usecase.Fig8Walk())
	if len(after.CQs) != 2 {
		t.Fatalf("CQs after release = %d, want 2 (one per schema version)", len(after.CQs))
	}
	var sawV1, sawV2 bool
	for _, cq := range after.CQs {
		for _, w := range cq.Wrappers {
			if w == "w1" {
				sawV1 = true
			}
			if w == "w1v2" {
				sawV2 = true
			}
		}
	}
	if !sawV1 || !sawV2 {
		t.Fatalf("both versions must contribute: %+v", after.CQs)
	}

	rel := execute(t, after)
	names := map[string]bool{}
	pi := rel.ColIndex("playerName")
	for _, r := range rel.Rows {
		names[r[pi].Text()] = true
	}
	// Old-only player (Zlatan, v1), new-only player (Pedri, v2) and a
	// player present in both versions (Messi, deduplicated).
	for _, want := range []string{"Zlatan Ibrahimovic", "Pedri", "Lionel Messi"} {
		if !names[want] {
			t.Errorf("missing %s in unioned result\n%s", want, rel.Table())
		}
	}
	messi := 0
	for _, r := range rel.Rows {
		if r[pi].Text() == "Lionel Messi" {
			messi++
		}
	}
	if messi != 1 {
		t.Errorf("Messi appears %d times; union should deduplicate identical rows", messi)
	}
}

func TestNewFeatureOnlyInV2(t *testing.T) {
	f := usecase.MustNew()
	// Before the release, position is not even a feature: walk invalid.
	if _, err := rewrite.New(f.Ont, f.Reg).Rewrite(usecase.PositionWalk()); err == nil {
		t.Fatal("position query should fail before v2 release")
	}
	if err := f.ReleasePlayersV2(); err != nil {
		t.Fatal(err)
	}
	res := mustRewrite(t, f, usecase.PositionWalk())
	if len(res.CQs) != 1 || res.CQs[0].Wrappers[0] != "w1v2" {
		t.Fatalf("CQs = %+v, want only w1v2", res.CQs)
	}
	rel := execute(t, res)
	if rel.Len() != 4 {
		t.Errorf("v2 rows = %d\n%s", rel.Len(), rel.Table())
	}
}

func TestWalkValidation(t *testing.T) {
	f := usecase.MustNew()
	r := rewrite.New(f.Ont, f.Reg)
	cases := []struct {
		name string
		walk *rewrite.Walk
	}{
		{"empty", rewrite.NewWalk()},
		{"unknown concept", rewrite.NewWalk().Select(usecase.PlayerID, usecase.PlayerName)},
		{"feature of other concept", rewrite.NewWalk().Select(usecase.Team, usecase.PlayerName)},
		{"disconnected", rewrite.NewWalk().
			Select(usecase.Player, usecase.PlayerName).
			Select(usecase.Country, usecase.CountryName)},
		{"unknown relation", rewrite.NewWalk().
			Select(usecase.Player, usecase.PlayerName).
			Relate(usecase.Player, usecase.InCountry, usecase.Country)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := r.Rewrite(c.walk); err == nil {
				t.Error("expected validation error")
			}
		})
	}
}

func TestUnanswerableFeature(t *testing.T) {
	f := usecase.MustNew()
	// Declare a feature no wrapper maps.
	phantom := rdf.IRI(usecase.EX + "phantom")
	o := f.Ont
	if err := o.AddFeature(phantom, "phantom"); err != nil {
		t.Fatal(err)
	}
	if err := o.AttachFeature(usecase.Player, phantom); err != nil {
		t.Fatal(err)
	}
	w := rewrite.NewWalk().Select(usecase.Player, phantom)
	if _, err := rewrite.New(f.Ont, f.Reg).Rewrite(w); err == nil {
		t.Fatal("phantom feature should be unanswerable")
	} else if !strings.Contains(err.Error(), "phantom") {
		t.Errorf("error should name the missing feature: %v", err)
	}
}

func TestConceptWithoutIdentifierRejected(t *testing.T) {
	f := usecase.MustNew()
	o := f.Ont
	orphan := rdf.IRI(usecase.EX + "Orphan")
	name := rdf.IRI(usecase.EX + "orphanName")
	if err := o.AddConcept(orphan, "Orphan"); err != nil {
		t.Fatal(err)
	}
	if err := o.AddFeature(name, "orphanName"); err != nil {
		t.Fatal(err)
	}
	if err := o.AttachFeature(orphan, name); err != nil {
		t.Fatal(err)
	}
	w := rewrite.NewWalk().Select(orphan, name)
	if _, err := rewrite.New(f.Ont, f.Reg).Rewrite(w); err == nil {
		t.Fatal("concept without identifier should fail query expansion")
	} else if !strings.Contains(err.Error(), "identifier") {
		t.Errorf("error = %v", err)
	}
}

// TestCombinationBoundRefusesTheWalk: a rewriting with more wrapper
// combinations than the search enumerates is an error, not a union cut
// off at the bound; exactly the bound still answers; and the refusal is
// not remembered — the same rewriter answers once the walk fits.
func TestCombinationBoundRefusesTheWalk(t *testing.T) {
	ont, reg, walk := usecase.SyntheticVersions(4) // 4 player versions: 4 CQs
	r := rewrite.New(ont, reg)
	restore := rewrite.SetMaxCombos(3)
	for i := 0; i < 2; i++ {
		_, err := r.Rewrite(walk)
		var tooMany *rewrite.TooManyCQsError
		if !errors.As(err, &tooMany) || tooMany.Limit != 3 || !strings.Contains(err.Error(), "rewriting exceeds 3 conjunctive queries") {
			t.Fatalf("attempt %d: err = %v, want TooManyCQsError{3}", i, err)
		}
		if n := r.Cached(); n != 0 {
			t.Fatalf("attempt %d: %d memo entries after a refused walk, want 0", i, n)
		}
	}
	restore()
	defer rewrite.SetMaxCombos(4)()
	res, err := r.Rewrite(walk)
	if err != nil || len(res.CQs) != 4 {
		t.Fatalf("at the bound: %d CQs, err %v; want all 4", len(res.CQs), err)
	}
}

func TestWalkBuilderIdempotence(t *testing.T) {
	w := rewrite.NewWalk().
		Select(usecase.Player, usecase.PlayerName).
		Select(usecase.Player, usecase.PlayerName).
		AddConcept(usecase.Player).
		Relate(usecase.Player, usecase.PlaysIn, usecase.Team).
		Relate(usecase.Player, usecase.PlaysIn, usecase.Team)
	if len(w.Concepts) != 2 {
		t.Errorf("concepts = %v", w.Concepts)
	}
	if len(w.Features[usecase.Player]) != 1 {
		t.Errorf("features = %v", w.Features[usecase.Player])
	}
	if len(w.Relations) != 1 {
		t.Errorf("relations = %v", w.Relations)
	}
}

func TestProjectedFeaturesOrder(t *testing.T) {
	w := usecase.Fig8Walk()
	feats := w.ProjectedFeatures()
	if len(feats) != 2 || feats[0] != usecase.TeamName || feats[1] != usecase.PlayerName {
		t.Errorf("projection order = %v", feats)
	}
}

// TestTaxonomyAwareCoverage: paper §2.1 allows concept taxonomies. A
// wrapper whose mapping types a SUBCLASS (ex:Goalkeeper) must contribute
// to queries over the superclass (ex:Player), since its tuples are
// players too.
func TestTaxonomyAwareCoverage(t *testing.T) {
	f := usecase.MustNew()
	o := f.Ont
	goalkeeper := rdf.IRI(usecase.EX + "Goalkeeper")
	if err := o.AddConcept(goalkeeper, "Goalkeeper"); err != nil {
		t.Fatal(err)
	}
	if err := o.AddSubClass(goalkeeper, usecase.Player); err != nil {
		t.Fatal(err)
	}
	// A goalkeepers API: new source with one wrapper typed as Goalkeeper
	// but populating the Player features (its subgraph uses Player's
	// hasFeature edges, which is legal: they are global-graph triples).
	if err := o.AddDataSource("keepers-api", "Goalkeepers API"); err != nil {
		t.Fatal(err)
	}
	kw := wrapper.NewMem("wk", "keepers-api", []schema.Doc{
		{"id": relalg.Int(9900), "kName": relalg.String("Marc-Andre ter Stegen"), "teamId": relalg.Int(25)},
	}, nil)
	if _, err := mdm.FromParts(o, f.Reg).RegisterWrapper(kw); err != nil {
		t.Fatal(err)
	}
	rt := rdf.IRI("http://www.w3.org/1999/02/22-rdf-syntax-ns#type")
	if err := o.DefineMapping(bdi.Mapping{
		Wrapper: "wk",
		Subgraph: []rdf.Triple{
			rdf.T(goalkeeper, rt, bdi.ClassConcept),
			rdf.T(usecase.Player, bdi.PropHasFeature, usecase.PlayerID),
			rdf.T(usecase.Player, bdi.PropHasFeature, usecase.PlayerName),
			rdf.T(usecase.Player, usecase.PlaysIn, usecase.Team),
			rdf.T(usecase.Team, rt, bdi.ClassConcept),
			rdf.T(usecase.Team, bdi.PropHasFeature, usecase.TeamID),
		},
		SameAs: map[string]rdf.Term{
			"id": usecase.PlayerID, "kName": usecase.PlayerName, "teamId": usecase.TeamID,
		},
	}); err != nil {
		t.Fatal(err)
	}

	res := mustRewrite(t, f, usecase.Fig8Walk())
	// Two CQs now: the w1-based one and the goalkeeper-based one.
	if len(res.CQs) != 2 {
		t.Fatalf("CQs = %d (%v)", len(res.CQs), res.CQs)
	}
	rel := execute(t, res)
	names := map[string]bool{}
	pi := rel.ColIndex("playerName")
	for _, r := range rel.Rows {
		names[r[pi].Text()] = true
	}
	if !names["Marc-Andre ter Stegen"] {
		t.Errorf("subclass wrapper rows missing:\n%s", rel.Table())
	}
	if !names["Lionel Messi"] {
		t.Errorf("superclass wrapper rows missing:\n%s", rel.Table())
	}
}

// TestSubclassConceptQuery: with feature inheritance, a walk over the
// SUBCLASS concept itself (Goalkeeper) uses the superclass's features
// and identifier, and is answered by the subclass's wrapper only.
func TestSubclassConceptQuery(t *testing.T) {
	f := usecase.MustNew()
	o := f.Ont
	goalkeeper := rdf.IRI(usecase.EX + "Goalkeeper")
	if err := o.AddConcept(goalkeeper, "Goalkeeper"); err != nil {
		t.Fatal(err)
	}
	if err := o.AddSubClass(goalkeeper, usecase.Player); err != nil {
		t.Fatal(err)
	}
	if err := o.AddDataSource("keepers-api", ""); err != nil {
		t.Fatal(err)
	}
	kw := wrapper.NewMem("wk", "keepers-api", []schema.Doc{
		{"id": relalg.Int(9900), "kName": relalg.String("Marc-Andre ter Stegen")},
	}, nil)
	if _, err := mdm.FromParts(o, f.Reg).RegisterWrapper(kw); err != nil {
		t.Fatal(err)
	}
	rt := rdf.IRI("http://www.w3.org/1999/02/22-rdf-syntax-ns#type")
	if err := o.DefineMapping(bdi.Mapping{
		Wrapper: "wk",
		Subgraph: []rdf.Triple{
			rdf.T(goalkeeper, rt, bdi.ClassConcept),
			rdf.T(usecase.Player, bdi.PropHasFeature, usecase.PlayerID),
			rdf.T(usecase.Player, bdi.PropHasFeature, usecase.PlayerName),
		},
		SameAs: map[string]rdf.Term{"id": usecase.PlayerID, "kName": usecase.PlayerName},
	}); err != nil {
		t.Fatal(err)
	}

	// Walk over Goalkeeper with the inherited playerName feature.
	w := rewrite.NewWalk().SelectAs(goalkeeper, usecase.PlayerName, "name")
	res := mustRewrite(t, f, w)
	rel := execute(t, res)
	// Answered by wk only? w1 types ex:Player which is NOT a subclass of
	// Goalkeeper, so wk is the only covering wrapper.
	for _, cq := range res.CQs {
		for _, wn := range cq.Wrappers {
			if wn != "wk" {
				t.Errorf("unexpected wrapper %s answering Goalkeeper walk", wn)
			}
		}
	}
	if rel.Len() != 1 || rel.Rows[0][0].Text() != "Marc-Andre ter Stegen" {
		t.Errorf("goalkeeper rows:\n%s", rel.Table())
	}
}
