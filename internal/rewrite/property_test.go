package rewrite_test

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"

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

// conceptFeatures enumerates the fixture's (concept, feature) space for
// random walk generation.
var conceptFeatures = []struct {
	concept rdf.Term
	feats   []rdf.Term
}{
	{usecase.Player, []rdf.Term{usecase.PlayerID, usecase.PlayerName, usecase.Height, usecase.Weight, usecase.Rating, usecase.Foot}},
	{usecase.Team, []rdf.Term{usecase.TeamID, usecase.TeamName, usecase.TeamShortName}},
	{usecase.League, []rdf.Term{usecase.LeagueID, usecase.LeagueName}},
	{usecase.Country, []rdf.Term{usecase.CountryID, usecase.CountryName}},
}

// relationsBetween connects adjacent concepts of the fixture.
var fixtureRelations = []rdf.Triple{
	rdf.T(usecase.Player, usecase.PlaysIn, usecase.Team),
	rdf.T(usecase.Team, usecase.CompetesIn, usecase.League),
	rdf.T(usecase.League, usecase.InCountry, usecase.Country),
	rdf.T(usecase.Player, usecase.HasNationality, usecase.Country),
}

// randomWalk picks a connected prefix of the concept chain and a random
// non-empty feature subset per concept.
func randomWalk(r *rand.Rand) *rewrite.Walk {
	n := 1 + r.Intn(len(conceptFeatures)) // 1..4 concepts along the chain
	w := rewrite.NewWalk()
	for i := 0; i < n; i++ {
		cf := conceptFeatures[i]
		// Non-empty random feature subset.
		k := 1 + r.Intn(len(cf.feats))
		perm := r.Perm(len(cf.feats))
		for _, j := range perm[:k] {
			w.Select(cf.concept, cf.feats[j])
		}
	}
	// Chain relations connect the prefix: Player->Team->League->Country.
	for i := 0; i < n-1; i++ {
		rel := fixtureRelations[i]
		w.Relate(rel.S, rel.P, rel.O)
	}
	return w
}

// TestPropRandomWalksRewriteAndExecute: every connected walk over the
// fixture rewrites without error and the result schema matches the
// projection.
func TestPropRandomWalksRewriteAndExecute(t *testing.T) {
	f := usecase.MustNew()
	r := rewrite.New(f.Ont, f.Reg)
	ctx := context.Background()
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w := randomWalk(rng)
		res, err := r.Rewrite(w)
		if err != nil {
			t.Logf("seed %d: rewrite failed: %v", seed, err)
			return false
		}
		if len(res.OutputColumns) != len(w.ProjectedFeatures()) {
			t.Logf("seed %d: columns %v vs features %v", seed, res.OutputColumns, w.ProjectedFeatures())
			return false
		}
		rel, err := relalgtest.Execute(ctx, res.Plan)
		if err != nil {
			t.Logf("seed %d: execute failed: %v", seed, err)
			return false
		}
		if len(rel.Cols) != len(res.OutputColumns) {
			return false
		}
		for i := range rel.Cols {
			if rel.Cols[i] != res.OutputColumns[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestPropAllCQsShareSchema: every conjunctive query in a union projects
// the same columns (a structural invariant of the rewriting).
func TestPropAllCQsShareSchema(t *testing.T) {
	f := usecase.MustNew()
	if err := f.ReleasePlayersV2(); err != nil {
		t.Fatal(err)
	}
	r := rewrite.New(f.Ont, f.Reg)
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w := randomWalk(rng)
		res, err := r.Rewrite(w)
		if err != nil {
			return false
		}
		return len(res.CQs) >= 1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestPropEvolutionMonotonicity: registering an additional schema
// version never removes rows from a query answer (LAV certain answers
// grow monotonically with sources).
func TestPropEvolutionMonotonicity(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		// Walks over features common to both players-API versions, so
		// both CQs can contribute rows after the release.
		w := rewrite.NewWalk()
		common := []rdf.Term{usecase.PlayerID, usecase.PlayerName, usecase.Height, usecase.Foot}
		k := 1 + rng.Intn(len(common))
		for _, j := range rng.Perm(len(common))[:k] {
			w.Select(usecase.Player, common[j])
		}

		before := usecase.MustNew()
		resB, err := rewrite.New(before.Ont, before.Reg).Rewrite(w)
		if err != nil {
			return false
		}
		relB, err := relalgtest.Execute(context.Background(), resB.Plan)
		if err != nil {
			return false
		}

		after := usecase.MustNew()
		if err := after.ReleasePlayersV2(); err != nil {
			return false
		}
		resA, err := rewrite.New(after.Ont, after.Reg).Rewrite(w)
		if err != nil {
			return false
		}
		relA, err := relalgtest.Execute(context.Background(), resA.Plan)
		if err != nil {
			return false
		}
		// Every pre-release row must survive post-release (dedup may
		// merge, never drop).
		seen := map[string]bool{}
		for _, row := range relA.Rows {
			seen[rowKey(row)] = true
		}
		for _, row := range relB.Rows {
			if !seen[rowKey(row)] {
				t.Logf("seed %d: row lost after release", seed)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func rowKey(row relalg.Row) string {
	out := ""
	for _, v := range row {
		out += relalgtest.Key(v) + "\x00"
	}
	return out
}

// The rewrite cache is validated differentially: whatever is written,
// through whichever path, a long-lived Rewriter must answer like one
// built for the occasion.

// probeWalks are the walks compared after every step: the two the paper
// runs, one single-concept walk, and one that only rewrites once the v2
// release has added ex:position (errors must agree too).
func probeWalks() []*rewrite.Walk {
	return []*rewrite.Walk{
		usecase.Fig8Walk(),
		usecase.NationalityWalk(),
		rewrite.NewWalk().Select(usecase.Player, usecase.Height).Select(usecase.Player, usecase.PlayerName),
		usecase.PositionWalk(),
	}
}

// scans lists the plan's Scan leaves.
func scans(p relalg.Plan, dst []*relalg.Scan) []*relalg.Scan {
	if s, ok := p.(*relalg.Scan); ok {
		return append(dst, s)
	}
	for _, c := range p.Children() {
		dst = scans(c, dst)
	}
	return dst
}

// minimal reports two of sets that are equal, or one that is a strict
// superset of another: a rewriting that holds both is not minimal.
func minimal(sets [][]string) error {
	for i, a := range sets {
		for j, b := range sets {
			switch {
			case i == j || len(b) > len(a):
			case !subsetOf(b, a):
			case len(b) == len(a) && j < i:
				return fmt.Errorf("%v appears twice", a)
			case len(b) < len(a):
				return fmt.Errorf("%v is a strict superset of %v", a, b)
			}
		}
	}
	return nil
}

func subsetOf(a, b []string) bool {
	for _, x := range a {
		if !slices.Contains(b, x) {
			return false
		}
	}
	return true
}

// divergence reports how long's answer for any probe walk differs from a
// fresh Rewriter's over the same ontology and registry: the SPARQL text,
// the output columns, each CQ's wrappers and algebra, the union's
// algebra, the error if there is one — and whether every Scan reads the
// wrapper object currently registered under its name. It also checks
// what every rewriting must be: minimal, in its CQs' wrapper sets and in
// the covers phase (b) finds for each concept, and carrying the program
// its plan runs as.
func divergence(long *rewrite.Rewriter, ont *bdi.Ontology, reg *wrapper.Registry) error {
	for i, w := range probeWalks() {
		fresh := rewrite.New(ont, reg)
		want, wantErr := fresh.Rewrite(w)
		got, gotErr := long.Rewrite(w)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			return fmt.Errorf("walk %d: error %v, fresh rewriter says %v", i, gotErr, wantErr)
		}
		if wantErr != nil {
			continue
		}
		if got.Program == nil {
			return fmt.Errorf("walk %d: the result carries no program", i)
		}
		sets := make([][]string, len(got.CQs))
		for j, cq := range got.CQs {
			sets[j] = cq.Wrappers
		}
		if err := minimal(sets); err != nil {
			return fmt.Errorf("walk %d: CQ wrapper sets: %v", i, err)
		}
		covers, err := fresh.ConceptCovers(w)
		if err != nil {
			return fmt.Errorf("walk %d: phase (b): %v", i, err)
		}
		for j, cs := range covers {
			if err := minimal(cs); err != nil {
				return fmt.Errorf("walk %d: phase (b) covers of %s: %v", i, w.Concepts[j].LocalName(), err)
			}
		}
		if got.SPARQL != want.SPARQL {
			return fmt.Errorf("walk %d: SPARQL\n%s\nfresh rewriter says\n%s", i, got.SPARQL, want.SPARQL)
		}
		if g, w := strings.Join(got.OutputColumns, ","), strings.Join(want.OutputColumns, ","); g != w {
			return fmt.Errorf("walk %d: columns %s, fresh rewriter says %s", i, g, w)
		}
		if len(got.CQs) != len(want.CQs) {
			return fmt.Errorf("walk %d: %d CQs, fresh rewriter says %d", i, len(got.CQs), len(want.CQs))
		}
		for j := range got.CQs {
			if g, w := strings.Join(got.CQs[j].Wrappers, ","), strings.Join(want.CQs[j].Wrappers, ","); g != w {
				return fmt.Errorf("walk %d CQ %d: wrappers %s, fresh rewriter says %s", i, j, g, w)
			}
			if g, w := got.CQs[j].Algebra(), want.CQs[j].Algebra(); g != w {
				return fmt.Errorf("walk %d CQ %d: algebra %s, fresh rewriter says %s", i, j, g, w)
			}
		}
		if g, w := relalg.Algebra(got.Plan), relalg.Algebra(want.Plan); g != w {
			return fmt.Errorf("walk %d: plan %s, fresh rewriter says %s", i, g, w)
		}
		for _, s := range scans(got.Plan, nil) {
			if cur, ok := reg.Get(s.Src.Name()); !ok || cur != s.Src {
				return fmt.Errorf("walk %d: scan of %s reads a wrapper object that is no longer the registered one", i, s.Src.Name())
			}
		}
	}
	return nil
}

// evolving is the football use case on a persistent system, with the
// write paths of the differential tests as methods.
type evolving struct {
	t        *testing.T
	dir      string
	sys      *mdm.System
	fix      *usecase.Fixture
	n        int      // names the next thing a step creates
	releases []string // players versions released on top of the fixture
	// returned is what RegisterWrapper returned for each release.
	returned map[string]bdi.Release
}

func newEvolving(t *testing.T) *evolving {
	t.Helper()
	dir := t.TempDir()
	sys, err := mdm.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	fix, err := usecase.NewOn(sys.Ontology(), sys.Wrappers())
	if err != nil {
		t.Fatal(err)
	}
	return &evolving{t: t, dir: dir, sys: sys, fix: fix, returned: map[string]bdi.Release{}}
}

func (e *evolving) must(err error) {
	e.t.Helper()
	if err != nil {
		e.t.Fatal(err)
	}
}

func (e *evolving) iri(kind string) rdf.Term {
	e.n++
	return rdf.IRI(fmt.Sprintf("%s%s%d", usecase.EX, kind, e.n))
}

// release registers one more schema version of the players API mapped
// like w1, so every walk over Player gains a CQ.
func (e *evolving) release() {
	e.n++
	name := fmt.Sprintf("w1_r%d", e.n)
	w := wrapper.NewMem(name, usecase.SrcPlayers, usecase.PlayersV1Docs(), nil)
	rel, err := e.sys.RegisterWrapper(w)
	e.must(err)
	e.returned[name] = rel
	m, ok := e.sys.Ontology().MappingOf("w1")
	if !ok {
		e.t.Fatal("w1 mapping missing")
	}
	m.Wrapper = name
	e.must(e.sys.DefineMapping(m))
	e.releases = append(e.releases, name)
}

// overlap registers a wrapper of a new source that maps the identifier
// and height of Player, its playsIn relation, and the identifier of Team:
// it covers features of two concepts, and its name sorts before every
// players version. So phase (b) reaches a cover of Player's name and
// height that holds it and a full players version, and phase (c) a
// Figure 8 combination that holds it beside w1 and w2, which alone answer
// the walk: rewritings that are not minimal, which must be dropped.
func (e *evolving) overlap() {
	e.n++
	name, src := fmt.Sprintf("w0_o%d", e.n), fmt.Sprintf("overlap-%d", e.n)
	e.must(e.sys.Ontology().AddDataSource(src, ""))
	w := wrapper.NewMem(name, src, []schema.Doc{{"pid": relalg.Int(6176), "h": relalg.Float(170.18), "tid": relalg.Int(25)}}, nil)
	rel, err := e.sys.RegisterWrapper(w)
	e.must(err)
	e.returned[name] = rel
	rt := rdf.IRI(rdf.RDFType)
	e.must(e.sys.DefineMapping(bdi.Mapping{
		Wrapper: name,
		Subgraph: []rdf.Triple{
			rdf.T(usecase.Player, rt, bdi.ClassConcept),
			rdf.T(usecase.Player, bdi.PropHasFeature, usecase.PlayerID),
			rdf.T(usecase.Player, bdi.PropHasFeature, usecase.Height),
			rdf.T(usecase.Player, usecase.PlaysIn, usecase.Team),
			rdf.T(usecase.Team, rt, bdi.ClassConcept),
			rdf.T(usecase.Team, bdi.PropHasFeature, usecase.TeamID),
		},
		SameAs: map[string]rdf.Term{"pid": usecase.PlayerID, "h": usecase.Height, "tid": usecase.TeamID},
	}))
}

// checkReleasesAfterReopen closes the system, opens its directory again
// and checks that three accounts of every release agree: the changes
// ReleaseLog reads, schema.Diff over the two signatures the release graph
// records, and — for the releases the generator made — what
// RegisterWrapper returned.
func (e *evolving) checkReleasesAfterReopen() {
	e.t.Helper()
	e.must(e.sys.Close())
	sys, err := mdm.Open(e.dir)
	e.must(err)
	e.t.Cleanup(func() { sys.Close() })
	changed := 0
	for _, rel := range sys.ReleaseLog() {
		name := rel.Signature.Wrapper
		var want []schema.Change
		if prev, ok := sys.Ontology().ReleaseOf(rel.Supersedes); ok {
			want = schema.Diff(prev.Signature, rel.Signature)
		}
		if !reflect.DeepEqual(rel.Changes, want) {
			e.t.Errorf("%s: the log reads changes %v, its recorded signatures differ by %v", name, rel.Changes, want)
		}
		if ret, ok := e.returned[name]; ok && !reflect.DeepEqual(ret, rel) {
			e.t.Errorf("%s: RegisterWrapper returned %+v, the reopened log reads %+v", name, ret, rel)
		}
		if len(rel.Changes) > 0 {
			changed++
		}
	}
	if changed == 0 {
		e.t.Error("no release changed a schema: the check compared nothing")
	}
}

func (e *evolving) lastReleaseGraph() *rdf.Graph {
	return e.sys.Ontology().Dataset().Graph(bdi.WrapperIRI(e.releases[len(e.releases)-1]))
}

// swapWrapper replaces the registered w2 by a different object of the
// same name and content; the ontology is not written.
func (e *evolving) swapWrapper() {
	reg := e.sys.Wrappers()
	reg.Remove("w2")
	e.must(reg.Register(wrapper.NewMem("w2", usecase.SrcTeams, usecase.TeamsDocs(), nil)))
}

// steps are the write paths, each valid in any state.
func (e *evolving) steps() []struct {
	name string
	do   func()
} {
	ont := e.sys.Ontology()
	return []struct {
		name string
		do   func()
	}{
		{"AddConcept", func() { e.must(ont.AddConcept(e.iri("Concept"), "")) }},
		{"AddFeature+AttachFeature", func() {
			f := e.iri("feature")
			e.must(ont.AddFeature(f, ""))
			e.must(ont.AttachFeature(usecase.Player, f))
		}},
		{"MarkIdentifier", func() {
			c, f := e.iri("Concept"), e.iri("id")
			e.must(ont.AddConcept(c, ""))
			e.must(ont.AddFeature(f, ""))
			e.must(ont.AttachFeature(c, f))
			e.must(ont.MarkIdentifier(f))
		}},
		{"RelateConcepts", func() {
			c := e.iri("Concept")
			e.must(ont.AddConcept(c, ""))
			e.must(ont.RelateConcepts(c, e.iri("rel"), usecase.Player))
		}},
		{"AddSubClass", func() {
			c := e.iri("Goalkeeper")
			e.must(ont.AddConcept(c, ""))
			e.must(ont.AddSubClass(c, usecase.Player))
		}},
		{"AddDataSource", func() { e.n++; e.must(ont.AddDataSource(fmt.Sprintf("source-%d", e.n), "")) }},
		{"ReleasePlayersV2", func() {
			if e.fix.W1v2 == nil {
				e.must(e.fix.ReleasePlayersV2())
			}
		}},
		{"RegisterWrapper+DefineMapping", e.release},
		{"RegisterWrapper+DefineMapping/overlap", e.overlap},
		{"BindPrefix", func() { e.n++; e.sys.BindPrefix(fmt.Sprintf("fb%d", e.n), usecase.EX) }},
		{"Registry.Remove+Register", e.swapWrapper},
		{"Graph.Add", func() {
			if len(e.releases) > 0 {
				e.lastReleaseGraph().MustAdd(rdf.T(e.iri("Concept"), rdf.IRI(rdf.RDFType), bdi.ClassConcept))
			}
		}},
		{"DropGraph", func() {
			if len(e.releases) > 0 {
				last := len(e.releases) - 1
				ont.Dataset().DropGraph(bdi.WrapperIRI(e.releases[last]))
				e.releases = e.releases[:last]
			}
		}},
		{"Storage.Compact", func() { e.must(e.sys.Storage().Compact()) }},
	}
}

// TestPropCacheMatchesFreshRewriter: after each step of a seeded random
// sequence over every write path, the long-lived rewriter agrees with a
// fresh one.
func TestPropCacheMatchesFreshRewriter(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			e := newEvolving(t)
			ont, reg := e.sys.Ontology(), e.sys.Wrappers()
			long := rewrite.New(ont, reg)
			if err := divergence(long, ont, reg); err != nil {
				t.Fatal(err)
			}
			steps := e.steps()
			rng := rand.New(rand.NewSource(seed))
			// Every path at least once, then more at random.
			order := rng.Perm(len(steps))
			for i := 0; i < 40; i++ {
				order = append(order, rng.Intn(len(steps)))
			}
			for i, k := range order {
				steps[k].do()
				if err := divergence(long, ont, reg); err != nil {
					t.Fatalf("step %d (%s): %v", i, steps[k].name, err)
				}
			}
			e.checkReleasesAfterReopen()
		})
	}
}

// TestStampComponentsLoadBearing has rows of writes, each moving one
// stamp component; the dataset-wide change counter has one row per kind
// of dataset change it counts. With the stamp intact the long-lived
// rewriter follows each write; with the row's component masked out it
// keeps serving what it had, and divergence says so — which is the
// evidence that the differential test above would catch the component's
// loss.
func TestStampComponentsLoadBearing(t *testing.T) {
	rows := []struct {
		name, component string
		write           func(e *evolving)
	}{
		// A mapping graph dropped, bypassing the ontology.
		{"version", "changes", func(e *evolving) {
			e.sys.Ontology().Dataset().DropGraph(bdi.WrapperIRI(e.releases[0]))
		}},
		// One triple added to the global graph: height becomes an identifier
		// of Player, so w5, which does not map it, stops witnessing
		// hasNationality.
		{"writes", "changes", func(e *evolving) { e.must(e.sys.Ontology().MarkIdentifier(usecase.Height)) }},
		{"binds", "changes", func(e *evolving) { e.sys.Ontology().Dataset().Prefixes().Bind("fb", usecase.EX) }},
		{"registry", "registry", func(e *evolving) { e.swapWrapper() }},
	}
	covered := map[string]bool{}
	for _, row := range rows {
		covered[row.component] = true
	}
	for _, component := range rewrite.StampComponents {
		if !covered[component] {
			t.Errorf("stamp component %s has no row", component)
		}
	}
	for _, row := range rows {
		for _, masked := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/masked=%v", row.name, masked), func(t *testing.T) {
				e := newEvolving(t)
				e.release()
				ont, reg := e.sys.Ontology(), e.sys.Wrappers()
				if masked {
					defer rewrite.MaskStamp(row.component)()
				}
				long := rewrite.New(ont, reg)
				if err := divergence(long, ont, reg); err != nil {
					t.Fatal(err)
				}
				row.write(e)
				err := divergence(long, ont, reg)
				switch {
				case !masked && err != nil:
					t.Errorf("intact stamp: %v", err)
				case masked && err == nil:
					t.Errorf("a stamp without its %s component still follows this write: the row does not isolate it", row.component)
				}
			})
		}
	}
}
