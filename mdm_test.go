package mdm_test

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"mdm"
	"mdm/internal/federate"
	"mdm/internal/obs"
	"mdm/internal/relalg"
	"mdm/internal/schema"
	"mdm/internal/store"
	"mdm/internal/usecase"
	"mdm/internal/wrapper"
)

// buildSystem assembles the football use case through the PUBLIC facade
// only, exercising the same steps a downstream user would write.
func buildSystem(t *testing.T) *mdm.System {
	t.Helper()
	sys := mdm.New()
	sys.BindPrefix("ex", "http://ex.org/")
	sys.BindPrefix("sc", "http://schema.org/")

	check := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	check(sys.AddConcept("ex:Player", "Player"))
	check(sys.AddConcept("sc:SportsTeam", "SportsTeam"))
	for f, c := range map[string]string{
		"ex:playerId": "ex:Player", "ex:playerName": "ex:Player",
		"ex:teamId": "sc:SportsTeam", "ex:teamName": "sc:SportsTeam",
	} {
		check(sys.AddFeature(f, ""))
		check(sys.AttachFeature(c, f))
	}
	check(sys.MarkIdentifier("ex:playerId"))
	check(sys.MarkIdentifier("ex:teamId"))
	check(sys.RelateConcepts("ex:Player", "ex:playsIn", "sc:SportsTeam"))
	check(sys.AddSource("players-api", "Players API"))
	check(sys.AddSource("teams-api", "Teams API"))

	w1 := wrapper.NewMem("w1", "players-api", []schema.Doc{
		{"id": relalg.Int(1), "pName": relalg.String("Alice"), "teamId": relalg.Int(10)},
		{"id": relalg.Int(2), "pName": relalg.String("Bob"), "teamId": relalg.Int(11)},
	}, nil)
	w2 := wrapper.NewMem("w2", "teams-api", []schema.Doc{
		{"id": relalg.Int(10), "name": relalg.String("Reds")},
		{"id": relalg.Int(11), "name": relalg.String("Blues")},
	}, nil)
	if _, err := sys.RegisterWrapper(w1); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RegisterWrapper(w2); err != nil {
		t.Fatal(err)
	}
	check(sys.DefineMapping(mdm.Mapping{
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
	}))
	check(sys.DefineMapping(mdm.Mapping{
		Wrapper: "w2",
		Subgraph: []mdm.Triple{
			mdm.T(sys.IRI("sc:SportsTeam"), sys.IRI("rdf:type"), sys.IRI("G:Concept")),
			mdm.T(sys.IRI("sc:SportsTeam"), sys.IRI("G:hasFeature"), sys.IRI("ex:teamId")),
			mdm.T(sys.IRI("sc:SportsTeam"), sys.IRI("G:hasFeature"), sys.IRI("ex:teamName")),
		},
		SameAs: map[string]mdm.Term{"id": sys.IRI("ex:teamId"), "name": sys.IRI("ex:teamName")},
	}))
	return sys
}

func TestFacadeEndToEnd(t *testing.T) {
	sys := buildSystem(t)
	if v := sys.Validate(); len(v) != 0 {
		t.Fatalf("violations: %v", v)
	}
	walk := mdm.NewWalk().
		SelectAs(sys.IRI("sc:SportsTeam"), sys.IRI("ex:teamName"), "team").
		SelectAs(sys.IRI("ex:Player"), sys.IRI("ex:playerName"), "player").
		Relate(sys.IRI("ex:Player"), sys.IRI("ex:playsIn"), sys.IRI("sc:SportsTeam"))
	rel, res, err := sys.Query(context.Background(), walk)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 2 || len(res.CQs) != 1 {
		t.Fatalf("rows=%d cqs=%d", rel.Len(), len(res.CQs))
	}
	if res.OutputColumns[0] != "team" || res.OutputColumns[1] != "player" {
		t.Errorf("columns = %v", res.OutputColumns)
	}
}

func TestFacadeIRIExpansion(t *testing.T) {
	sys := mdm.New()
	sys.BindPrefix("ex", "http://ex.org/")
	if got := sys.IRI("ex:Player").Value; got != "http://ex.org/Player" {
		t.Errorf("CURIE expansion = %q", got)
	}
	if got := sys.IRI("http://direct.org/x").Value; got != "http://direct.org/x" {
		t.Errorf("absolute IRI mangled: %q", got)
	}
}

func TestFacadeSPARQLOverMetadata(t *testing.T) {
	sys := buildSystem(t)
	res, err := sys.SPARQL(`
PREFIX G: <http://www.essi.upc.edu/~snadal/BDIOntology/Global/>
PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
SELECT ?c WHERE {
  GRAPH <http://www.essi.upc.edu/~snadal/BDIOntology/Global/graph> {
    ?c rdf:type G:Concept .
  }
} ORDER BY ?c`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 {
		t.Fatalf("concepts via SPARQL = %d", res.Len())
	}
}

func TestFacadeSPARQLCursorAndPaging(t *testing.T) {
	sys := buildSystem(t)
	const q = `
PREFIX G: <http://www.essi.upc.edu/~snadal/BDIOntology/Global/>
PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
SELECT ?c WHERE {
  GRAPH <http://www.essi.upc.edu/~snadal/BDIOntology/Global/graph> {
    ?c rdf:type G:Concept .
  }
}`
	ctx := context.Background()

	cur, err := sys.SPARQLPage(q, -1, -1)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	var got []string
	for b := range cur.Solutions(ctx) {
		got = append(got, b["c"].Value)
	}
	if cur.Err() != nil {
		t.Fatal(cur.Err())
	}
	if len(got) != 2 {
		t.Fatalf("cursor solutions = %v", got)
	}

	// SPARQLPage overrides the query's paging: page 2 of size 1 is the
	// second row of the canonical order.
	page, err := sys.SPARQLPage(q, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer page.Close()
	if !page.Next(ctx) {
		t.Fatalf("page empty: %v", page.Err())
	}
	if c, ok := page.Row().Term(0); !ok || c.Value != got[1] {
		t.Fatalf("page row = %v, want %q", c, got[1])
	}
	if page.Next(ctx) {
		t.Fatal("page has more than limit rows")
	}

	// A canceled context stops the read and surfaces the ctx error.
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	cc, err := sys.SPARQLPage(q, -1, -1)
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	if cc.Next(canceled) || !errors.Is(cc.Err(), context.Canceled) {
		t.Fatalf("canceled read: err = %v, want context.Canceled", cc.Err())
	}
}

// executeStageCount scrapes the SPARQL engine's execute-stage histogram
// count from the process-wide registry.
func executeStageCount(t *testing.T) int {
	t.Helper()
	var buf strings.Builder
	if err := obs.Default.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	const series = `mdm_sparql_stage_duration_seconds_count{stage="execute"} `
	_, rest, ok := strings.Cut(buf.String(), series)
	if !ok {
		return 0
	}
	line, _, _ := strings.Cut(rest, "\n")
	n, err := strconv.Atoi(line)
	if err != nil {
		t.Fatalf("execute-stage count %q: %v", line, err)
	}
	return n
}

// TestFacadeDrainRecordsItsStage: the cursors own the execute and drain
// clocks, so a library caller draining SPARQLPage or QueryRun — no REST
// handler in sight — feeds the stage histogram and the trace.
func TestFacadeDrainRecordsItsStage(t *testing.T) {
	f := usecase.MustNew()
	sys := mdm.FromParts(f.Ont, f.Reg)
	ctx := context.Background()

	before := executeStageCount(t)
	cur, err := sys.SPARQLPage(`SELECT ?s WHERE { GRAPH ?g { ?s ?p ?o } }`, 3, -1)
	if err != nil {
		t.Fatal(err)
	}
	for cur.Next(ctx) {
	}
	if err := cur.Err(); err != nil {
		t.Fatal(err)
	}
	cur.Close() // after exhaustion: must not record the stage twice
	if got := executeStageCount(t) - before; got != 1 {
		t.Errorf("execute observations after one SPARQLPage drain = %d, want 1", got)
	}

	tr := obs.NewTrace()
	wcur, _, err := sys.QueryRun(obs.WithTrace(ctx, tr), usecase.Fig8Walk(), mdm.QueryOpts{Limit: -1, Offset: -1})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := tr.Stages()["drain"]; ok {
		t.Error("drain stage recorded before the first pull")
	}
	rel, err := wcur.Materialize(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if wcur.Rows() != int64(rel.Len()) || rel.Len() != 5 {
		t.Errorf("cursor rows = %d, relation rows = %d, want 5", wcur.Rows(), rel.Len())
	}
	stages := tr.Stages()
	for _, want := range []string{"rewrite", "scatter", "drain"} {
		if _, ok := stages[want]; !ok {
			t.Errorf("trace stages %v lack %q", stages, want)
		}
	}
}

func TestFacadeExportImportTriG(t *testing.T) {
	sys := buildSystem(t)
	doc := sys.ExportTriG()
	if !strings.Contains(doc, "@prefix") {
		t.Fatalf("export = %.100s", doc)
	}
	sys2, err := mdm.ImportTriG(doc)
	if err != nil {
		t.Fatal(err)
	}
	st1, st2 := sys.Stats(), sys2.Stats()
	if st1.Concepts != st2.Concepts || st1.Mappings != st2.Mappings || st1.SameAs != st2.SameAs {
		t.Errorf("stats differ: %+v vs %+v", st1, st2)
	}
	// The release log travels with the ontology it is part of.
	log1, log2 := sys.ReleaseLog(), sys2.ReleaseLog()
	if len(log1) != 2 || !reflect.DeepEqual(log1, log2) {
		t.Errorf("release log after reimport = %+v\nexported %+v", log2, log1)
	}
	// The re-imported system validates (wrapper registry empty is fine:
	// mappings reference source-graph wrappers, which ARE in the data).
	if v := sys2.Validate(); len(v) != 0 {
		t.Errorf("violations after reimport: %v", v)
	}
	if _, err := mdm.ImportTriG("not trig <"); err == nil {
		t.Error("bad TriG accepted")
	}
}

func TestFacadeReleaseAndDrift(t *testing.T) {
	sys := buildSystem(t)
	w, _ := sys.Wrappers().Get("w1")
	mem := w.(*wrapper.Mem)
	changes, err := sys.DetectDrift(context.Background(), "w1")
	if err != nil || len(changes) != 0 {
		t.Fatalf("drift = %v, %v", changes, err)
	}
	mem.SetDocs([]schema.Doc{{"id": relalg.Int(1), "fullName": relalg.String("X"), "teamId": relalg.Int(10)}})
	changes, err = sys.DetectDrift(context.Background(), "w1")
	if err != nil || len(changes) == 0 {
		t.Fatalf("drift after change = %v, %v", changes, err)
	}
	// Release a v2 wrapper and suggest its mapping.
	w1v2 := wrapper.NewMem("w1v2", "players-api", []schema.Doc{
		{"id": relalg.Int(1), "fullName": relalg.String("X"), "teamId": relalg.Int(10)},
	}, nil)
	rel, err := sys.RegisterWrapper(w1v2)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Kind != "new-version" || !rel.Breaking {
		t.Fatalf("release = %+v", rel)
	}
	suggested, ch, err := sys.SuggestMapping("w1", "w1v2")
	if err != nil || len(ch) == 0 {
		t.Fatalf("suggest = %v, %v", ch, err)
	}
	if err := sys.DefineMapping(suggested); err != nil {
		t.Fatal(err)
	}
	// The log is the release graph alone: nothing goes to the metadata store.
	if n := sys.Metadata().Count("releases"); n != 0 {
		t.Errorf("%d release documents in the metadata store", n)
	}
	if got := len(sys.ReleaseLog()); got != 3 {
		t.Errorf("release log = %d", got)
	}
}

func TestFacadeRenderings(t *testing.T) {
	sys := buildSystem(t)
	if !strings.Contains(sys.RenderGlobalGraph(), "concept ex:Player") {
		t.Error("global render")
	}
	if !strings.Contains(sys.RenderSourceGraph(), "wrapper w1") {
		t.Error("source render")
	}
	if !strings.Contains(sys.RenderMappings(), "owl:sameAs") {
		t.Error("mappings render")
	}
	st := sys.Stats()
	if st.Concepts != 2 || st.Wrappers != 2 {
		t.Errorf("stats = %+v", st)
	}
}

func TestFacadeFromPartsWithFixture(t *testing.T) {
	f := usecase.MustNew()
	sys := mdm.FromParts(f.Ont, f.Reg)
	rel, _, err := sys.Query(context.Background(), usecase.Fig8Walk())
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 5 {
		t.Fatalf("rows = %d", rel.Len())
	}
}

func TestPersistentOpenCheckpointReopen(t *testing.T) {
	dir := t.TempDir()
	sys, err := mdm.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	sys.BindPrefix("ex", "http://ex.org/")
	if err := sys.AddConcept("ex:Player", "Player"); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddFeature("ex:playerId", ""); err != nil {
		t.Fatal(err)
	}
	if err := sys.AttachFeature("ex:Player", "ex:playerId"); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddSource("players-api", "Players API"); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Metadata().Insert("walks", store.Doc{"name": "w", "walk": "{}"}); err != nil {
		t.Fatal(err)
	}
	if err := sys.CompactStorage(); err != nil {
		t.Fatal(err)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}

	sys2, err := mdm.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer sys2.Close()
	st := sys2.Stats()
	if st.Concepts != 1 || st.Features != 1 || st.Sources != 1 {
		t.Fatalf("reopened stats = %+v", st)
	}
	// Metadata store persisted too (sources are triples, not documents).
	if n := sys2.Metadata().Count("walks"); n != 1 {
		t.Errorf("metadata walks = %d", n)
	}
	// In-memory systems: CompactStorage/Close are no-ops.
	mem := mdm.New()
	if err := mem.CompactStorage(); err != nil {
		t.Error(err)
	}
	if err := mem.Close(); err != nil {
		t.Error(err)
	}
}

// TestReleaseLogSurvivesRestart: the release log is part of the ontology
// dataset, so after a restart it is there before any wrapper is attached
// again: the next release continues its numbering and is diffed against
// the recorded predecessor, and registering a recorded wrapper again
// attaches it without adding to the log.
func TestReleaseLogSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	sys, err := mdm.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.AddSource("players-api", "Players API"); err != nil {
		t.Fatal(err)
	}
	v1 := wrapper.NewMem("w1", "players-api", []schema.Doc{{"id": relalg.Int(1), "pName": relalg.String("A")}}, nil)
	v2 := wrapper.NewMem("w1v2", "players-api", []schema.Doc{{"id": relalg.Int(1), "fullName": relalg.String("A")}}, nil)
	for _, w := range []mdm.Wrapper{v1, v2} {
		if _, err := sys.RegisterWrapper(w); err != nil {
			t.Fatal(err)
		}
	}
	before := sys.ReleaseLog()
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}

	sys2, err := mdm.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer sys2.Close()
	after := sys2.ReleaseLog()
	if len(after) != 2 {
		t.Fatalf("release log after reopen has %d entries, want 2", len(after))
	}
	for i := range after {
		// Timestamps round-trip through RFC 3339: compare instants.
		if !after[i].At.Equal(before[i].At) {
			t.Errorf("entry %d: at %v, want %v", i, after[i].At, before[i].At)
		}
		after[i].At = before[i].At
		if !reflect.DeepEqual(after[i], before[i]) {
			t.Errorf("entry %d after reopen = %+v, want %+v", i, after[i], before[i])
		}
	}
	if got := after[1]; got.Seq != 2 || got.Supersedes != "w1" || !got.Breaking || len(got.Changes) == 0 {
		t.Errorf("second entry = %+v", got)
	}
	// A third version, with neither predecessor attached to the registry.
	v3 := wrapper.NewMem("w1v3", "players-api", []schema.Doc{{"id": relalg.Int(1), "name": relalg.String("A"), "age": relalg.Int(30)}}, nil)
	rel, err := sys2.RegisterWrapper(v3)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Seq != 3 || rel.Kind != "new-version" || rel.Supersedes != "w1v2" {
		t.Errorf("release after reopen = %+v, want new-version #3 superseding w1v2", rel)
	}
	// Pairing fullName with name rather than reporting one removed and two
	// added needs the types the log keeps.
	kinds := map[mdm.Change]bool{}
	for _, c := range rel.Changes {
		kinds[mdm.Change{Kind: c.Kind, Attribute: c.Attribute, NewName: c.NewName}] = true
	}
	if len(rel.Changes) != 2 || !kinds[mdm.Change{Kind: "renamed", Attribute: "fullName", NewName: "name"}] || !kinds[mdm.Change{Kind: "added", Attribute: "age"}] {
		t.Errorf("changes after reopen = %v, want fullName renamed to name and age added", rel.Changes)
	}

	// Re-attaching the recorded versions is not a release.
	for i, w := range []mdm.Wrapper{v1, v2} {
		rel, err := sys2.RegisterWrapper(w)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rel, after[i]) {
			t.Errorf("re-registering %s returned %+v, want the recorded %+v", w.Name(), rel, after[i])
		}
		if _, ok := sys2.Wrappers().Get(w.Name()); !ok {
			t.Errorf("re-registering %s did not attach it", w.Name())
		}
	}
	if log := sys2.ReleaseLog(); len(log) != 3 || log[2].Signature.Wrapper != "w1v3" {
		t.Errorf("release log after re-attaching = %+v, want the three releases", log)
	}
	other := wrapper.NewMem("w1v2", "players-api", []schema.Doc{{"id": relalg.Int(1), "nickname": relalg.String("A")}}, nil)
	sys2.Wrappers().Remove("w1v2")
	var conflict *mdm.ReleaseConflictError
	if _, err := sys2.RegisterWrapper(other); !errors.As(err, &conflict) {
		t.Errorf("another schema under a released name: %v, want a ReleaseConflictError", err)
	}
}

// TestOpenRefusesReleaseDocuments: a data directory written by PRs 17–21
// keeps its release log in meta/releases.json, which nothing reads any
// more; it must be refused by name, before any file is created or
// touched. Saved walks alone are no reason to refuse.
func TestOpenRefusesReleaseDocuments(t *testing.T) {
	dir := t.TempDir()
	meta := filepath.Join(dir, "meta")
	if err := os.MkdirAll(meta, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(meta, "walks.json"), []byte(`{"next_id":1,"docs":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	sys, err := mdm.Open(dir)
	if err != nil {
		t.Fatalf("a directory holding only saved walks was refused: %v", err)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}

	dir = t.TempDir()
	meta = filepath.Join(dir, "meta")
	if err := os.MkdirAll(meta, 0o755); err != nil {
		t.Fatal(err)
	}
	doc := `[{"_id":"1","seq":1,"kind":"new-source","source":"players-api","wrapper":"w1","signature":"w1(id)"}]`
	if err := os.WriteFile(filepath.Join(meta, "releases.json"), []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	sys, err = mdm.Open(dir)
	if err == nil {
		sys.Close()
		t.Fatal("Open accepted a directory holding meta/releases.json")
	}
	if !strings.Contains(err.Error(), "meta/releases.json") || !strings.Contains(err.Error(), "PR 21 is the last release that reads it") {
		t.Fatalf("error %q does not name the file and the last release that reads it", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "meta" {
		t.Fatalf("refused Open left files behind: %v", entries)
	}
	if got, err := os.ReadFile(filepath.Join(meta, "releases.json")); err != nil || string(got) != doc {
		t.Fatalf("refused Open touched the release documents: %q, %v", got, err)
	}
}

// failingWrapper fails at Fetch time; used for failure-injection tests.
type failingWrapper struct{ mdm.Wrapper }

func (failingWrapper) Fetch(context.Context) (*mdm.Relation, error) {
	return nil, fmt.Errorf("players-api: connection refused")
}

func TestQueryErrorNamesFailingWrapper(t *testing.T) {
	f := usecase.MustNew()
	// Replace w2 with a failing variant in a fresh registry.
	reg := wrapper.NewRegistry()
	for _, name := range []string{"w1", "w3", "w4", "w5", "w6"} {
		w, _ := f.Reg.Get(name)
		if err := reg.Register(w); err != nil {
			t.Fatal(err)
		}
	}
	w2, _ := f.Reg.Get("w2")
	if err := reg.Register(failingWrapper{w2}); err != nil {
		t.Fatal(err)
	}
	sys := mdm.FromParts(f.Ont, reg)
	_, _, err := sys.Query(context.Background(), usecase.Fig8Walk())
	if err == nil {
		t.Fatal("query over failing wrapper succeeded")
	}
	if !strings.Contains(err.Error(), "w2") || !strings.Contains(err.Error(), "connection refused") {
		t.Errorf("error should name the wrapper and cause: %v", err)
	}
}

func TestQuerySPARQLFacade(t *testing.T) {
	f := usecase.MustNew()
	sys := mdm.FromParts(f.Ont, f.Reg)
	rel, res, err := sys.QuerySPARQL(context.Background(), `
PREFIX ex: <http://www.example.org/football/>
PREFIX sc: <http://schema.org/>
PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
SELECT ?playerName WHERE {
  ?p rdf:type ex:Player .
  ?p ex:playerName ?playerName .
}`)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 5 || len(res.CQs) != 1 {
		t.Fatalf("rows=%d cqs=%d", rel.Len(), len(res.CQs))
	}
	if _, _, err := sys.QuerySPARQL(context.Background(), "garbage"); err == nil {
		t.Error("bad SPARQL accepted")
	}
}

// TestReRegisterWrapperInvalidatesCacheAndBreaker: swapping a wrapper
// under the same name must not leave the federation failing fast on the
// old wrapper's tripped breaker.
func TestReRegisterWrapperInvalidatesCacheAndBreaker(t *testing.T) {
	sys := buildSystem(t)
	walk := mdm.NewWalk().SelectAs(sys.IRI("ex:Player"), sys.IRI("ex:playerName"), "player")
	query := func() (string, error) {
		t.Helper()
		rel, _, err := sys.Query(context.Background(), walk)
		if err != nil {
			return "", err
		}
		return rel.Table(), nil
	}
	swap := func(w mdm.Wrapper) {
		t.Helper()
		if !sys.Wrappers().Remove("w1") {
			t.Fatal("w1 not removed")
		}
		if _, err := sys.RegisterWrapper(w); err != nil {
			t.Fatal(err)
		}
	}
	if got, err := query(); err != nil || !strings.Contains(got, "Alice") {
		t.Fatalf("seed rows missing Alice (err %v):\n%s", err, got)
	}

	// A w1 that answers 503 trips its breaker over two failing walks
	// (three attempts each, five strikes); a third fails fast.
	w1, _ := sys.Wrappers().Get("w1")
	swap(wrapper.NewFunc("w1", "players-api", w1.Signature().Attributes,
		func(context.Context) ([]schema.Doc, error) {
			return nil, &wrapper.StatusError{URL: "http://down.example/players", Code: 503}
		}))
	for i := 0; i < 2; i++ {
		if _, err := query(); err == nil {
			t.Fatalf("walk %d over the failing w1 succeeded", i+1)
		}
	}
	if _, err := query(); !errors.Is(err, federate.ErrBreakerOpen) {
		t.Fatalf("third walk err = %v, want the open breaker", err)
	}

	// Without RegisterWrapper's Forget hook the open breaker would fail
	// the walk over the healthy replacement outright.
	swap(wrapper.NewMem("w1", "players-api", []schema.Doc{
		{"id": relalg.Int(3), "pName": relalg.String("Carol"), "teamId": relalg.Int(10)},
	}, nil))
	got, err := query()
	if err != nil {
		t.Fatalf("walk after re-registration: %v", err)
	}
	if strings.Contains(got, "Alice") || !strings.Contains(got, "Carol") {
		t.Fatalf("rows after re-registration:\n%s\nwant Carol only", got)
	}
}

// TestOpenRefusesPreSegmentExport: a data directory holding the
// ontology.trig export of a pre-segment deployment must not open as an
// empty system, and the refusal must not create store files beside it.
func TestOpenRefusesPreSegmentExport(t *testing.T) {
	dir := t.TempDir()
	old := mdm.New()
	old.BindPrefix("ex", "http://ex.org/")
	if err := old.AddConcept("ex:Player", "Player"); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "ontology.trig"), []byte(old.ExportTriG()), 0o644); err != nil {
		t.Fatal(err)
	}
	sys, err := mdm.Open(dir)
	if err == nil {
		sys.Close()
		t.Fatal("Open accepted a directory holding ontology.trig")
	}
	if !strings.Contains(err.Error(), "ontology.trig") || !strings.Contains(err.Error(), "PR 12") {
		t.Fatalf("error %q does not name the file and the migrating release", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "ontology.trig" {
		t.Fatalf("refused Open left files behind: %v", entries)
	}
}

// TestSPARQLPagePinsSnapshotAcrossCompaction: a cursor opened before a
// compaction drains the full answer after it. There is nothing to pin:
// the rewrite is a disk operation and the cursor keeps reading the
// dataset the system serves.
func TestSPARQLPagePinsSnapshotAcrossCompaction(t *testing.T) {
	dir := t.TempDir()
	sys, err := mdm.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	sys.BindPrefix("ex", "http://ex.org/")
	for i := 0; i < 10; i++ {
		if err := sys.AddConcept(fmt.Sprintf("ex:C%d", i), ""); err != nil {
			t.Fatal(err)
		}
	}
	cur, err := sys.SPARQLPage(
		`PREFIX G: <http://www.essi.upc.edu/~snadal/BDIOntology/Global/> SELECT ?c WHERE { GRAPH ?g { ?c a G:Concept } }`, -1, -1)
	if err != nil {
		t.Fatal(err)
	}
	// Compact while the cursor is open: it must drain the full answer.
	if err := sys.Storage().Compact(); err != nil {
		t.Fatal(err)
	}
	rows := 0
	for cur.Next(context.Background()) {
		rows++
	}
	if err := cur.Err(); err != nil {
		t.Fatal(err)
	}
	if rows != 10 {
		t.Fatalf("cursor rows = %d, want 10", rows)
	}
	// Fresh queries see the same data.
	res, err := sys.SPARQL(`PREFIX G: <http://www.essi.upc.edu/~snadal/BDIOntology/Global/> SELECT ?c WHERE { GRAPH ?g { ?c a G:Concept } }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 10 {
		t.Fatalf("post-compaction rows = %d", res.Len())
	}
}

// TestSPARQLPathReleaseLineage exercises the property-path surface
// through the public facade: ontology versions form a subClassOf chain
// (each release specializes its predecessor), and governance queries
// walk the lineage transitively with paging.
func TestSPARQLPathReleaseLineage(t *testing.T) {
	sys := mdm.New()
	defer sys.Close()
	sys.BindPrefix("ex", "http://ex.org/")
	for i := 1; i <= 5; i++ {
		if err := sys.AddConcept(fmt.Sprintf("ex:SalesV%d", i), fmt.Sprintf("Sales release %d", i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 2; i <= 5; i++ {
		if err := sys.AddSubClass(fmt.Sprintf("ex:SalesV%d", i), fmt.Sprintf("ex:SalesV%d", i-1)); err != nil {
			t.Fatal(err)
		}
	}

	const prefix = `PREFIX ex: <http://ex.org/> PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#> `

	// Full ancestry of the newest release, transitively.
	res, err := sys.SPARQL(prefix + `SELECT ?anc WHERE { GRAPH ?g { ex:SalesV5 rdfs:subClassOf+ ?anc } }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 4 {
		t.Fatalf("ancestors = %d, want 4\n%s", res.Len(), res.Table())
	}

	// Every version governed by the V1 contract, including V1 itself
	// (zero-length match of *).
	res, err = sys.SPARQL(prefix + `SELECT ?v WHERE { GRAPH ?g { ?v rdfs:subClassOf* ex:SalesV1 } }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 5 {
		t.Fatalf("governed versions = %d, want 5\n%s", res.Len(), res.Table())
	}

	// The same lineage question through the paging facade: two pages of
	// two plus a final page of one, in a stable canonical order.
	var paged []string
	for off := 0; off < 5; off += 2 {
		cur, err := sys.SPARQLPage(prefix+`SELECT ?v WHERE { GRAPH ?g { ?v rdfs:subClassOf* ex:SalesV1 } }`, 2, off)
		if err != nil {
			t.Fatal(err)
		}
		for cur.Next(context.Background()) {
			if v, ok := cur.Row().Term(0); ok {
				paged = append(paged, v.Value)
			}
		}
		if err := cur.Err(); err != nil {
			t.Fatal(err)
		}
		cur.Close()
	}
	if len(paged) != 5 {
		t.Fatalf("paged rows = %d, want 5: %v", len(paged), paged)
	}
	for i, v := range paged {
		if want := fmt.Sprintf("http://ex.org/SalesV%d", i+1); v != want {
			t.Fatalf("paged row %d = %s, want %s", i, v, want)
		}
	}

	// Aggregation over the closure: lineage depth per release.
	res, err = sys.SPARQL(prefix + `SELECT ?v (COUNT(?anc) AS ?depth) WHERE { GRAPH ?g { ?v rdfs:subClassOf+ ?anc } } GROUP BY ?v ORDER BY DESC(?depth) LIMIT 1`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 {
		t.Fatalf("rows = %d, want 1\n%s", res.Len(), res.Table())
	}
	v, _ := res.Term(0, "v")
	d, _ := res.Term(0, "depth")
	if v.Value != "http://ex.org/SalesV5" || d.Value != "4" {
		t.Fatalf("deepest lineage = %s depth %s, want SalesV5 depth 4", v.Value, d.Value)
	}
}

// TestSPARQLPathCursorPinsSnapshotAcrossCompaction is the path-operator
// variant: a cursor opened before a compaction runs its fixpoint after
// it and drains the full closure.
func TestSPARQLPathCursorPinsSnapshotAcrossCompaction(t *testing.T) {
	dir := t.TempDir()
	sys, err := mdm.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	sys.BindPrefix("ex", "http://ex.org/")
	for i := 1; i <= 8; i++ {
		if err := sys.AddConcept(fmt.Sprintf("ex:V%d", i), ""); err != nil {
			t.Fatal(err)
		}
		if i > 1 {
			if err := sys.AddSubClass(fmt.Sprintf("ex:V%d", i), fmt.Sprintf("ex:V%d", i-1)); err != nil {
				t.Fatal(err)
			}
		}
	}
	cur, err := sys.SPARQLPage(`PREFIX ex: <http://ex.org/> PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>
SELECT ?anc WHERE { GRAPH ?g { ex:V8 rdfs:subClassOf+ ?anc } }`, -1, -1)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Storage().Compact(); err != nil {
		t.Fatal(err)
	}
	rows := 0
	for cur.Next(context.Background()) {
		rows++
	}
	if err := cur.Err(); err != nil {
		t.Fatal(err)
	}
	if rows != 7 {
		t.Fatalf("closure rows = %d, want 7", rows)
	}
	res, err := sys.SPARQL(`PREFIX ex: <http://ex.org/> PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>
SELECT ?anc WHERE { GRAPH ?g { ex:V8 rdfs:subClassOf+ ?anc } }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 7 {
		t.Fatalf("post-compaction closure rows = %d, want 7", res.Len())
	}
}

// TestDocumentedReleaseQuery runs the metadata query docs/STORAGE.md
// prints — which release introduced an attribute — exactly as printed,
// over a log long enough that ordering the sequence numbers as strings
// would pick #10 over #9.
func TestDocumentedReleaseQuery(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("docs", "STORAGE.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, rest, ok := strings.Cut(string(doc), "```sparql\n")
	query, _, ok2 := strings.Cut(rest, "```")
	if !ok || !ok2 || !strings.Contains(query, `"position"`) {
		t.Fatalf("docs/STORAGE.md no longer holds the release query in a sparql block")
	}

	sys := mdm.New()
	if err := sys.AddSource("players-api", ""); err != nil {
		t.Fatal(err)
	}
	for v := 1; v <= 11; v++ {
		doc := schema.Doc{"id": relalg.Int(1)}
		if v >= 9 {
			doc["position"] = relalg.String("RW")
		}
		if _, err := sys.RegisterWrapper(wrapper.NewMem(fmt.Sprintf("players_v%d", v), "players-api", []schema.Doc{doc}, nil)); err != nil {
			t.Fatal(err)
		}
	}
	res, err := sys.SPARQL(query)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 {
		t.Fatalf("the query answered %d rows:\n%s", res.Len(), res.Table())
	}
	row := res.Solutions()[0]
	at, err := time.Parse(time.RFC3339Nano, row["at"].Value)
	if row["seq"].Value != "9" || row["wrapper"].Value != "players_v9" || err != nil || !at.Equal(sys.ReleaseLog()[8].At) {
		t.Errorf("position was introduced by %v, want release #9 players_v9 at %v", row, sys.ReleaseLog()[8].At)
	}
}
