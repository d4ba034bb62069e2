package bdi

import (
	"errors"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"mdm/internal/rdf"
	"mdm/internal/relalg"
	"mdm/internal/schema"
)

const ex = "http://ex.org/"

func sig(w string, attrs ...string) schema.Signature {
	s := schema.Signature{Wrapper: w}
	for _, a := range attrs {
		s.Attributes = append(s.Attributes, schema.Attribute{Name: a, Type: relalg.TypeString})
	}
	return s
}

// releasedAt is the time of every release these tests make, so that two
// ontologies built by the same calls hold the same quads.
var releasedAt = time.Date(2018, 3, 26, 10, 0, 0, 0, time.UTC)

// release registers a wrapper at releasedAt.
func release(o *Ontology, sourceID string, s schema.Signature) error {
	_, err := o.RegisterWrapper(sourceID, s, releasedAt)
	return err
}

// miniFixture builds a Player/Team ontology close to Figures 5-7.
func miniFixture(t *testing.T) *Ontology {
	t.Helper()
	o := New()
	fillMini(t, o)
	return o
}

// fillMini makes the mutator calls of miniFixture on o and returns how
// many it made.
func fillMini(t *testing.T, o *Ontology) int {
	t.Helper()
	o.Dataset().Prefixes().Bind("ex", ex)
	player := rdf.IRI(ex + "Player")
	team := rdf.IRI(NSSchema + "SportsTeam")
	pid, pname := rdf.IRI(ex+"playerId"), rdf.IRI(ex+"playerName")
	tid, tname := rdf.IRI(ex+"teamId"), rdf.IRI(ex+"teamName")

	calls := []error{
		o.AddConcept(player, "Player"),
		o.AddConcept(team, "SportsTeam"),
		o.AddFeature(pid, "playerId"),
		o.AddFeature(pname, "playerName"),
		o.AddFeature(tid, "teamId"),
		o.AddFeature(tname, "teamName"),
		o.AttachFeature(player, pid),
		o.AttachFeature(player, pname),
		o.AttachFeature(team, tid),
		o.AttachFeature(team, tname),
		o.MarkIdentifier(pid),
		o.MarkIdentifier(tid),
		o.RelateConcepts(player, rdf.IRI(ex+"playsIn"), team),
		o.AddDataSource("players-api", "Players API"),
		o.AddDataSource("teams-api", "Teams API"),
		release(o, "players-api", sig("w1", "id", "pName", "teamId")),
		release(o, "teams-api", sig("w2", "id", "name")),
	}
	for _, err := range calls {
		if err != nil {
			t.Fatal(err)
		}
	}
	return len(calls)
}

// recJournal is a Journal that records each batch and applies it, or
// refuses everything once fail is set.
type recJournal struct {
	ds      *rdf.Dataset
	batches [][]rdf.Op
	fail    error
}

func (j *recJournal) Commit(ops []rdf.Op) error {
	if j.fail != nil {
		return j.fail
	}
	j.batches = append(j.batches, slices.Clone(ops)) // Commit must not retain ops
	j.ds.Apply(ops)
	return nil
}

// TestJournalSeam: with a journal set, every mutator commits its whole
// write set as one batch and writes nothing itself, the result is the
// dataset the direct writes build, and a commit that fails is the
// mutator's error with the dataset untouched.
func TestJournalSeam(t *testing.T) {
	direct := miniFixture(t)
	o := New()
	j := &recJournal{ds: o.Dataset()}
	o.SetJournal(j)
	calls := fillMini(t, o)
	if len(j.batches) != calls {
		t.Fatalf("%d mutator calls committed %d batches", calls, len(j.batches))
	}
	if got, want := o.Dataset().Quads(), direct.Dataset().Quads(); !reflect.DeepEqual(got, want) {
		t.Fatalf("journaled ontology holds\n%v\ndirect writes build\n%v", got, want)
	}

	player, pid := rdf.IRI(ex+"Player"), rdf.IRI(ex+"playerId")
	m := Mapping{
		Wrapper:  "w1",
		Subgraph: []rdf.Triple{rdf.T(player, rdf.IRI(rdf.RDFType), ClassConcept), rdf.T(player, PropHasFeature, pid)},
		SameAs:   map[string]rdf.Term{"id": pid},
	}
	if err := o.DefineMapping(m); err != nil {
		t.Fatal(err)
	}
	last := j.batches[len(j.batches)-1]
	if len(j.batches) != calls+1 || len(last) != 4 || last[0].Kind != rdf.OpDrop || last[0].Quad.Graph != WrapperIRI("w1") {
		t.Fatalf("DefineMapping committed %v, want one batch: drop the mapping graph, then 3 adds", last)
	}

	j.fail = errors.New("disk full")
	before := o.Dataset().Quads()
	m.Subgraph = m.Subgraph[:1]
	m.SameAs = nil
	for name, err := range map[string]error{
		"AddConcept":      o.AddConcept(rdf.IRI(ex+"Referee"), "Referee"),
		"MarkIdentifier":  o.MarkIdentifier(rdf.IRI(ex + "playerName")),
		"RegisterWrapper": release(o, "players-api", sig("w3", "id")),
		"DefineMapping":   o.DefineMapping(m),
	} {
		if !errors.Is(err, j.fail) {
			t.Errorf("%s with a failing journal returned %v", name, err)
		}
	}
	if got := o.Dataset().Quads(); !reflect.DeepEqual(got, before) {
		t.Errorf("failed commits changed the dataset:\n%v\nwas\n%v", got, before)
	}
}

func TestGlobalGraphConstruction(t *testing.T) {
	o := miniFixture(t)
	if got := len(o.Concepts()); got != 2 {
		t.Fatalf("concepts = %d", got)
	}
	if got := len(o.Global().Subjects(rdf.IRI(rdf.RDFType), ClassFeature)); got != 4 {
		t.Fatalf("features = %d", got)
	}
	player := rdf.IRI(ex + "Player")
	feats := o.FeaturesOf(player)
	if len(feats) != 2 {
		t.Fatalf("player features = %v", feats)
	}
	if owners := o.Global().Subjects(PropHasFeature, rdf.IRI(ex+"playerName")); len(owners) != 1 || owners[0] != player {
		t.Errorf("playerName owners = %v", owners)
	}
	rels := o.ConceptRelations()
	if len(rels) != 1 || rels[0].P.Value != ex+"playsIn" {
		t.Errorf("relations = %v", rels)
	}
}

func TestFeatureSingleOwnerConstraint(t *testing.T) {
	o := miniFixture(t)
	team := rdf.IRI(NSSchema + "SportsTeam")
	err := o.AttachFeature(team, rdf.IRI(ex+"playerName"))
	if !errors.Is(err, ErrFeatureOwned) {
		t.Fatalf("err = %v, want ErrFeatureOwned", err)
	}
	// Re-attaching to the same concept is idempotent, not an error.
	if err := o.AttachFeature(team, rdf.IRI(ex+"teamName")); err != nil {
		t.Fatal(err)
	}
}

func TestAttachFeatureUnknownEndpoints(t *testing.T) {
	o := miniFixture(t)
	if err := o.AttachFeature(rdf.IRI(ex+"Ghost"), rdf.IRI(ex+"playerName")); !errors.Is(err, ErrUnknownConcept) {
		t.Errorf("err = %v", err)
	}
	if err := o.AttachFeature(rdf.IRI(ex+"Player"), rdf.IRI(ex+"ghost")); !errors.Is(err, ErrUnknownFeature) {
		t.Errorf("err = %v", err)
	}
	if err := o.RelateConcepts(rdf.IRI(ex+"Player"), rdf.IRI(ex+"p"), rdf.IRI(ex+"Ghost")); !errors.Is(err, ErrUnknownConcept) {
		t.Errorf("relate err = %v", err)
	}
	if err := o.MarkIdentifier(rdf.IRI(ex + "ghost")); !errors.Is(err, ErrUnknownFeature) {
		t.Errorf("mark err = %v", err)
	}
	if err := o.AddConcept(rdf.Lit("x"), ""); err == nil {
		t.Error("literal concept accepted")
	}
	if err := o.AddFeature(rdf.Blank("b"), ""); err == nil {
		t.Error("blank feature accepted")
	}
}

func TestIdentifiers(t *testing.T) {
	o := miniFixture(t)
	player := rdf.IRI(ex + "Player")
	pid := rdf.IRI(ex + "playerId")
	if !o.IsIdentifier(pid) {
		t.Error("playerId should be an identifier")
	}
	if o.IsIdentifier(rdf.IRI(ex + "playerName")) {
		t.Error("playerName should not be an identifier")
	}
	id, ok := o.IdentifierOf(player)
	if !ok || id != pid {
		t.Errorf("IdentifierOf = %v, %v", id, ok)
	}
	// Transitive identifier: subclass of a subclass.
	special := rdf.IRI(ex + "specialId")
	o.AddFeature(special, "specialId")
	o.AddSubClass(special, pid)
	if !o.IsIdentifier(special) {
		t.Error("transitive identifier not detected")
	}
}

func TestSourceGraphConstruction(t *testing.T) {
	o := miniFixture(t)
	if got := len(o.Sources()); got != 2 {
		t.Fatalf("sources = %d", got)
	}
	ws := o.Source().Objects(SourceIRI("players-api"), PropHasWrapper)
	if len(ws) != 1 || ws[0] != WrapperIRI("w1") {
		t.Fatalf("wrappers = %v", ws)
	}
	attrs := o.Source().Objects(WrapperIRI("w1"), PropHasAttribute)
	if len(attrs) != 3 {
		t.Fatalf("attributes = %v", attrs)
	}
	name, ok := o.AttributeName(attrs[0])
	if !ok || name == "" {
		t.Errorf("AttributeName = %q, %v", name, ok)
	}
	if err := release(o, "ghost-api", sig("w9", "a")); !errors.Is(err, ErrUnknownSource) {
		t.Errorf("register on unknown source = %v", err)
	}
	if err := o.AddDataSource("", ""); err == nil {
		t.Error("empty source id accepted")
	}
}

func TestAttributeReuseWithinSource(t *testing.T) {
	o := miniFixture(t)
	// Second wrapper of players-api shares attribute names id, teamId.
	if err := release(o, "players-api", sig("w1b", "id", "extra")); err != nil {
		t.Fatal(err)
	}
	// The id attribute node must be shared between w1 and w1b …
	a1 := o.Source().Objects(WrapperIRI("w1"), PropHasAttribute)
	a1b := o.Source().Objects(WrapperIRI("w1b"), PropHasAttribute)
	shared := false
	for _, x := range a1 {
		for _, y := range a1b {
			if x == y {
				shared = true
			}
		}
	}
	if !shared {
		t.Error("attribute nodes not reused within the same source")
	}
	// … but "id" of teams-api is a different node (no cross-source reuse).
	if AttributeIRI("players-api", "id") == AttributeIRI("teams-api", "id") {
		t.Error("attribute IRIs must be source-scoped")
	}
}

func playerTeamMapping() (Mapping, Mapping) {
	player := rdf.IRI(ex + "Player")
	team := rdf.IRI(NSSchema + "SportsTeam")
	rt := rdf.IRI(rdf.RDFType)
	m1 := Mapping{
		Wrapper: "w1",
		Subgraph: []rdf.Triple{
			rdf.T(player, rt, ClassConcept),
			rdf.T(player, PropHasFeature, rdf.IRI(ex+"playerId")),
			rdf.T(player, PropHasFeature, rdf.IRI(ex+"playerName")),
			rdf.T(player, rdf.IRI(ex+"playsIn"), team),
			rdf.T(team, rt, ClassConcept),
			rdf.T(team, PropHasFeature, rdf.IRI(ex+"teamId")),
		},
		SameAs: map[string]rdf.Term{
			"id": rdf.IRI(ex + "playerId"), "pName": rdf.IRI(ex + "playerName"),
			"teamId": rdf.IRI(ex + "teamId"),
		},
	}
	m2 := Mapping{
		Wrapper: "w2",
		Subgraph: []rdf.Triple{
			rdf.T(team, rt, ClassConcept),
			rdf.T(team, PropHasFeature, rdf.IRI(ex+"teamId")),
			rdf.T(team, PropHasFeature, rdf.IRI(ex+"teamName")),
		},
		SameAs: map[string]rdf.Term{
			"id": rdf.IRI(ex + "teamId"), "name": rdf.IRI(ex + "teamName"),
		},
	}
	return m1, m2
}

func TestDefineAndReadMappings(t *testing.T) {
	o := miniFixture(t)
	m1, m2 := playerTeamMapping()
	if err := o.DefineMapping(m1); err != nil {
		t.Fatal(err)
	}
	if err := o.DefineMapping(m2); err != nil {
		t.Fatal(err)
	}
	names := o.MappedWrappers()
	if len(names) != 2 || names[0] != "w1" || names[1] != "w2" {
		t.Fatalf("MappedWrappers = %v", names)
	}
	got, ok := o.MappingOf("w1")
	if !ok || len(got.Subgraph) != len(m1.Subgraph) || len(got.SameAs) != 3 {
		t.Fatalf("MappingOf = %+v, %v", got, ok)
	}
	if _, ok := o.MappingOf("ghost"); ok {
		t.Error("MappingOf unknown wrapper")
	}

	player := rdf.IRI(ex + "Player")
	team := rdf.IRI(NSSchema + "SportsTeam")
	if ws := o.WrappersCovering(player); len(ws) != 1 || ws[0] != "w1" {
		t.Errorf("WrappersCovering(Player) = %v", ws)
	}
	if ws := o.WrappersCovering(team); len(ws) != 2 {
		t.Errorf("WrappersCovering(Team) = %v", ws)
	}
	if !o.WrapperProvidesFeature("w1", player, rdf.IRI(ex+"playerName")) {
		t.Error("w1 should provide playerName")
	}
	if o.WrapperProvidesFeature("w2", player, rdf.IRI(ex+"playerName")) {
		t.Error("w2 should not provide playerName")
	}
	// w1 covers Team's id but not teamName.
	if !o.WrapperProvidesFeature("w1", team, rdf.IRI(ex+"teamId")) {
		t.Error("w1 should provide teamId")
	}
	if o.WrapperProvidesFeature("w1", team, rdf.IRI(ex+"teamName")) {
		t.Error("w1 should not provide teamName")
	}
	attr, ok := o.AttributeForFeature("w1", rdf.IRI(ex+"playerName"))
	if !ok || attr != "pName" {
		t.Errorf("AttributeForFeature = %q, %v", attr, ok)
	}
	if _, ok := o.AttributeForFeature("w2", rdf.IRI(ex+"playerName")); ok {
		t.Error("AttributeForFeature should miss for w2")
	}
	if !o.WrapperCoversRelation("w1", rdf.T(player, rdf.IRI(ex+"playsIn"), team)) {
		t.Error("w1 should cover playsIn")
	}
	if o.WrapperCoversRelation("w2", rdf.T(player, rdf.IRI(ex+"playsIn"), team)) {
		t.Error("w2 should not cover playsIn")
	}
}

func TestDefineMappingValidation(t *testing.T) {
	o := miniFixture(t)
	m1, _ := playerTeamMapping()

	bad := m1
	bad.Wrapper = "ghost"
	if err := o.DefineMapping(bad); !errors.Is(err, ErrUnknownWrapper) {
		t.Errorf("unknown wrapper = %v", err)
	}

	bad = m1
	bad.Subgraph = append(append([]rdf.Triple(nil), m1.Subgraph...),
		rdf.T(rdf.IRI(ex+"Nope"), rdf.IRI(rdf.RDFType), ClassConcept))
	if err := o.DefineMapping(bad); !errors.Is(err, ErrNotInGlobal) {
		t.Errorf("foreign triple = %v", err)
	}

	bad = m1
	bad.SameAs = map[string]rdf.Term{"ghostAttr": rdf.IRI(ex + "playerId")}
	if err := o.DefineMapping(bad); !errors.Is(err, ErrAttrNotInWrapper) {
		t.Errorf("foreign attribute = %v", err)
	}

	bad = m1
	bad.SameAs = map[string]rdf.Term{"id": rdf.IRI(ex + "teamName")} // not in subgraph
	if err := o.DefineMapping(bad); err == nil {
		t.Error("sameAs to uncovered feature accepted")
	}

	// Redefinition replaces the old named graph.
	if err := o.DefineMapping(m1); err != nil {
		t.Fatal(err)
	}
	smaller := m1
	smaller.Subgraph = m1.Subgraph[:2]
	smaller.SameAs = map[string]rdf.Term{"id": rdf.IRI(ex + "playerId")}
	if err := o.DefineMapping(smaller); err != nil {
		t.Fatal(err)
	}
	got, _ := o.MappingOf("w1")
	if len(got.Subgraph) != 2 || len(got.SameAs) != 1 {
		t.Errorf("redefined mapping = %+v", got)
	}
}

func TestValidateCleanFixture(t *testing.T) {
	o := miniFixture(t)
	m1, m2 := playerTeamMapping()
	o.DefineMapping(m1)
	o.DefineMapping(m2)
	if v := o.Validate(); len(v) != 0 {
		t.Errorf("violations on clean fixture: %v", v)
	}
}

func TestValidateDetectsViolations(t *testing.T) {
	o := miniFixture(t)
	// Force a double-owner by writing directly to the graph (bypassing
	// the API, as a corrupted store would).
	team := rdf.IRI(NSSchema + "SportsTeam")
	o.Global().MustAdd(rdf.T(team, PropHasFeature, rdf.IRI(ex+"playerName")))
	found := false
	for _, v := range o.Validate() {
		if v.Rule == "feature-single-owner" {
			found = true
		}
	}
	if !found {
		t.Error("feature-single-owner violation not detected")
	}

	// Concept without identifier used by a mapping.
	o2 := miniFixture(t)
	noid := rdf.IRI(ex + "NoId")
	fx := rdf.IRI(ex + "x")
	o2.AddConcept(noid, "NoId")
	o2.AddFeature(fx, "x")
	o2.AttachFeature(noid, fx)
	release(o2, "players-api", sig("w7", "x"))
	if err := o2.DefineMapping(Mapping{
		Wrapper: "w7",
		Subgraph: []rdf.Triple{
			rdf.T(noid, rdf.IRI(rdf.RDFType), ClassConcept),
			rdf.T(noid, PropHasFeature, fx),
		},
		SameAs: map[string]rdf.Term{"x": fx},
	}); err != nil {
		t.Fatal(err)
	}
	found = false
	for _, v := range o2.Validate() {
		if v.Rule == "concept-identifier" {
			found = true
		}
	}
	if !found {
		t.Errorf("concept-identifier violation not detected: %v", o2.Validate())
	}

	// Dangling hasFeature edge.
	o3 := New()
	o3.Global().MustAdd(rdf.T(rdf.IRI(ex+"C"), PropHasFeature, rdf.IRI(ex+"f")))
	vs := o3.Validate()
	if len(vs) < 2 { // undeclared concept + undeclared feature
		t.Errorf("dangling edge violations = %v", vs)
	}
}

func TestRenderings(t *testing.T) {
	o := miniFixture(t)
	m1, m2 := playerTeamMapping()
	o.DefineMapping(m1)
	o.DefineMapping(m2)

	global := o.RenderGlobal()
	for _, frag := range []string{"concept ex:Player", "feature ex:playerId  [identifier]", "ex:playsIn", "sc:SportsTeam"} {
		if !strings.Contains(global, frag) {
			t.Errorf("RenderGlobal missing %q:\n%s", frag, global)
		}
	}
	src := o.RenderSource()
	for _, frag := range []string{"dataSource Players API", "wrapper w1(id, pName, teamId)", "wrapper w2(id, name)"} {
		if !strings.Contains(src, frag) {
			t.Errorf("RenderSource missing %q:\n%s", frag, src)
		}
	}
	maps := o.RenderMappings()
	for _, frag := range []string{"wrapper w1", "pName owl:sameAs ex:playerName", "covers:"} {
		if !strings.Contains(maps, frag) {
			t.Errorf("RenderMappings missing %q:\n%s", frag, maps)
		}
	}
}

func TestStats(t *testing.T) {
	o := miniFixture(t)
	m1, m2 := playerTeamMapping()
	o.DefineMapping(m1)
	o.DefineMapping(m2)
	st := o.Stats()
	if st.Concepts != 2 || st.Features != 4 || st.Relations != 1 {
		t.Errorf("global stats = %+v", st)
	}
	if st.Sources != 2 || st.Wrappers != 2 || st.Attributes != 5 {
		t.Errorf("source stats = %+v", st)
	}
	if st.Mappings != 2 || st.SameAs != 5 {
		t.Errorf("mapping stats = %+v", st)
	}
}

func TestFromDatasetBindsPrefixes(t *testing.T) {
	o := miniFixture(t)
	o2 := FromDataset(o.Dataset())
	if len(o2.Concepts()) != 2 {
		t.Error("FromDataset lost data")
	}
	if _, ok := o2.Dataset().Prefixes().Expand("G:Concept"); !ok {
		t.Error("FromDataset did not bind prefixes")
	}
}

func TestWrapperIRIEscaping(t *testing.T) {
	w := WrapperIRI("w 1/x")
	if strings.ContainsAny(w.Value[len(NSSource):], " ") {
		t.Errorf("unescaped wrapper IRI: %s", w)
	}
	o := New()
	o.AddDataSource("src", "")
	release(o, "src", sig("w 1/x", "a"))
	// Mapping round trip with escaped name.
	c := rdf.IRI(ex + "C")
	f := rdf.IRI(ex + "f")
	o.AddConcept(c, "")
	o.AddFeature(f, "")
	o.AttachFeature(c, f)
	if err := o.DefineMapping(Mapping{
		Wrapper: "w 1/x",
		Subgraph: []rdf.Triple{
			rdf.T(c, rdf.IRI(rdf.RDFType), ClassConcept),
			rdf.T(c, PropHasFeature, f),
		},
		SameAs: map[string]rdf.Term{"a": f},
	}); err != nil {
		t.Fatal(err)
	}
	names := o.MappedWrappers()
	if len(names) != 1 || names[0] != "w 1/x" {
		t.Errorf("MappedWrappers with escaping = %v", names)
	}
}

// TestOntologyGraphsShareDictionary guards the dataset-wide dictionary
// invariant the SPARQL ID-row engine relies on: the global graph, the
// source graph and every LAV-mapping named graph intern terms in the
// same dictionary, so a concept IRI carries one TermID across all of
// them (what lets cross-graph metadata queries join at the ID level).
func TestOntologyGraphsShareDictionary(t *testing.T) {
	o := New()
	c := rdf.IRI(ex + "Concept1")
	f := rdf.IRI(ex + "f1")
	if err := o.AddConcept(c, ""); err != nil {
		t.Fatal(err)
	}
	if err := o.AddFeature(f, ""); err != nil {
		t.Fatal(err)
	}
	if err := o.AttachFeature(c, f); err != nil {
		t.Fatal(err)
	}
	o.AddDataSource("src", "")
	release(o, "src", sig("w1", "a"))
	if err := o.DefineMapping(Mapping{
		Wrapper: "w1",
		Subgraph: []rdf.Triple{
			rdf.T(c, rdf.IRI(rdf.RDFType), ClassConcept),
			rdf.T(c, PropHasFeature, f),
		},
		SameAs: map[string]rdf.Term{"a": f},
	}); err != nil {
		t.Fatal(err)
	}

	ds := o.Dataset()
	mg, ok := ds.Lookup(WrapperIRI("w1"))
	if !ok {
		t.Fatal("mapping graph missing")
	}
	for name, g := range map[string]*rdf.Graph{
		"global": o.Global(), "source": o.Source(), "mapping": mg,
	} {
		if g.Dict() != ds.Dict() {
			t.Errorf("%s graph does not share the dataset dictionary", name)
		}
	}
	gid, gok := o.Global().IDOf(c)
	mid, mok := mg.IDOf(c)
	if !gok || !mok || gid != mid {
		t.Errorf("concept TermID differs across graphs: global %d/%v mapping %d/%v", gid, gok, mid, mok)
	}
}
