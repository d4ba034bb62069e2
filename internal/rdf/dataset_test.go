package rdf

import (
	"fmt"
	"testing"
)

func TestDatasetDefaultAndNamed(t *testing.T) {
	ds := NewDataset()
	ds.Default().MustAdd(T(IRI("s"), IRI("p"), Lit("dflt")))
	g1 := ds.Graph(IRI("http://ex.org/g1"))
	g1.MustAdd(T(IRI("s"), IRI("p"), Lit("named")))

	if ds.Default().Len() != 1 {
		t.Fatalf("default graph len = %d", ds.Default().Len())
	}
	got, ok := ds.Lookup(IRI("http://ex.org/g1"))
	if !ok || got.Len() != 1 {
		t.Fatalf("Lookup named = %v, %v", got, ok)
	}
	if _, ok := ds.Lookup(IRI("http://ex.org/missing")); ok {
		t.Fatal("Lookup should not create graphs")
	}
	// Graph() with zero name returns default.
	if ds.Graph(Term{}) != ds.Default() {
		t.Fatal("Graph(zero) != Default()")
	}
	if ds.Len() != 2 {
		t.Fatalf("dataset Len = %d, want 2", ds.Len())
	}
}

func TestDatasetGraphNamesSorted(t *testing.T) {
	ds := NewDataset()
	ds.Graph(IRI("http://ex.org/b"))
	ds.Graph(IRI("http://ex.org/a"))
	ds.Graph(IRI("http://ex.org/c"))
	names := ds.GraphNames()
	if len(names) != 3 || names[0].Value != "http://ex.org/a" || names[2].Value != "http://ex.org/c" {
		t.Errorf("GraphNames = %v", names)
	}
}

func TestDatasetDropGraph(t *testing.T) {
	ds := NewDataset()
	name := IRI("http://ex.org/g")
	ds.Graph(name).MustAdd(T(IRI("s"), IRI("p"), Lit("v")))
	if !ds.DropGraph(name) {
		t.Fatal("DropGraph = false")
	}
	if _, ok := ds.Lookup(name); ok {
		t.Fatal("graph survived drop")
	}
	if ds.DropGraph(name) {
		t.Fatal("second DropGraph should be false")
	}
}

func TestDatasetQuadsOrderAndAddQuad(t *testing.T) {
	ds := NewDataset()
	ds.Graph(IRI("g")).MustAdd(T(IRI("s"), IRI("p"), Lit("n")))
	ds.Default().MustAdd(T(IRI("s"), IRI("p"), Lit("d")))
	qs := ds.Quads()
	if len(qs) != 2 {
		t.Fatalf("Quads len = %d", len(qs))
	}
	if !qs[0].Graph.IsZero() {
		t.Error("default-graph quads should come first")
	}
	if qs[1].Graph != IRI("g") {
		t.Errorf("named quad graph = %v", qs[1].Graph)
	}
}

func TestPrefixMapExpandCompact(t *testing.T) {
	pm := NewPrefixMap()
	pm.Bind("sc", "http://schema.org/")
	iri, ok := pm.Expand("sc:SportsTeam")
	if !ok || iri != "http://schema.org/SportsTeam" {
		t.Errorf("Expand = %q, %v", iri, ok)
	}
	if _, ok := pm.Expand("nope:x"); ok {
		t.Error("unknown prefix should not expand")
	}
	if _, ok := pm.Expand("noColon"); ok {
		t.Error("string without colon should not expand")
	}
	c, ok := pm.Compact("http://schema.org/SportsTeam")
	if !ok || c != "sc:SportsTeam" {
		t.Errorf("Compact = %q, %v", c, ok)
	}
	if _, ok := pm.Compact("http://unknown.org/x"); ok {
		t.Error("unknown namespace should not compact")
	}
	// Local parts containing separators must not compact.
	if _, ok := pm.Compact("http://schema.org/a/b"); ok {
		t.Error("nested path should not compact")
	}
}

func TestPrefixMapLongestMatchWins(t *testing.T) {
	pm := NewPrefixMap()
	pm.Bind("a", "http://ex.org/")
	pm.Bind("b", "http://ex.org/sub#")
	c, ok := pm.Compact("http://ex.org/sub#x")
	if !ok || c != "b:x" {
		t.Errorf("Compact = %q, want b:x", c)
	}
}

func TestPrefixMapRebindReplaces(t *testing.T) {
	pm := NewPrefixMap()
	pm.Bind("p", "http://one.org/")
	pm.Bind("p", "http://two.org/")
	if iri, _ := pm.Expand("p:x"); iri != "http://two.org/x" {
		t.Errorf("Expand after rebind = %q", iri)
	}
	if _, ok := pm.Compact("http://one.org/x"); ok {
		t.Error("stale reverse binding survived rebind")
	}
}

func TestPrefixMapMustExpandPanics(t *testing.T) {
	pm := NewPrefixMap()
	if got := pm.MustExpand("rdf:type"); got != RDFType {
		t.Errorf("MustExpand = %q", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("MustExpand should panic for unknown prefix")
		}
	}()
	pm.MustExpand("bogus:x")
}

func TestPrefixMapCompactTerm(t *testing.T) {
	pm := NewPrefixMap()
	pm.Bind("ex", "http://ex.org/")
	if got := pm.CompactTerm(IRI("http://ex.org/a")); got != "ex:a" {
		t.Errorf("CompactTerm IRI = %q", got)
	}
	if got := pm.CompactTerm(Lit("v")); got != `"v"` {
		t.Errorf("CompactTerm literal = %q", got)
	}
	if got := pm.CompactTerm(IRI("http://other.org/a")); got != "<http://other.org/a>" {
		t.Errorf("CompactTerm unknown ns = %q", got)
	}
}

func TestPrefixMapPairsSorted(t *testing.T) {
	pm := NewPrefixMap()
	pairs := pm.Pairs()
	for i := 1; i < len(pairs); i++ {
		if pairs[i-1][0] >= pairs[i][0] {
			t.Errorf("Pairs not sorted: %v", pairs)
		}
	}
}

func TestDatasetSharedDict(t *testing.T) {
	ds := NewDataset()
	term := IRI("http://ex.org/shared")
	ds.Default().MustAdd(T(term, IRI("p"), Lit("v")))
	g := ds.Graph(IRI("http://ex.org/g"))
	g.MustAdd(T(term, IRI("q"), Lit("w")))

	if ds.Default().Dict() != ds.Dict() || g.Dict() != ds.Dict() {
		t.Fatal("graphs do not share the dataset dictionary")
	}
	id1, ok1 := ds.Default().IDOf(term)
	id2, ok2 := g.IDOf(term)
	if !ok1 || !ok2 || id1 != id2 {
		t.Fatalf("shared term has IDs %d/%d (ok %v/%v)", id1, id2, ok1, ok2)
	}
	// Graph names are interned on creation so SPARQL GRAPH ?g can bind
	// them at the ID level.
	if _, ok := ds.Dict().ID(IRI("http://ex.org/g")); !ok {
		t.Error("graph name not interned in dataset dictionary")
	}
}

func TestDatasetVersionBumpsOnStructuralChange(t *testing.T) {
	ds := NewDataset()
	v0 := ds.Version()

	// Triple-level writes do not bump the version.
	ds.Default().MustAdd(T(IRI("s"), IRI("p"), Lit("o")))
	if ds.Version() != v0 {
		t.Fatalf("version bumped by a triple write: %d -> %d", v0, ds.Version())
	}

	name := IRI("http://ex.org/g")
	ds.Graph(name)
	v1 := ds.Version()
	if v1 == v0 {
		t.Fatal("version unchanged after named-graph creation")
	}
	ds.Graph(name) // already exists: no bump
	if ds.Version() != v1 {
		t.Fatal("version bumped by a lookup of an existing graph")
	}

	if !ds.DropGraph(name) {
		t.Fatal("DropGraph = false")
	}
	v2 := ds.Version()
	if v2 == v1 {
		t.Fatal("version unchanged after DropGraph")
	}
	if ds.DropGraph(name) {
		t.Fatal("second DropGraph should report false")
	}
	if ds.Version() != v2 {
		t.Fatal("version bumped by a no-op DropGraph")
	}

	// Re-creating a graph whose name is already interned must still bump.
	ds.Graph(name)
	if ds.Version() == v2 {
		t.Fatal("version unchanged after re-creating a dropped graph")
	}
}

// TestDatasetWritesCountsEveryWritePath: Writes moves on every
// successful triple-level write to any graph of the dataset, whichever
// method made it, and on nothing else.
func TestDatasetWritesCountsEveryWritePath(t *testing.T) {
	ds := NewDataset()
	g := ds.Graph(IRI("http://ex.org/g"))
	h := ds.Graph(IRI("http://ex.org/h"))
	tr := func(i int) Triple {
		return T(IRI(fmt.Sprintf("http://ex.org/s%d", i)), IRI("http://ex.org/p"), IRI("http://ex.org/o"))
	}
	step := func(name string, want uint64, do func()) {
		t.Helper()
		before := ds.Writes()
		do()
		if got := ds.Writes() - before; got != want {
			t.Errorf("%s moved Writes by %d, want %d", name, got, want)
		}
	}
	step("Add", 1, func() { g.MustAdd(tr(1)) })
	step("Add of a present triple", 0, func() { g.MustAdd(tr(1)) })
	step("Add to the default graph", 1, func() { ds.Default().MustAdd(tr(1)) })
	id := func(t Term) TermID { return ds.Dict().Intern(t) }
	step("BulkAddIDs", 2, func() {
		g.BulkAddIDs([][3]TermID{
			{id(tr(1).S), id(tr(1).P), id(tr(1).O)}, // present
			{id(tr(3).S), id(tr(3).P), id(tr(3).O)},
			{id(tr(4).S), id(tr(4).P), id(tr(4).O)},
		})
	})
	step("Add to another graph", 1, func() { h.MustAdd(tr(1)) })
	step("reads", 0, func() { g.Has(tr(2)); g.Match(Any, Any, Any); ds.Len() })
	step("DropGraph (a Version change)", 0, func() { ds.DropGraph(IRI("http://ex.org/h")) })
}

func TestPrefixMapBindsCountsBinds(t *testing.T) {
	pm := NewPrefixMap()
	before := pm.Binds()
	pm.Bind("ex", "http://ex.org/")
	pm.Bind("ex", "http://ex.org/v2/")
	if got := pm.Binds() - before; got != 2 {
		t.Errorf("two Bind calls moved Binds by %d", got)
	}
	pm.Compact("http://ex.org/v2/a")
	pm.Pairs()
	if got := pm.Binds() - before; got != 2 {
		t.Errorf("reads moved Binds to %d", got)
	}
}
