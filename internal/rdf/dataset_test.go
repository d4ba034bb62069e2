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

// changeStep is one call on a dataset and how far it should move
// Dataset.Changes.
type changeStep struct {
	name string
	want uint64
	do   func()
}

// checkChanges runs the steps in order and checks that each moves
// ds.Changes by exactly its want.
func checkChanges(t *testing.T, ds *Dataset, steps []changeStep) {
	t.Helper()
	for _, step := range steps {
		before := ds.Changes()
		step.do()
		if got := ds.Changes() - before; got != step.want {
			t.Errorf("%s moved Changes by %d, want %d", step.name, got, step.want)
		}
	}
}

// TestDatasetVersionBumpsOnStructuralChange: creating or dropping a named
// graph moves Changes; looking one up or dropping a missing one does not.
func TestDatasetVersionBumpsOnStructuralChange(t *testing.T) {
	ds := NewDataset()
	name := IRI("http://ex.org/g")
	checkChanges(t, ds, []changeStep{
		{"Graph creating a graph", 1, func() { ds.Graph(name) }},
		{"Graph of an existing graph", 0, func() { ds.Graph(name) }},
		{"Lookup", 0, func() { ds.Lookup(name) }},
		{"DropGraph", 1, func() { ds.DropGraph(name) }},
		{"DropGraph of a missing graph", 0, func() { ds.DropGraph(name) }},
		// The name is interned already: re-creating the graph still counts.
		{"Graph re-creating a dropped graph", 1, func() { ds.Graph(name) }},
	})
}

// TestDatasetWritesCountsEveryWritePath: Changes moves on every triple
// added to any graph of the dataset, whichever method added it, and on
// no read.
func TestDatasetWritesCountsEveryWritePath(t *testing.T) {
	ds := NewDataset()
	name := IRI("http://ex.org/g")
	g := ds.Graph(name)
	tr := func(i int) Triple {
		return T(IRI(fmt.Sprintf("http://ex.org/s%d", i)), IRI("http://ex.org/p"), IRI("http://ex.org/o"))
	}
	id := func(t Term) TermID { return ds.Dict().Intern(t) }
	checkChanges(t, ds, []changeStep{
		{"Add", 1, func() { g.MustAdd(tr(1)) }},
		{"Add of a present triple", 0, func() { g.MustAdd(tr(1)) }},
		{"Add to the default graph", 1, func() { ds.Default().MustAdd(tr(1)) }},
		{"BulkAddIDs", 2, func() {
			g.BulkAddIDs([][3]TermID{
				{id(tr(1).S), id(tr(1).P), id(tr(1).O)}, // present
				{id(tr(3).S), id(tr(3).P), id(tr(3).O)},
				{id(tr(4).S), id(tr(4).P), id(tr(4).O)},
			})
		}},
		// A graph created, a triple added to it, a graph dropped, a prefix bound.
		{"Commit", 4, func() {
			ds.Commit([]Op{
				{Kind: OpAdd, Quad: Quad{Triple: tr(5), Graph: IRI("http://ex.org/k")}},
				{Kind: OpDrop, Quad: Quad{Graph: name}},
				{Kind: OpPrefix, Prefix: "fb", NS: "http://ex.org/fb/"},
			})
		}},
		{"reads", 0, func() {
			g.Has(tr(2))
			g.Match(Any, Any, Any)
			ds.Len()
			ds.Lookup(name)
		}},
	})
}

// TestPrefixMapBindsCountsBinds: every Bind to the dataset's prefix map
// moves Changes, a rebinding included; reading the map does not.
func TestPrefixMapBindsCountsBinds(t *testing.T) {
	ds := NewDataset()
	checkChanges(t, ds, []changeStep{
		{"Bind", 1, func() { ds.Prefixes().Bind("ex", "http://ex.org/") }},
		{"Bind replacing a binding", 1, func() { ds.Prefixes().Bind("ex", "http://ex.org/v2/") }},
		{"reads", 0, func() {
			ds.Prefixes().Compact("http://ex.org/v2/a")
			ds.Prefixes().Pairs()
		}},
	})
}
