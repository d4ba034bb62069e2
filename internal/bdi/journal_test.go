package bdi_test

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"mdm/internal/bdi"
	"mdm/internal/rdf"
	"mdm/internal/relalg"
	"mdm/internal/schema"
	"mdm/internal/tdb"
)

// TestEveryMutatorOneWritePath runs every ontology mutator, valid and
// invalid calls alike, on an in-memory ontology and on a tdb-backed one:
// both commit through a journal, so they return the same errors (an
// invalid quad included, which the in-memory path once panicked on) and
// hold the same dataset.
func TestEveryMutatorOneWritePath(t *testing.T) {
	const ex = "http://ex.org/"
	iri := func(s string) rdf.Term { return rdf.IRI(ex + s) }
	at := time.Date(2018, 3, 26, 10, 0, 0, 0, time.UTC)
	sig := schema.Signature{Wrapper: "w1", Attributes: []schema.Attribute{{Name: "id", Type: relalg.TypeString}}}
	steps := []struct {
		name string
		do   func(o *bdi.Ontology) error
	}{
		{"BindPrefix", func(o *bdi.Ontology) error { return o.BindPrefix("ex", ex) }},
		{"BindPrefix unreadable label", func(o *bdi.Ontology) error { return o.BindPrefix("e x", ex) }},
		{"AddConcept", func(o *bdi.Ontology) error { return o.AddConcept(iri("Player"), "Player") }},
		{"AddConcept team", func(o *bdi.Ontology) error { return o.AddConcept(iri("Team"), "") }},
		{"AddConcept literal", func(o *bdi.Ontology) error { return o.AddConcept(rdf.Lit("x"), "x") }},
		{"AddFeature", func(o *bdi.Ontology) error { return o.AddFeature(iri("id"), "id") }},
		{"AttachFeature", func(o *bdi.Ontology) error { return o.AttachFeature(iri("Player"), iri("id")) }},
		{"AttachFeature unknown", func(o *bdi.Ontology) error { return o.AttachFeature(iri("Coach"), iri("id")) }},
		{"MarkIdentifier", func(o *bdi.Ontology) error { return o.MarkIdentifier(iri("id")) }},
		{"RelateConcepts", func(o *bdi.Ontology) error { return o.RelateConcepts(iri("Player"), iri("playsIn"), iri("Team")) }},
		{"RelateConcepts literal property", func(o *bdi.Ontology) error {
			return o.RelateConcepts(iri("Player"), rdf.Lit("playsIn"), iri("Team"))
		}},
		{"AddSubClass", func(o *bdi.Ontology) error { return o.AddSubClass(iri("Player"), iri("Person")) }},
		{"AddSubClass literal subject", func(o *bdi.Ontology) error { return o.AddSubClass(rdf.Lit("x"), iri("Person")) }},
		{"AddDataSource", func(o *bdi.Ontology) error { return o.AddDataSource("players", "Players") }},
		{"AddDataSource empty", func(o *bdi.Ontology) error { return o.AddDataSource("", "") }},
		{"RegisterWrapper", func(o *bdi.Ontology) error { _, err := o.RegisterWrapper("players", sig, at); return err }},
		{"RegisterWrapper again", func(o *bdi.Ontology) error { _, err := o.RegisterWrapper("players", sig, at); return err }},
		{"DefineMapping", func(o *bdi.Ontology) error {
			return o.DefineMapping(bdi.Mapping{
				Wrapper:  "w1",
				Subgraph: []rdf.Triple{rdf.T(iri("Player"), rdf.IRI(rdf.RDFType), bdi.ClassConcept), rdf.T(iri("Player"), bdi.PropHasFeature, iri("id"))},
				SameAs:   map[string]rdf.Term{"id": iri("id")},
			})
		}},
		{"DefineMapping unknown wrapper", func(o *bdi.Ontology) error { return o.DefineMapping(bdi.Mapping{Wrapper: "ghost"}) }},
	}

	mem := bdi.New()
	ts, err := tdb.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()
	disk := bdi.FromDataset(ts.Dataset())
	disk.SetJournal(ts)

	failures := 0
	for _, s := range steps {
		memErr, diskErr := s.do(mem), s.do(disk)
		if fmt.Sprint(memErr) != fmt.Sprint(diskErr) {
			t.Errorf("%s: in memory %v, on tdb %v", s.name, memErr, diskErr)
		}
		if memErr != nil {
			failures++
		}
	}
	if failures != 8 {
		t.Errorf("%d steps failed, want the 8 invalid ones", failures)
	}
	if got, want := mem.Dataset().Quads(), disk.Dataset().Quads(); !reflect.DeepEqual(got, want) {
		t.Errorf("in-memory dataset\n%v\ntdb dataset\n%v", got, want)
	}
	if got, want := mem.Dataset().Prefixes().Pairs(), disk.Dataset().Prefixes().Pairs(); !reflect.DeepEqual(got, want) {
		t.Errorf("in-memory prefixes %v, tdb prefixes %v", got, want)
	}
}
