package sparql

import (
	"fmt"
	"testing"

	"mdm/internal/rdf"
)

// TestCanonicalChargeRule pins when the canonical barriers make the
// dictionary build its term order. A large dictionary answering many
// small queries — a store reopened for a steward's metadata lookups —
// must never pay for sorting all its terms; a dictionary whose results
// cover most of it must get the order within a few evaluations, after
// which its barriers compare no terms.
func TestCanonicalChargeRule(t *testing.T) {
	t.Run("small queries over a large dictionary", func(t *testing.T) {
		ds := rdf.NewDataset()
		g := ds.Default()
		for i := 0; i < 25_000; i++ {
			g.MustAdd(rdf.T(canonEx("s%d", i), canonEx("p"), rdf.IntLit(int64(i))))
		}
		for h := 0; h < 100; h++ {
			for k := 0; k < 10; k++ {
				g.MustAdd(rdf.T(canonEx("hub%d", h), canonEx("has"), canonEx("s%d", h*10+k)))
			}
		}
		d := ds.Dict()
		if d.Len() < 50_000 {
			t.Fatalf("dictionary has %d terms, want at least 50 000", d.Len())
		}
		for i := 0; i < 1000; i++ {
			src := fmt.Sprintf(`SELECT ?x WHERE { <http://ex.org/hub%d> <http://ex.org/has> ?x }`, i%100)
			res, err := Run(ds, src)
			if err != nil {
				t.Fatal(err)
			}
			if res.Len() != 10 {
				t.Fatalf("query %d: %d rows, want 10", i, res.Len())
			}
		}
		if o := d.Order(); o != nil {
			t.Fatalf("1000 ten-row queries built a term order over %d of %d terms", o.N(), d.Len())
		}
	})
	t.Run("queries covering most of the dictionary", func(t *testing.T) {
		ds := rdf.NewDataset()
		for i := 0; i < 2000; i++ {
			ds.Default().MustAdd(rdf.T(canonEx("s%d", i), canonEx("p"), canonEx("o%d", i)))
		}
		d := ds.Dict()
		q := MustParse(`SELECT ?s ?o WHERE { ?s <http://ex.org/p> ?o }`)
		evals := 0
		for ; d.Order().N() != d.Len(); evals++ {
			if evals == 3 {
				t.Fatalf("term order covers %d of %d terms after %d evaluations", d.Order().N(), d.Len(), evals)
			}
			if _, err := Eval(ds, q); err != nil {
				t.Fatal(err)
			}
		}
		ranked := obsCanonicalRanked.Value()
		res, err := Eval(ds, q)
		if err != nil {
			t.Fatal(err)
		}
		if obsCanonicalRanked.Value() != ranked+1 {
			t.Fatal("a barrier over terms the order covers did not take the ranked path")
		}
		want, err := refEval(ds, q)
		if err != nil {
			t.Fatal(err)
		}
		checkCanonicalOrder(t, q, res.Vars, res.Solutions(), want.Sols, -1)
	})
}

// TestCanonicalWideProjection drives a covered result whose five
// columns of term-order ranks cannot pack into one key (five times 13
// bits for a dictionary of more than 4 096 terms, plus the row index):
// the sort re-ranks the result's distinct IDs by their order ranks and
// must still compare no terms and produce the canonical order.
func TestCanonicalWideProjection(t *testing.T) {
	ds := rdf.NewDataset()
	g := ds.Default()
	for i := 0; i < 1000; i++ {
		s := canonEx("s%d", i)
		g.MustAdd(rdf.T(s, canonEx("p"), canonEx("o%d", i%37)))
		g.MustAdd(rdf.T(s, canonEx("q"), rdf.IntLit(int64(i%11))))
		g.MustAdd(rdf.T(s, canonEx("r"), rdf.Lit(fmt.Sprint(i%7))))
	}
	for i := 0; i < 4000; i++ {
		g.MustAdd(rdf.T(canonEx("n%d", i), canonEx("noise"), rdf.IntLit(int64(i))))
	}
	forceOrder(ds.Dict())
	q := MustParse(`PREFIX ex: <http://ex.org/>
SELECT ?o ?v ?w ?s ?p WHERE { ?s ?p ?o . ?s ex:q ?v . ?s ex:r ?w }`)
	ranked, fallback := obsCanonicalRanked.Value(), obsCanonicalFallback.Value()
	res, err := Eval(ds, q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 3000 {
		t.Fatalf("rows = %d, want 3000", res.Len())
	}
	if obsCanonicalRanked.Value() != ranked+1 || obsCanonicalFallback.Value() != fallback {
		t.Fatal("a covered wide result compared terms")
	}
	checkEquivalence(t, ds, q, -1)
}

func canonEx(format string, args ...any) rdf.Term {
	return rdf.IRI("http://ex.org/" + fmt.Sprintf(format, args...))
}
