package usecase

import (
	"fmt"

	"mdm/internal/bdi"
	"mdm/internal/rdf"
	"mdm/internal/relalg"
	"mdm/internal/rewrite"
	"mdm/internal/schema"
	"mdm/internal/wrapper"
)

// SyntheticVersions extends the football fixture with n-1 extra schema
// versions of the players API (each a wrapper + identical mapping),
// modelling a source that has released n versions. Used by the S1 sweep.
func SyntheticVersions(n int) (*bdi.Ontology, *wrapper.Registry, *rewrite.Walk) {
	f := MustNew()
	for v := 2; v <= n; v++ {
		name := fmt.Sprintf("w1_v%d", v)
		w := wrapper.NewMem(name, SrcPlayers, PlayersV1Docs(), nil)
		mustErr(release(f.Ont, f.Reg, w))
		m, ok := f.Ont.MappingOf("w1")
		if !ok {
			panic("usecase: w1 mapping missing")
		}
		m.Wrapper = name
		if err := f.Ont.DefineMapping(m); err != nil {
			panic(err)
		}
	}
	return f.Ont, f.Reg, Fig8Walk()
}

// SyntheticChain builds a fresh ontology with a chain of n concepts
// C0 -> C1 -> ... -> C(n-1), one wrapper per edge, and a walk spanning
// the whole chain. Used by the S2 sweep.
func SyntheticChain(n int) (*bdi.Ontology, *wrapper.Registry, *rewrite.Walk) {
	const ns = "http://bench.local/"
	ont := bdi.New()
	reg := wrapper.NewRegistry()
	mustErr(ont.AddDataSource("chain", "chain source"))
	walk := rewrite.NewWalk()
	rt := rdf.IRI(rdf.RDFType)
	concept := func(i int) rdf.Term { return rdf.IRI(fmt.Sprintf("%sChain%d", ns, i)) }
	ident := func(i int) rdf.Term { return rdf.IRI(fmt.Sprintf("%schain%dId", ns, i)) }
	for i := 0; i < n; i++ {
		mustErr(ont.AddConcept(concept(i), ""))
		mustErr(ont.AddFeature(ident(i), fmt.Sprintf("a%d", i)))
		mustErr(ont.AttachFeature(concept(i), ident(i)))
		mustErr(ont.MarkIdentifier(ident(i)))
		walk.Select(concept(i), ident(i))
	}
	if n == 1 {
		w := wrapper.NewMem("chainw0", "chain", []schema.Doc{{"a0": relalg.Int(1)}}, nil)
		mustErr(release(ont, reg, w))
		mustErr(ont.DefineMapping(bdi.Mapping{
			Wrapper: "chainw0",
			Subgraph: []rdf.Triple{
				rdf.T(concept(0), rt, bdi.ClassConcept),
				rdf.T(concept(0), bdi.PropHasFeature, ident(0)),
			},
			SameAs: map[string]rdf.Term{"a0": ident(0)},
		}))
		return ont, reg, walk
	}
	for i := 1; i < n; i++ {
		prop := rdf.IRI(fmt.Sprintf("%snext%d", ns, i-1))
		mustErr(ont.RelateConcepts(concept(i-1), prop, concept(i)))
		walk.Relate(concept(i-1), prop, concept(i))
		wname := fmt.Sprintf("chainw%d", i)
		docs := []schema.Doc{{
			fmt.Sprintf("a%d", i-1): relalg.Int(1),
			fmt.Sprintf("a%d", i):   relalg.Int(1),
		}}
		w := wrapper.NewMem(wname, "chain", docs, nil)
		mustErr(release(ont, reg, w))
		mustErr(ont.DefineMapping(bdi.Mapping{
			Wrapper: wname,
			Subgraph: []rdf.Triple{
				rdf.T(concept(i-1), rt, bdi.ClassConcept),
				rdf.T(concept(i-1), bdi.PropHasFeature, ident(i-1)),
				rdf.T(concept(i-1), prop, concept(i)),
				rdf.T(concept(i), rt, bdi.ClassConcept),
				rdf.T(concept(i), bdi.PropHasFeature, ident(i)),
			},
			SameAs: map[string]rdf.Term{
				fmt.Sprintf("a%d", i-1): ident(i - 1),
				fmt.Sprintf("a%d", i):   ident(i),
			},
		}))
	}
	return ont, reg, walk
}

// SyntheticPlayers generates n player rows in the w1 signature; team ids
// range over n/10+1 teams. Used by the S3 execution sweep.
func SyntheticPlayers(n int) []schema.Doc {
	docs := make([]schema.Doc, n)
	for i := range docs {
		docs[i] = schema.Doc{
			"id":     relalg.Int(int64(i)),
			"pName":  relalg.String(fmt.Sprintf("Player %d", i)),
			"height": relalg.Float(160 + float64(i%40)),
			"weight": relalg.Int(int64(140 + i%80)),
			"score":  relalg.Int(int64(50 + i%50)),
			"foot":   relalg.String([]string{"left", "right"}[i%2]),
			"teamId": relalg.Int(int64(i % (n/10 + 1))),
		}
	}
	return docs
}

// SyntheticTeams generates n team rows in the w2 signature.
func SyntheticTeams(n int) []schema.Doc {
	if n <= 0 {
		n = 1
	}
	docs := make([]schema.Doc, n)
	for i := range docs {
		docs[i] = schema.Doc{
			"id":        relalg.Int(int64(i)),
			"name":      relalg.String(fmt.Sprintf("Team %d", i)),
			"shortName": relalg.String(fmt.Sprintf("T%d", i)),
		}
	}
	return docs
}

func mustErr(err error) {
	if err != nil {
		panic(err)
	}
}
