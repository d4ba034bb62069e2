package bdi

import (
	"fmt"

	"mdm/internal/rdf"
)

// Violation describes one integrity-constraint breach found by Validate.
type Violation struct {
	// Rule is a short machine-readable rule name.
	Rule string
	// Detail is a human-readable explanation.
	Detail string
}

func (v Violation) String() string { return v.Rule + ": " + v.Detail }

// Validate checks the ontology against the BDI metamodel's integrity
// constraints and returns all violations (empty means consistent):
//
//   - feature-single-owner: every feature is attached to at most one
//     concept (paper §2.1);
//   - dangling-feature-edge: hasFeature edges reference declared
//     concepts and features;
//   - wrapper-owned: every wrapper belongs to exactly one data source;
//   - attribute-scope: every attribute node is referenced only by
//     wrappers of its own data source (paper §2.2);
//   - mapping-subgraph: every mapping named graph is a subgraph of the
//     global graph (ignoring sameAs links);
//   - mapping-sameas: sameAs links connect wrapper attributes to
//     features covered by the wrapper's subgraph;
//   - concept-identifier: every concept used by some mapping has an
//     identifier feature (needed for joins, paper §2.3).
func (o *Ontology) Validate() []Violation {
	o.mu.RLock()
	defer o.mu.RUnlock()
	var out []Violation
	global := o.Global()
	src := o.Source()

	// feature-single-owner + dangling-feature-edge.
	for _, t := range global.Match(rdf.Any, PropHasFeature, rdf.Any) {
		if !global.Has(rdf.T(t.S, rdf.IRI(rdf.RDFType), ClassConcept)) {
			out = append(out, Violation{"dangling-feature-edge",
				fmt.Sprintf("%s has features but is not a declared concept", t.S)})
		}
		if !global.Has(rdf.T(t.O, rdf.IRI(rdf.RDFType), ClassFeature)) {
			out = append(out, Violation{"dangling-feature-edge",
				fmt.Sprintf("%s is attached to %s but is not a declared feature", t.O, t.S)})
		}
	}
	for _, f := range global.Subjects(rdf.IRI(rdf.RDFType), ClassFeature) {
		if n := global.Count(rdf.Any, PropHasFeature, f); n > 1 {
			out = append(out, Violation{"feature-single-owner",
				fmt.Sprintf("feature %s owned by %d concepts", f, n)})
		}
	}

	// wrapper-owned.
	for _, w := range src.Subjects(rdf.IRI(rdf.RDFType), ClassWrapper) {
		if n := src.Count(rdf.Any, PropHasWrapper, w); n != 1 {
			out = append(out, Violation{"wrapper-owned",
				fmt.Sprintf("wrapper %s owned by %d sources", w, n)})
		}
	}

	// attribute-scope: attribute IRIs embed their source; check every
	// wrapper referencing them belongs to that source.
	for _, t := range src.Match(rdf.Any, PropHasAttribute, rdf.Any) {
		if src.Count(rdf.Any, PropHasWrapper, t.S) != 1 {
			continue // already reported by wrapper-owned
		}
		wOwner, _ := src.MatchFirst(rdf.Any, PropHasWrapper, t.S)
		attrNS := t.O.Value
		srcIRI := wOwner.S.Value
		// attribute/<src>/<name> must match dataSource/<src>.
		wantPrefix := NSSource + "attribute/" + srcIRI[len(NSSource+"dataSource/"):] + "/"
		if len(attrNS) < len(wantPrefix) || attrNS[:len(wantPrefix)] != wantPrefix {
			out = append(out, Violation{"attribute-scope",
				fmt.Sprintf("attribute %s referenced by wrapper of %s", t.O, wOwner.S)})
		}
	}

	// Mapping constraints.
	for _, wname := range o.MappedWrappers() {
		g, _ := o.ds.Lookup(WrapperIRI(wname))
		if g == nil {
			continue
		}
		wIRI := WrapperIRI(wname)
		if !src.Has(rdf.T(wIRI, rdf.IRI(rdf.RDFType), ClassWrapper)) {
			out = append(out, Violation{"mapping-subgraph",
				fmt.Sprintf("mapping graph exists for undeclared wrapper %s", wname)})
			continue
		}
		attrs := map[rdf.Term]bool{}
		for _, a := range src.Objects(wIRI, PropHasAttribute) {
			attrs[a] = true
		}
		features := map[rdf.Term]bool{}
		for _, t := range g.Triples() {
			if t.P.Value == rdf.OWLSameAs {
				continue
			}
			if !global.Has(t) {
				out = append(out, Violation{"mapping-subgraph",
					fmt.Sprintf("wrapper %s maps triple %s absent from global graph", wname, t)})
			}
			if t.P == PropHasFeature {
				features[t.O] = true
			}
		}
		for _, t := range g.Match(rdf.Any, rdf.IRI(rdf.OWLSameAs), rdf.Any) {
			if !attrs[t.S] {
				out = append(out, Violation{"mapping-sameas",
					fmt.Sprintf("wrapper %s sameAs from foreign attribute %s", wname, t.S)})
			}
			if !features[t.O] {
				out = append(out, Violation{"mapping-sameas",
					fmt.Sprintf("wrapper %s sameAs to uncovered feature %s", wname, t.O)})
			}
		}
		// concept-identifier.
		for _, t := range g.Match(rdf.Any, rdf.IRI(rdf.RDFType), ClassConcept) {
			concept := t.S
			hasID := false
			for _, f := range global.Objects(concept, PropHasFeature) {
				if global.IsSubClassOf(f, Identifier) {
					hasID = true
					break
				}
			}
			if !hasID {
				out = append(out, Violation{"concept-identifier",
					fmt.Sprintf("concept %s used by wrapper %s has no identifier feature", concept, wname)})
			}
		}
	}
	return out
}
