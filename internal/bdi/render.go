package bdi

import (
	"fmt"
	"sort"
	"strings"

	"mdm/internal/rdf"
)

// RenderGlobal renders the global graph in the style of Figure 5 of the
// paper: each concept with its features (identifier features marked),
// followed by concept relations and taxonomy edges.
func (o *Ontology) RenderGlobal() string {
	o.mu.RLock()
	defer o.mu.RUnlock()
	pm := o.ds.Prefixes()
	g := o.Global()
	var sb strings.Builder
	sb.WriteString("GLOBAL GRAPH (Figure 5 style)\n")
	for _, c := range g.Subjects(rdf.IRI(rdf.RDFType), ClassConcept) {
		fmt.Fprintf(&sb, "concept %s\n", pm.CompactTerm(c))
		feats := g.Objects(c, PropHasFeature)
		for _, f := range feats {
			marker := ""
			if g.IsSubClassOf(f, Identifier) {
				marker = "  [identifier]"
			}
			fmt.Fprintf(&sb, "  feature %s%s\n", pm.CompactTerm(f), marker)
		}
	}
	rels := o.conceptRelationsLocked()
	if len(rels) > 0 {
		sb.WriteString("relations\n")
		for _, t := range rels {
			fmt.Fprintf(&sb, "  %s --%s--> %s\n",
				pm.CompactTerm(t.S), pm.CompactTerm(t.P), pm.CompactTerm(t.O))
		}
	}
	var taxo []rdf.Triple
	g.EachMatch(rdf.Any, rdf.IRI(rdf.RDFSSubClassOf), rdf.Any, func(t rdf.Triple) bool {
		if t.O != Identifier {
			taxo = append(taxo, t)
		}
		return true
	})
	rdf.SortTriples(taxo)
	if len(taxo) > 0 {
		sb.WriteString("taxonomy\n")
		for _, t := range taxo {
			fmt.Fprintf(&sb, "  %s subClassOf %s\n", pm.CompactTerm(t.S), pm.CompactTerm(t.O))
		}
	}
	return sb.String()
}

// RenderSource renders the source graph in the style of Figure 6: data
// sources, their wrappers, and each wrapper's attributes.
func (o *Ontology) RenderSource() string {
	o.mu.RLock()
	defer o.mu.RUnlock()
	g := o.Source()
	var sb strings.Builder
	sb.WriteString("SOURCE GRAPH (Figure 6 style)\n")
	for _, s := range g.Subjects(rdf.IRI(rdf.RDFType), ClassDataSource) {
		label := s.LocalName()
		if l, ok := g.Object(s, rdf.IRI(rdf.RDFSLabel)); ok {
			label = l.Value
		}
		fmt.Fprintf(&sb, "dataSource %s\n", label)
		for _, w := range g.Objects(s, PropHasWrapper) {
			wl := w.LocalName()
			if l, ok := g.Object(w, rdf.IRI(rdf.RDFSLabel)); ok {
				wl = l.Value
			}
			var attrs []string
			for _, a := range g.Objects(w, PropHasAttribute) {
				if l, ok := g.Object(a, rdf.IRI(rdf.RDFSLabel)); ok {
					attrs = append(attrs, l.Value)
				}
			}
			sort.Strings(attrs)
			fmt.Fprintf(&sb, "  wrapper %s(%s)\n", wl, strings.Join(attrs, ", "))
		}
	}
	return sb.String()
}

// RenderMappings renders all LAV mappings in the style of Figure 7: per
// wrapper, the covered global subgraph and the attribute→feature links.
func (o *Ontology) RenderMappings() string {
	var sb strings.Builder
	sb.WriteString("LAV MAPPINGS (Figure 7 style)\n")
	pm := o.ds.Prefixes()
	for _, wname := range o.MappedWrappers() {
		m, ok := o.MappingOf(wname)
		if !ok {
			continue
		}
		fmt.Fprintf(&sb, "wrapper %s\n", wname)
		sb.WriteString("  covers:\n")
		for _, t := range m.Subgraph {
			fmt.Fprintf(&sb, "    %s %s %s\n",
				pm.CompactTerm(t.S), pm.CompactTerm(t.P), pm.CompactTerm(t.O))
		}
		var attrs []string
		for a := range m.SameAs {
			attrs = append(attrs, a)
		}
		sort.Strings(attrs)
		sb.WriteString("  sameAs:\n")
		for _, a := range attrs {
			fmt.Fprintf(&sb, "    %s owl:sameAs %s\n", a, pm.CompactTerm(m.SameAs[a]))
		}
	}
	return sb.String()
}

// Stats summarizes ontology sizes (used by figure benches and the REST
// API's /stats endpoint).
type Stats struct {
	Concepts, Features, Relations    int
	Sources, Wrappers, Attributes    int
	Mappings, MappingTriples, SameAs int
}

// Stats computes the ontology's statistics.
func (o *Ontology) Stats() Stats {
	o.mu.RLock()
	typ := rdf.IRI(rdf.RDFType)
	st := Stats{
		Concepts:  o.Global().Count(rdf.Any, typ, ClassConcept),
		Features:  o.Global().Count(rdf.Any, typ, ClassFeature),
		Relations: len(o.conceptRelationsLocked()),
		Sources:   o.Source().Count(rdf.Any, typ, ClassDataSource),
		Wrappers:  o.Source().Count(rdf.Any, typ, ClassWrapper),
	}
	st.Attributes = o.Source().Count(rdf.Any, typ, ClassAttribute)
	o.mu.RUnlock()

	for _, w := range o.MappedWrappers() {
		m, ok := o.MappingOf(w)
		if !ok {
			continue
		}
		st.Mappings++
		st.MappingTriples += len(m.Subgraph)
		st.SameAs += len(m.SameAs)
	}
	return st
}
