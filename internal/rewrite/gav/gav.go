// Package gav implements a global-as-view (GAV) baseline for comparison
// with MDM's LAV rewriting (experiment s4 of cmd/mdm-bench).
//
// Under GAV, every element of the global schema is characterized by a
// fixed query over the source schemata (paper §1, citing [8]): each
// feature is bound to one concrete (wrapper, attribute) pair and each
// relation to one witness wrapper, frozen at mapping-definition time.
// Query answering is plain unfolding — tractable, but brittle: when a
// source evolves (its wrapper is superseded or an attribute disappears),
// every binding referencing it silently dangles and previously working
// queries crash or return partial results until a steward manually
// redefines them. The paper's LAV design avoids exactly this failure
// mode, and package rewrite's tests plus BenchmarkGAVvsLAV quantify it.
package gav

import (
	"fmt"
	"sort"

	"mdm/internal/bdi"
	"mdm/internal/rdf"
	"mdm/internal/relalg"
	"mdm/internal/rewrite"
	"mdm/internal/wrapper"
)

// Binding fixes the provider of one global feature.
type Binding struct {
	Wrapper   string
	Attribute string
}

// Mappings is a GAV mapping set: global features and relations defined
// as fixed references into source schemata, plus per-wrapper join-key
// exposure (a real GAV view definition hard-codes its join attributes).
type Mappings struct {
	features  map[rdf.Term]Binding
	relations map[rdf.Triple]string
	keys      map[string]map[rdf.Term]string // wrapper -> id feature -> attr
}

// NewMappings returns an empty GAV mapping set.
func NewMappings() *Mappings {
	return &Mappings{
		features:  map[rdf.Term]Binding{},
		relations: map[rdf.Triple]string{},
		keys:      map[string]map[rdf.Term]string{},
	}
}

// BindFeature fixes feature := wrapper.attribute.
func (m *Mappings) BindFeature(feature rdf.Term, wrapperName, attr string) {
	m.features[feature] = Binding{Wrapper: wrapperName, Attribute: attr}
}

// BindRelation fixes the wrapper that materializes a concept relation.
func (m *Mappings) BindRelation(rel rdf.Triple, wrapperName string) {
	m.relations[rel] = wrapperName
}

// BindKey records that wrapperName exposes the identifier feature under
// the given attribute; frozen join keys of the view definitions.
func (m *Mappings) BindKey(wrapperName string, feature rdf.Term, attr string) {
	if m.keys[wrapperName] == nil {
		m.keys[wrapperName] = map[rdf.Term]string{}
	}
	m.keys[wrapperName][feature] = attr
}

// BindingsReferencing returns the number of feature and relation
// bindings that reference the given wrapper — the manual-rework cost a
// steward pays under GAV when that wrapper is superseded.
func (m *Mappings) BindingsReferencing(wrapperName string) int {
	n := 0
	for _, b := range m.features {
		if b.Wrapper == wrapperName {
			n++
		}
	}
	for _, w := range m.relations {
		if w == wrapperName {
			n++
		}
	}
	n += len(m.keys[wrapperName])
	return n
}

// FromLAV derives a GAV mapping set from an ontology's current LAV
// mappings by freezing, for every feature, the alphabetically first
// wrapper that provides it. This mirrors how a GAV system would have
// been configured against the v1 sources.
//
// Instead of probing the mapping graphs once per (concept, feature,
// wrapper) combination, each wrapper's stored mapping is scanned exactly
// once and the concept superclass closures are computed once per
// concept.
func FromLAV(ont *bdi.Ontology) *Mappings {
	m := NewMappings()
	wrappers := ont.MappedWrappers() // sorted: first provider wins below
	concepts := ont.Concepts()
	relations := ont.ConceptRelations()
	global := ont.Global()
	closures := make(map[rdf.Term]map[rdf.Term]bool, len(concepts))
	featuresOf := make(map[rdf.Term][]rdf.Term, len(concepts))
	for _, c := range concepts {
		closures[c] = global.SuperClassClosure(c)
		featuresOf[c] = ont.FeaturesOf(c)
	}
	for _, w := range wrappers {
		mg, ok := ont.Dataset().Lookup(bdi.WrapperIRI(w))
		if !ok {
			continue
		}
		// One scan over the wrapper's mapping graph: the covered global
		// subgraph plus the raw sameAs edges. The edges are read directly
		// (not via Mapping.SameAs, which is keyed by attribute label and
		// would collapse an attribute mapped to several features).
		subgraph := make(map[rdf.Triple]bool, mg.Len())
		type sameAsEdge struct{ attr, feat rdf.Term }
		var sameAs []sameAsEdge
		mg.EachMatch(rdf.Any, rdf.Any, rdf.Any, func(t rdf.Triple) bool {
			if t.P.Value == rdf.OWLSameAs {
				sameAs = append(sameAs, sameAsEdge{t.S, t.O})
			} else {
				subgraph[t] = true
			}
			return true
		})
		// Feature -> attribute name exposed by this wrapper (the smallest
		// attribute IRI wins when several map to the same feature,
		// matching the sorted-subject order of Ontology.AttributeForFeature).
		attrOf := map[rdf.Term]string{}
		bestAttr := map[rdf.Term]rdf.Term{}
		for _, e := range sameAs {
			label, ok := ont.AttributeName(e.attr)
			if !ok {
				continue
			}
			if cur, seen := bestAttr[e.feat]; !seen || rdf.Compare(e.attr, cur) < 0 {
				bestAttr[e.feat] = e.attr
				attrOf[e.feat] = label
			}
		}
		for f, attr := range attrOf {
			// Freeze identifier columns as the wrapper view's join keys.
			if ont.IsIdentifier(f) {
				m.BindKey(w, f, attr)
			}
		}
		for _, c := range concepts {
			for _, f := range featuresOf[c] {
				if _, bound := m.features[f]; bound {
					continue
				}
				attr, has := attrOf[f]
				if !has {
					continue
				}
				// Covered directly or via a superclass in the taxonomy.
				for super := range closures[c] {
					if subgraph[rdf.T(super, bdi.PropHasFeature, f)] {
						m.BindFeature(f, w, attr)
						break
					}
				}
			}
		}
		for _, rel := range relations {
			if _, bound := m.relations[rel]; !bound && subgraph[rel] {
				m.BindRelation(rel, w)
			}
		}
	}
	return m
}

// Rewriter unfolds walks over GAV mappings.
type Rewriter struct {
	ont *bdi.Ontology
	reg *wrapper.Registry
	m   *Mappings
}

// New returns a GAV rewriter.
func New(ont *bdi.Ontology, reg *wrapper.Registry, m *Mappings) *Rewriter {
	return &Rewriter{ont: ont, reg: reg, m: m}
}

// col names the plan column for a feature (CURIE when possible).
func (r *Rewriter) col(f rdf.Term) string {
	return r.ont.Dataset().Prefixes().CompactTerm(f)
}

// Rewrite unfolds a walk into a single conjunctive query over the bound
// wrappers. Unlike LAV rewriting it can never produce a union: there is
// exactly one definition per global element.
func (r *Rewriter) Rewrite(w *rewrite.Walk) (relalg.Plan, error) {
	if err := w.Validate(r.ont); err != nil {
		return nil, err
	}
	// Needed features: projection plus each concept's identifier.
	type featProj struct {
		feature rdf.Term
		out     string
	}
	var proj []featProj
	needed := map[rdf.Term]bool{}
	for _, c := range w.Concepts {
		for _, f := range w.Features[c] {
			proj = append(proj, featProj{feature: f, out: f.LocalName()})
			needed[f] = true
		}
		if id, ok := r.ont.IdentifierOf(c); ok {
			needed[id] = true
		} else {
			return nil, fmt.Errorf("gav: concept %s has no identifier", c)
		}
	}
	for i := range proj {
		proj[i].out = aliasOf(w, proj[i].feature, proj[i].out)
	}

	// Group needed features by bound wrapper (unfolding).
	byWrapper := map[string][][2]string{} // wrapper -> {attr, featureIRI}
	for f := range needed {
		b, ok := r.m.features[f]
		if !ok {
			return nil, fmt.Errorf("gav: feature %s has no GAV binding", f)
		}
		byWrapper[b.Wrapper] = append(byWrapper[b.Wrapper], [2]string{b.Attribute, r.col(f)})
	}
	for _, rel := range w.Relations {
		wname, ok := r.m.relations[rel]
		if !ok {
			return nil, fmt.Errorf("gav: relation %s has no GAV binding", rel)
		}
		// The witness wrapper must contribute both endpoint ids; its
		// attributes for them come from its frozen feature bindings —
		// GAV has no per-wrapper mapping to consult, so require the ids
		// to be bound to this wrapper or joinable transitively. We add
		// the wrapper with no extra columns; join columns come from the
		// id features bound to it (if any).
		if _, present := byWrapper[wname]; !present {
			byWrapper[wname] = nil
		}
	}

	// Build per-wrapper plans. Missing wrappers or attributes are the
	// GAV failure mode under evolution.
	names := make([]string, 0, len(byWrapper))
	for n := range byWrapper {
		names = append(names, n)
	}
	sort.Strings(names)
	isID := map[string]bool{}
	plans := map[string]relalg.Plan{}
	for _, wname := range names {
		wr, ok := r.reg.Get(wname)
		if !ok {
			return nil, fmt.Errorf("gav: bound wrapper %q no longer exists (source evolved; mappings must be redefined manually)", wname)
		}
		have := map[string]bool{}
		for _, col := range wr.Columns() {
			have[col] = true
		}
		// Surface the wrapper view's frozen join keys so unfolded views
		// can be connected.
		pairs := append([][2]string(nil), byWrapper[wname]...)
		for f, attr := range r.m.keys[wname] {
			dup := false
			for _, p := range pairs {
				if p[1] == r.col(f) {
					dup = true
				}
			}
			if !dup {
				pairs = append(pairs, [2]string{attr, r.col(f)})
			}
		}
		sort.Slice(pairs, func(i, j int) bool { return pairs[i][1] < pairs[j][1] })
		var mapping [][2]string
		var keep []string
		for _, p := range pairs {
			if !have[p[0]] {
				return nil, fmt.Errorf("gav: wrapper %s no longer has attribute %q (schema evolved; query crashes as §1 of the paper warns)", wname, p[0])
			}
			mapping = append(mapping, [2]string{p[0], p[1]})
			keep = append(keep, p[1])
		}
		if len(keep) == 0 {
			return nil, fmt.Errorf("gav: wrapper %s contributes no columns", wname)
		}
		for f := range r.m.keys[wname] {
			isID[r.col(f)] = true
		}
		for fterm, b := range r.m.features {
			if b.Wrapper == wname && r.ont.IsIdentifier(fterm) {
				isID[r.col(fterm)] = true
			}
		}
		plans[wname] = relalg.NewProject(relalg.NewRename(relalg.NewScan(wr), mapping), keep...)
	}

	// Greedy join on shared identifier columns, as in LAV assembly.
	plan := plans[names[0]]
	remaining := names[1:]
	for len(remaining) > 0 {
		progress := false
		for i, wname := range remaining {
			on := sharedID(plan.Columns(), plans[wname].Columns(), isID)
			if len(on) == 0 {
				continue
			}
			plan = relalg.NewJoin(plan, plans[wname], on)
			remaining = append(remaining[:i], remaining[i+1:]...)
			progress = true
			break
		}
		if !progress {
			return nil, fmt.Errorf("gav: unfolded wrappers %v not joinable", names)
		}
	}

	var featCols []string
	var outMap [][2]string
	for _, p := range proj {
		featCols = append(featCols, r.col(p.feature))
		outMap = append(outMap, [2]string{r.col(p.feature), p.out})
	}
	return relalg.Optimize(relalg.NewRename(relalg.NewProject(plan, featCols...), outMap)), nil
}

func sharedID(l, rc []string, isID map[string]bool) [][2]string {
	rset := map[string]bool{}
	for _, c := range rc {
		rset[c] = true
	}
	var on [][2]string
	for _, c := range l {
		if isID[c] && rset[c] {
			on = append(on, [2]string{c, c})
		}
	}
	return on
}

func aliasOf(w *rewrite.Walk, f rdf.Term, def string) string {
	if a, ok := w.Aliases[f]; ok && a != "" {
		return a
	}
	return def
}
