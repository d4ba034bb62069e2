// Package bdi implements the Big Data Integration (BDI) ontology of the
// paper: the vocabulary-based, integration-oriented metamodel that MDM
// instantiates (paper §2, citing Nadal et al., "An Integration-Oriented
// Ontology to Govern Evolution in Big Data Ecosystems").
//
// The ontology is represented as RDF inside an rdf.Dataset:
//
//   - the GLOBAL GRAPH (named graph bdi:GlobalGraph) holds the domain:
//     concepts (G:Concept), features (G:Feature), concept relations and
//     taxonomies (rdfs:subClassOf);
//   - the SOURCE GRAPH (named graph bdi:SourceGraph) holds data sources
//     (S:DataSource), wrappers (S:Wrapper) and attributes (S:Attribute);
//   - each LAV MAPPING is a named graph whose name is the wrapper IRI,
//     containing (a) the subgraph of the global graph the wrapper
//     populates and (b) owl:sameAs links from the wrapper's attributes
//     to global features;
//   - the RELEASE GRAPH (named graph bdi:ReleaseGraph) is the release
//     log: per wrapper, the record of its release (see release.go).
//
// Features that are rdfs:subClassOf sc:identifier (schema.org) identify
// their concept; inter-concept joins during query rewriting are only
// allowed through them (paper §2.3).
package bdi

import (
	"errors"
	"fmt"
	"net/url"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mdm/internal/rdf"
	"mdm/internal/schema"
)

// Namespace IRIs of the BDI metamodel.
const (
	NSGlobal = "http://www.essi.upc.edu/~snadal/BDIOntology/Global/"
	NSSource = "http://www.essi.upc.edu/~snadal/BDIOntology/Source/"
	NSSchema = "http://schema.org/"
)

// Metamodel IRIs.
var (
	// ClassConcept types global-graph concepts (G:Concept).
	ClassConcept = rdf.IRI(NSGlobal + "Concept")
	// ClassFeature types global-graph features (G:Feature).
	ClassFeature = rdf.IRI(NSGlobal + "Feature")
	// PropHasFeature links a concept to a feature (G:hasFeature).
	PropHasFeature = rdf.IRI(NSGlobal + "hasFeature")
	// ClassDataSource types source-graph data sources (S:DataSource).
	ClassDataSource = rdf.IRI(NSSource + "DataSource")
	// ClassWrapper types source-graph wrappers (S:Wrapper).
	ClassWrapper = rdf.IRI(NSSource + "Wrapper")
	// ClassAttribute types source-graph attributes (S:Attribute).
	ClassAttribute = rdf.IRI(NSSource + "Attribute")
	// PropHasWrapper links a data source to its wrappers (S:hasWrapper).
	PropHasWrapper = rdf.IRI(NSSource + "hasWrapper")
	// PropHasAttribute links a wrapper to its attributes (S:hasAttribute).
	PropHasAttribute = rdf.IRI(NSSource + "hasAttribute")
	// Identifier is sc:identifier; features subclassing it are concept
	// identifiers, the only legal inter-concept join points.
	Identifier = rdf.IRI(NSSchema + "identifier")
	// GlobalGraphName names the global graph inside the dataset.
	GlobalGraphName = rdf.IRI(NSGlobal + "graph")
	// SourceGraphName names the source graph inside the dataset.
	SourceGraphName = rdf.IRI(NSSource + "graph")
)

// Sentinel errors for integrity-constraint violations.
var (
	// ErrFeatureOwned is returned when attaching a feature to a second
	// concept (paper §2.1: a feature belongs to exactly one concept).
	ErrFeatureOwned = errors.New("bdi: feature already belongs to another concept")
	// ErrUnknownConcept is returned when referencing an undeclared concept.
	ErrUnknownConcept = errors.New("bdi: unknown concept")
	// ErrUnknownFeature is returned when referencing an undeclared feature.
	ErrUnknownFeature = errors.New("bdi: unknown feature")
	// ErrUnknownSource is returned when referencing an undeclared source.
	ErrUnknownSource = errors.New("bdi: unknown data source")
	// ErrUnknownWrapper is returned when referencing an undeclared wrapper.
	ErrUnknownWrapper = errors.New("bdi: unknown wrapper")
	// ErrWrapperReleased is returned when releasing a wrapper name the
	// release graph already records.
	ErrWrapperReleased = errors.New("bdi: wrapper already released")
	// ErrNotInGlobal is returned when a mapping references triples that
	// are not a subgraph of the global graph.
	ErrNotInGlobal = errors.New("bdi: mapping triple not present in global graph")
	// ErrAttrNotInWrapper is returned when a sameAs link references an
	// attribute the wrapper does not have.
	ErrAttrNotInWrapper = errors.New("bdi: attribute does not belong to wrapper")
)

// Ontology is a thread-safe BDI ontology over an RDF dataset: the one
// it was created over, for as long as it lives. o.mu orders the
// ontology's own mutators and readers; storage maintenance does not
// take it.
type Ontology struct {
	mu sync.RWMutex
	ds *rdf.Dataset // set once, at creation
	// journal is the only writer of the dataset (see Journal).
	journal Journal
}

// Journal is the write path of an ontology: Commit checks ops as one
// all-or-nothing batch and then applies them to the dataset the ontology
// reads. An in-memory ontology's journal is its dataset
// (rdf.Dataset.Commit); a persistent one's logs the batch first
// (tdb.Store.Commit). A mutator validates under the ontology's write lock
// and commits its whole write set with one call before it returns, so
// what a caller was told succeeded is on the log, and a crash never
// leaves half a mapping graph. Commit must not retain ops: the buffer is
// reused by the next mutation.
type Journal interface {
	Commit(ops []rdf.Op) error
}

// SetJournal routes every later mutation through j. Call it before the
// ontology is shared.
func (o *Ontology) SetJournal(j Journal) { o.journal = j }

// writes is one mutator's write set, collected and committed together.
// The caller holds o.mu.
type writes struct {
	o   *Ontology
	ops *[]rdf.Op // nil until the first op
}

// spareOps is one write-set buffer kept between mutations, so that a
// mutation allocates no batch of its own: the ops are dead once Commit
// returns. A mutator that finds it taken by a concurrent one allocates.
// A buffer grown past maxSpareOps by a large write set is let go, so the
// spare pins at most ~17 KB.
var spareOps atomic.Pointer[[]rdf.Op]

const maxSpareOps = 64

func (w *writes) push(op rdf.Op) {
	if w.ops == nil {
		if w.ops = spareOps.Swap(nil); w.ops == nil {
			w.ops = new([]rdf.Op)
		}
	}
	*w.ops = append(*w.ops, op)
}

func (w *writes) add(graph rdf.Term, t rdf.Triple) {
	w.push(rdf.Op{Kind: rdf.OpAdd, Quad: rdf.Quad{Triple: t, Graph: graph}})
}

func (w *writes) drop(graph rdf.Term) {
	w.push(rdf.Op{Kind: rdf.OpDrop, Quad: rdf.Quad{Graph: graph}})
}

// commit hands the write set to the journal and keeps the buffer,
// emptied so that it holds no terms, as the spare.
func (w *writes) commit() error {
	if w.ops == nil {
		return nil
	}
	ops := *w.ops
	err := w.o.journal.Commit(ops)
	if cap(ops) <= maxSpareOps {
		clear(ops)
		*w.ops = ops[:0]
		spareOps.Store(w.ops)
	}
	return err
}

// addOne is the write set of the single-triple mutators.
func (o *Ontology) addOne(graph rdf.Term, t rdf.Triple) error {
	w := writes{o: o}
	w.add(graph, t)
	return w.commit()
}

// New creates an empty ontology with the BDI prefixes bound.
func New() *Ontology {
	return FromDataset(rdf.NewDataset())
}

// FromDataset wraps an existing dataset (e.g. loaded from tdb) as an
// ontology whose journal is the dataset itself, binding the BDI prefixes
// if absent.
func FromDataset(ds *rdf.Dataset) *Ontology {
	pm := ds.Prefixes()
	pm.Bind("G", NSGlobal)
	pm.Bind("S", NSSource)
	pm.Bind("sc", NSSchema)
	return &Ontology{ds: ds, journal: ds}
}

// BindPrefix binds a namespace prefix, committed like any mutation. A
// label that would not read back as a prefix name is refused
// (rdf.CheckPrefixLabel).
func (o *Ontology) BindPrefix(prefix, namespace string) error {
	if err := rdf.CheckPrefixLabel(prefix); err != nil {
		return err
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	w := writes{o: o}
	w.push(rdf.Op{Kind: rdf.OpPrefix, Prefix: prefix, NS: namespace})
	return w.commit()
}

// Dataset exposes the underlying dataset (read-mostly; mutate through
// Ontology methods so constraints hold).
func (o *Ontology) Dataset() *rdf.Dataset { return o.ds }

// Global returns the global graph.
func (o *Ontology) Global() *rdf.Graph { return o.ds.Graph(GlobalGraphName) }

// Source returns the source graph.
func (o *Ontology) Source() *rdf.Graph { return o.ds.Graph(SourceGraphName) }

// --- IRI builders ---

// SourceIRI returns the IRI of a data source node.
func SourceIRI(sourceID string) rdf.Term {
	return rdf.IRI(NSSource + "dataSource/" + url.PathEscape(sourceID))
}

// WrapperIRI returns the IRI of a wrapper node.
func WrapperIRI(name string) rdf.Term {
	return rdf.IRI(NSSource + "wrapper/" + url.PathEscape(name))
}

// SourceID inverts SourceIRI.
func SourceID(iri rdf.Term) (string, bool) {
	return unescapeUnder(NSSource+"dataSource/", iri)
}

// WrapperName inverts WrapperIRI.
func WrapperName(iri rdf.Term) (string, bool) {
	return unescapeUnder(NSSource+"wrapper/", iri)
}

func unescapeUnder(prefix string, iri rdf.Term) (string, bool) {
	escaped, ok := strings.CutPrefix(iri.Value, prefix)
	if !ok {
		return "", false
	}
	name, err := url.PathUnescape(escaped)
	return name, err == nil
}

// AttributeIRI returns the IRI of an attribute node. Attributes are
// scoped per data source so they can be shared by that source's wrappers
// but never across sources (paper §2.2).
func AttributeIRI(sourceID, attr string) rdf.Term {
	return rdf.IRI(NSSource + "attribute/" + url.PathEscape(sourceID) + "/" + url.PathEscape(attr))
}

// --- Global graph construction (paper §2.1) ---

// AddConcept declares a concept with an optional human label.
func (o *Ontology) AddConcept(iri rdf.Term, label string) error {
	if !iri.IsIRI() {
		return fmt.Errorf("bdi: concept must be an IRI, got %s", iri)
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	w := writes{o: o}
	w.add(GlobalGraphName, rdf.T(iri, rdf.IRI(rdf.RDFType), ClassConcept))
	if label != "" {
		w.add(GlobalGraphName, rdf.T(iri, rdf.IRI(rdf.RDFSLabel), rdf.Lit(label)))
	}
	return w.commit()
}

// AddFeature declares a feature with an optional label. The feature is
// not yet attached to any concept.
func (o *Ontology) AddFeature(iri rdf.Term, label string) error {
	if !iri.IsIRI() {
		return fmt.Errorf("bdi: feature must be an IRI, got %s", iri)
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	w := writes{o: o}
	w.add(GlobalGraphName, rdf.T(iri, rdf.IRI(rdf.RDFType), ClassFeature))
	if label != "" {
		w.add(GlobalGraphName, rdf.T(iri, rdf.IRI(rdf.RDFSLabel), rdf.Lit(label)))
	}
	return w.commit()
}

// AttachFeature links a feature to a concept, enforcing that a feature
// belongs to exactly one concept.
func (o *Ontology) AttachFeature(concept, feature rdf.Term) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	g := o.Global()
	if !g.Has(rdf.T(concept, rdf.IRI(rdf.RDFType), ClassConcept)) {
		return fmt.Errorf("%w: %s", ErrUnknownConcept, concept)
	}
	if !g.Has(rdf.T(feature, rdf.IRI(rdf.RDFType), ClassFeature)) {
		return fmt.Errorf("%w: %s", ErrUnknownFeature, feature)
	}
	var owner rdf.Term
	g.EachMatch(rdf.Any, PropHasFeature, feature, func(t rdf.Triple) bool {
		if t.S != concept {
			owner = t.S
			return false
		}
		return true
	})
	if !owner.IsZero() {
		return fmt.Errorf("%w: %s owned by %s", ErrFeatureOwned, feature, owner)
	}
	return o.addOne(GlobalGraphName, rdf.T(concept, PropHasFeature, feature))
}

// RelateConcepts adds a user-defined property edge between two concepts.
func (o *Ontology) RelateConcepts(from, prop, to rdf.Term) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	g := o.Global()
	for _, c := range []rdf.Term{from, to} {
		if !g.Has(rdf.T(c, rdf.IRI(rdf.RDFType), ClassConcept)) {
			return fmt.Errorf("%w: %s", ErrUnknownConcept, c)
		}
	}
	return o.addOne(GlobalGraphName, rdf.T(from, prop, to))
}

// AddSubClass records sub rdfs:subClassOf super in the global graph
// (concept taxonomies and identifier features alike).
func (o *Ontology) AddSubClass(sub, super rdf.Term) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.addOne(GlobalGraphName, rdf.T(sub, rdf.IRI(rdf.RDFSSubClassOf), super))
}

// MarkIdentifier declares a feature to be (a subclass of) sc:identifier,
// enabling it as a join point.
func (o *Ontology) MarkIdentifier(feature rdf.Term) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	g := o.Global()
	if !g.Has(rdf.T(feature, rdf.IRI(rdf.RDFType), ClassFeature)) {
		return fmt.Errorf("%w: %s", ErrUnknownFeature, feature)
	}
	return o.addOne(GlobalGraphName, rdf.T(feature, rdf.IRI(rdf.RDFSSubClassOf), Identifier))
}

// --- Global graph accessors ---

// Concepts lists all concepts, sorted.
func (o *Ontology) Concepts() []rdf.Term {
	o.mu.RLock()
	defer o.mu.RUnlock()
	return o.Global().Subjects(rdf.IRI(rdf.RDFType), ClassConcept)
}

// FeaturesOf returns the features attached to a concept.
func (o *Ontology) FeaturesOf(concept rdf.Term) []rdf.Term {
	o.mu.RLock()
	defer o.mu.RUnlock()
	return o.Global().Objects(concept, PropHasFeature)
}

// IsIdentifier reports whether the feature is a (transitive) subclass of
// sc:identifier.
func (o *Ontology) IsIdentifier(feature rdf.Term) bool {
	o.mu.RLock()
	defer o.mu.RUnlock()
	return o.Global().IsSubClassOf(feature, Identifier)
}

// IdentifierOf returns the identifier feature of a concept: the feature
// attached to it — or inherited from a (transitive) superclass in the
// concept taxonomy — that subclasses sc:identifier. The concept's own
// identifier takes precedence over inherited ones. ok is false when
// none exists.
func (o *Ontology) IdentifierOf(concept rdf.Term) (rdf.Term, bool) {
	o.mu.RLock()
	defer o.mu.RUnlock()
	g := o.Global()
	// Own identifier first, then superclasses in closure order.
	for _, f := range g.Objects(concept, PropHasFeature) {
		if g.IsSubClassOf(f, Identifier) {
			return f, true
		}
	}
	for super := range g.SuperClassClosure(concept) {
		if super == concept {
			continue
		}
		for _, f := range g.Objects(super, PropHasFeature) {
			if g.IsSubClassOf(f, Identifier) {
				return f, true
			}
		}
	}
	return rdf.Term{}, false
}

// HasFeatureInherited reports whether the feature is attached to the
// concept or to one of its (transitive) superclasses — taxonomy-aware
// feature lookup (paper §2.1 taxonomies).
func (o *Ontology) HasFeatureInherited(concept, feature rdf.Term) bool {
	o.mu.RLock()
	defer o.mu.RUnlock()
	g := o.Global()
	for super := range g.SuperClassClosure(concept) {
		if g.Has(rdf.T(super, PropHasFeature, feature)) {
			return true
		}
	}
	return false
}

// ConceptRelations returns the user-defined edges between concepts in
// the global graph (excluding metamodel and RDFS properties).
func (o *Ontology) ConceptRelations() []rdf.Triple {
	o.mu.RLock()
	defer o.mu.RUnlock()
	return o.conceptRelationsLocked()
}

func (o *Ontology) conceptRelationsLocked() []rdf.Triple {
	g := o.Global()
	concepts := map[rdf.Term]bool{}
	for _, c := range g.Subjects(rdf.IRI(rdf.RDFType), ClassConcept) {
		concepts[c] = true
	}
	skip := map[string]bool{
		rdf.RDFType:          true,
		rdf.RDFSSubClassOf:   true,
		rdf.RDFSLabel:        true,
		PropHasFeature.Value: true,
	}
	// Stream the graph and sort only the few surviving relation edges,
	// rather than sorting every triple up front.
	var out []rdf.Triple
	g.EachMatch(rdf.Any, rdf.Any, rdf.Any, func(t rdf.Triple) bool {
		if !skip[t.P.Value] && concepts[t.S] && concepts[t.O] {
			out = append(out, t)
		}
		return true
	})
	rdf.SortTriples(out)
	return out
}

// --- Source graph construction (paper §2.2) ---

// AddDataSource declares a data source.
func (o *Ontology) AddDataSource(sourceID, label string) error {
	if sourceID == "" {
		return fmt.Errorf("bdi: empty data source id")
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	w := writes{o: o}
	s := SourceIRI(sourceID)
	w.add(SourceGraphName, rdf.T(s, rdf.IRI(rdf.RDFType), ClassDataSource))
	if label != "" {
		w.add(SourceGraphName, rdf.T(s, rdf.IRI(rdf.RDFSLabel), rdf.Lit(label)))
	}
	return w.commit()
}

// RegisterWrapper releases a wrapper: its node and signature go into the
// source graph and its release record (see Release) into the release
// graph, as one write set — one journal record — so neither exists
// without the other. Attribute nodes are reused across wrappers of the
// same data source when names coincide (paper §2.2: "MDM will try to reuse
// as many attributes as possible from the previous wrappers for that data
// source"), and are never shared across sources.
//
// The sequence number and the superseded wrapper — the source's latest
// release — are fixed under the write lock. The release returned is the
// record read back, as ReleaseOf would return it.
func (o *Ontology) RegisterWrapper(sourceID string, sig schema.Signature, at time.Time) (Release, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	g := o.Source()
	s := SourceIRI(sourceID)
	if !g.Has(rdf.T(s, rdf.IRI(rdf.RDFType), ClassDataSource)) {
		return Release{}, fmt.Errorf("%w: %s", ErrUnknownSource, sourceID)
	}
	w := WrapperIRI(sig.Wrapper)
	seq := 1
	if rg, ok := o.ds.Lookup(ReleaseGraphName); ok {
		if _, released := rg.Object(w, PropSeq); released {
			return Release{}, fmt.Errorf("%w: %s", ErrWrapperReleased, sig.Wrapper)
		}
		seq += rg.Count(rdf.Any, PropSeq, rdf.Any)
	}
	prev, supersedes := o.latestReleaseOf(s)
	ws := writes{o: o}
	ws.add(SourceGraphName, rdf.T(w, rdf.IRI(rdf.RDFType), ClassWrapper))
	ws.add(SourceGraphName, rdf.T(w, rdf.IRI(rdf.RDFSLabel), rdf.Lit(sig.Wrapper)))
	ws.add(SourceGraphName, rdf.T(s, PropHasWrapper, w))
	for _, a := range sig.Attributes {
		attr := AttributeIRI(sourceID, a.Name)
		ws.add(SourceGraphName, rdf.T(attr, rdf.IRI(rdf.RDFType), ClassAttribute))
		ws.add(SourceGraphName, rdf.T(attr, rdf.IRI(rdf.RDFSLabel), rdf.Lit(a.Name)))
		ws.add(SourceGraphName, rdf.T(w, PropHasAttribute, attr))
	}
	ws.add(ReleaseGraphName, rdf.T(w, PropSeq, rdf.IntLit(int64(seq))))
	ws.add(ReleaseGraphName, rdf.T(w, PropReleasedAt, rdf.Lit(at.Format(time.RFC3339Nano))))
	ws.add(ReleaseGraphName, rdf.T(w, PropSignature, rdf.Lit(encodeAttributes(sig.Attributes))))
	if supersedes {
		ws.add(ReleaseGraphName, rdf.T(w, PropSupersedes, prev))
	}
	if err := ws.commit(); err != nil {
		return Release{}, err
	}
	rel, _ := o.releaseOf(w)
	return rel, nil
}

// Sources lists data source IRIs, sorted.
func (o *Ontology) Sources() []rdf.Term {
	o.mu.RLock()
	defer o.mu.RUnlock()
	return o.Source().Subjects(rdf.IRI(rdf.RDFType), ClassDataSource)
}

// AttributeName extracts the attribute's label (its signature name).
func (o *Ontology) AttributeName(attr rdf.Term) (string, bool) {
	o.mu.RLock()
	defer o.mu.RUnlock()
	t, ok := o.Source().Object(attr, rdf.IRI(rdf.RDFSLabel))
	if !ok {
		return "", false
	}
	return t.Value, true
}

// --- LAV mappings (paper §2.3) ---

// Mapping is the LAV mapping of one wrapper: a subgraph of the global
// graph (the named graph) and attribute-to-feature sameAs links.
type Mapping struct {
	// Wrapper is the wrapper name the mapping belongs to.
	Wrapper string
	// Subgraph is the set of global-graph triples the wrapper populates,
	// including concept typing, hasFeature edges and concept relations.
	Subgraph []rdf.Triple
	// SameAs maps wrapper attribute names to the global feature IRIs
	// they populate.
	SameAs map[string]rdf.Term
}

// DefineMapping validates and stores a LAV mapping as a named graph
// (named by the wrapper IRI) plus owl:sameAs triples. Validation:
// every subgraph triple must exist in the global graph; every sameAs
// attribute must belong to the wrapper; every sameAs feature must occur
// in the subgraph.
func (o *Ontology) DefineMapping(m Mapping) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	src := o.Source()
	w := WrapperIRI(m.Wrapper)
	if !src.Has(rdf.T(w, rdf.IRI(rdf.RDFType), ClassWrapper)) {
		return fmt.Errorf("%w: %s", ErrUnknownWrapper, m.Wrapper)
	}
	global := o.Global()
	featInSub := map[rdf.Term]bool{}
	for _, t := range m.Subgraph {
		if !global.Has(t) {
			return fmt.Errorf("%w: %s", ErrNotInGlobal, t)
		}
		if t.P == PropHasFeature {
			featInSub[t.O] = true
		}
	}
	// Attribute membership check.
	attrs := map[string]rdf.Term{}
	for _, a := range src.Objects(w, PropHasAttribute) {
		if label, ok := src.Object(a, rdf.IRI(rdf.RDFSLabel)); ok {
			attrs[label.Value] = a
		}
	}
	for attr, feat := range m.SameAs {
		aIRI, ok := attrs[attr]
		if !ok {
			return fmt.Errorf("%w: %q not in %s", ErrAttrNotInWrapper, attr, m.Wrapper)
		}
		if !featInSub[feat] {
			return fmt.Errorf("bdi: sameAs target %s is not a feature of the mapping subgraph", feat)
		}
		_ = aIRI
	}
	// All valid: (re)write the named graph, as one batch.
	ws := writes{o: o}
	ws.drop(w)
	for _, t := range m.Subgraph {
		ws.add(w, t)
	}
	for attr, feat := range m.SameAs {
		ws.add(w, rdf.T(attrs[attr], rdf.IRI(rdf.OWLSameAs), feat))
	}
	return ws.commit()
}

// MappingOf reconstructs the stored mapping of a wrapper.
func (o *Ontology) MappingOf(wrapperName string) (Mapping, bool) {
	o.mu.RLock()
	defer o.mu.RUnlock()
	w := WrapperIRI(wrapperName)
	g, ok := o.ds.Lookup(w)
	if !ok {
		return Mapping{}, false
	}
	m := Mapping{Wrapper: wrapperName, SameAs: map[string]rdf.Term{}}
	var sameAs []rdf.Triple
	g.EachMatch(rdf.Any, rdf.Any, rdf.Any, func(t rdf.Triple) bool {
		if t.P.Value == rdf.OWLSameAs {
			sameAs = append(sameAs, t)
		} else {
			m.Subgraph = append(m.Subgraph, t)
		}
		return true
	})
	rdf.SortTriples(m.Subgraph)
	// Sorted so that when one attribute maps to several features the
	// surviving SameAs entry is deterministic (matching the pre-iterator
	// sorted-Triples behavior).
	rdf.SortTriples(sameAs)
	for _, t := range sameAs {
		if label, ok := o.Source().Object(t.S, rdf.IRI(rdf.RDFSLabel)); ok {
			m.SameAs[label.Value] = t.O
		}
	}
	return m, true
}

// MappedWrappers returns the names of all wrappers with a defined LAV
// mapping, sorted.
func (o *Ontology) MappedWrappers() []string {
	o.mu.RLock()
	defer o.mu.RUnlock()
	var out []string
	for _, graph := range o.ds.GraphNames() {
		if name, ok := WrapperName(graph); ok {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// WrappersCovering returns the names of wrappers whose mapping subgraph
// contains the given concept or one of its (transitive) subclasses —
// under the concept taxonomies of paper §2.1, tuples of a subclass are
// tuples of the superclass, so a wrapper mapping ex:Goalkeeper also
// contributes to queries over ex:Player.
func (o *Ontology) WrappersCovering(concept rdf.Term) []string {
	o.mu.RLock()
	subs := o.Global().SubClassClosure(concept)
	o.mu.RUnlock()
	var out []string
	for _, wname := range o.MappedWrappers() {
		g, ok := o.ds.Lookup(WrapperIRI(wname))
		if !ok {
			continue
		}
		for sub := range subs {
			if g.Has(rdf.T(sub, rdf.IRI(rdf.RDFType), ClassConcept)) {
				out = append(out, wname)
				break
			}
		}
	}
	return out
}

// WrapperProvidesFeature reports whether the wrapper's mapping covers
// (concept, hasFeature, feature) — directly or via a superclass of the
// concept in the taxonomy — and has a sameAs link for the feature.
func (o *Ontology) WrapperProvidesFeature(wrapperName string, concept, feature rdf.Term) bool {
	o.mu.RLock()
	defer o.mu.RUnlock()
	g, ok := o.ds.Lookup(WrapperIRI(wrapperName))
	if !ok {
		return false
	}
	covered := false
	for super := range o.Global().SuperClassClosure(concept) {
		if g.Has(rdf.T(super, PropHasFeature, feature)) {
			covered = true
			break
		}
	}
	if !covered {
		return false
	}
	return g.Count(rdf.Any, rdf.IRI(rdf.OWLSameAs), feature) > 0
}

// AttributeForFeature returns the wrapper attribute name that populates
// the given feature under the wrapper's mapping.
func (o *Ontology) AttributeForFeature(wrapperName string, feature rdf.Term) (string, bool) {
	o.mu.RLock()
	defer o.mu.RUnlock()
	g, ok := o.ds.Lookup(WrapperIRI(wrapperName))
	if !ok {
		return "", false
	}
	for _, a := range g.Subjects(rdf.IRI(rdf.OWLSameAs), feature) {
		if label, ok := o.Source().Object(a, rdf.IRI(rdf.RDFSLabel)); ok {
			return label.Value, true
		}
	}
	return "", false
}

// WrapperCoversRelation reports whether the wrapper's mapping includes
// the concept-relation triple (from, prop, to).
func (o *Ontology) WrapperCoversRelation(wrapperName string, t rdf.Triple) bool {
	o.mu.RLock()
	defer o.mu.RUnlock()
	g, ok := o.ds.Lookup(WrapperIRI(wrapperName))
	if !ok {
		return false
	}
	return g.Has(t)
}
