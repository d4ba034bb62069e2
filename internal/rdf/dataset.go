package rdf

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Dataset is an RDF dataset: one default graph plus any number of named
// graphs, together with a prefix registry. MDM stores the global graph,
// the source graph and one named graph per LAV mapping in a single
// Dataset. Dataset is safe for concurrent use.
//
// All graphs of a dataset share one dictionary (see Dict), so a TermID
// obtained from any of them identifies the same term in all of them.
// SPARQL evaluation relies on this to join ID rows across GRAPH blocks
// without re-encoding. Graph names are interned in the same dictionary
// when the graph is created.
type Dataset struct {
	mu       sync.RWMutex // guards named
	dict     *Dict
	def      *Graph
	named    map[Term]*Graph
	prefixes *PrefixMap
}

// NewDataset returns an empty dataset with the common prefixes (rdf,
// rdfs, owl, xsd) preregistered.
func NewDataset() *Dataset {
	dict := NewDict()
	return &Dataset{
		dict:     dict,
		def:      NewGraphWith(dict),
		named:    make(map[Term]*Graph),
		prefixes: newPrefixMap(&dict.changes),
	}
}

// Dict returns the dataset-wide term dictionary shared by every graph in
// the dataset.
func (d *Dataset) Dict() *Dict { return d.dict }

// Changes counts the changes made to the dataset so far: every triple
// added to one of its graphs, through either path (Add, BulkAddIDs),
// every named graph created or dropped, and every prefix bound. It is one
// atomic load, and each change is counted after it is visible, so a
// reader that sees the same count before and after deriving something
// from the dataset derived it from an unchanged dataset. A graph loses
// triples only by being dropped whole, which counts. Consumers that keep
// something derived from dataset state (the walk rewriter's result cache)
// revalidate against it.
func (d *Dataset) Changes() uint64 { return d.dict.changes.Load() }

// Default returns the default graph, the same one for the dataset's
// life.
func (d *Dataset) Default() *Graph { return d.def }

// Graph returns the named graph with the given name, creating it if
// absent. A zero name returns the default graph.
func (d *Dataset) Graph(name Term) *Graph {
	if name.IsZero() {
		return d.Default()
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	g, ok := d.named[name]
	if !ok {
		g = NewGraphWith(d.dict)
		d.dict.Intern(name)
		d.named[name] = g
		d.dict.changes.Add(1)
	}
	return g
}

// Lookup returns the named graph if it exists, without creating it.
func (d *Dataset) Lookup(name Term) (*Graph, bool) {
	if name.IsZero() {
		return d.Default(), true
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	g, ok := d.named[name]
	return g, ok
}

// DropGraph removes a named graph entirely, reporting whether it existed.
func (d *Dataset) DropGraph(name Term) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	_, ok := d.named[name]
	if ok {
		delete(d.named, name)
		d.dict.changes.Add(1)
	}
	return ok
}

// GraphNames returns the names of all named graphs in sorted order.
func (d *Dataset) GraphNames() []Term {
	d.mu.RLock()
	names := make([]Term, 0, len(d.named))
	for n := range d.named {
		names = append(names, n)
	}
	d.mu.RUnlock()
	sort.Slice(names, func(i, j int) bool { return Compare(names[i], names[j]) < 0 })
	return names
}

// Quads returns every quad in the dataset (default graph first, then
// named graphs in name order) in deterministic order.
func (d *Dataset) Quads() []Quad {
	out := make([]Quad, 0, d.Len())
	for _, t := range d.Default().Triples() {
		out = append(out, Quad{Triple: t})
	}
	for _, name := range d.GraphNames() {
		g, _ := d.Lookup(name)
		for _, t := range g.Triples() {
			out = append(out, Quad{Triple: t, Graph: name})
		}
	}
	return out
}

// Len returns the total number of quads across all graphs.
func (d *Dataset) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	n := d.def.Len()
	for _, g := range d.named {
		n += g.Len()
	}
	return n
}

// Prefixes returns the dataset's prefix registry.
func (d *Dataset) Prefixes() *PrefixMap { return d.prefixes }

// PrefixMap maps prefix labels (e.g. "rdfs") to namespace IRIs and back.
// It is safe for concurrent use.
type PrefixMap struct {
	mu      sync.RWMutex
	forward map[string]string // prefix -> namespace
	reverse map[string]string // namespace -> prefix
	changes *atomic.Uint64    // counts Bind calls: the owning dataset's Changes
}

// NewPrefixMap returns a registry preloaded with rdf, rdfs, owl and xsd.
func NewPrefixMap() *PrefixMap { return newPrefixMap(new(atomic.Uint64)) }

func newPrefixMap(changes *atomic.Uint64) *PrefixMap {
	pm := &PrefixMap{
		forward: make(map[string]string),
		reverse: make(map[string]string),
		changes: changes,
	}
	pm.Bind("rdf", "http://www.w3.org/1999/02/22-rdf-syntax-ns#")
	pm.Bind("rdfs", "http://www.w3.org/2000/01/rdf-schema#")
	pm.Bind("owl", "http://www.w3.org/2002/07/owl#")
	pm.Bind("xsd", "http://www.w3.org/2001/XMLSchema#")
	return pm
}

// Bind registers prefix -> namespace, replacing earlier bindings of the
// same prefix.
func (pm *PrefixMap) Bind(prefix, namespace string) {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	if old, ok := pm.forward[prefix]; ok {
		delete(pm.reverse, old)
	}
	pm.forward[prefix] = namespace
	pm.reverse[namespace] = prefix
	pm.changes.Add(1)
}

// Expand resolves a CURIE like "rdfs:label" to a full IRI. Strings
// without a known prefix are returned unchanged with ok = false.
func (pm *PrefixMap) Expand(curie string) (string, bool) {
	i := strings.Index(curie, ":")
	if i < 0 {
		return curie, false
	}
	pm.mu.RLock()
	ns, ok := pm.forward[curie[:i]]
	pm.mu.RUnlock()
	if !ok {
		return curie, false
	}
	return ns + curie[i+1:], true
}

// MustExpand resolves a CURIE and panics if the prefix is unknown. Use
// only with compile-time-constant CURIEs.
func (pm *PrefixMap) MustExpand(curie string) string {
	iri, ok := pm.Expand(curie)
	if !ok {
		panic(fmt.Sprintf("rdf: unknown prefix in %q", curie))
	}
	return iri
}

// Compact shortens an IRI to a CURIE when a registered namespace matches
// and the CURIE reads back as the same IRI (see syntax.go), otherwise
// returns the IRI unchanged with ok = false. The longest matching
// namespace whose label reads back wins.
func (pm *PrefixMap) Compact(iri string) (string, bool) {
	pm.mu.RLock()
	defer pm.mu.RUnlock()
	best, bestNS := "", ""
	for ns, prefix := range pm.reverse {
		if strings.HasPrefix(iri, ns) && len(ns) > len(bestNS) && CheckPrefixLabel(prefix) == nil {
			bestNS, best = ns, prefix
		}
	}
	if bestNS == "" {
		return iri, false
	}
	local := iri[len(bestNS):]
	if !readsAsLocal(local) {
		return iri, false
	}
	return best + ":" + local, true
}

// CompactTerm renders a term using CURIEs where possible; literals keep
// their N-Triples form.
func (pm *PrefixMap) CompactTerm(t Term) string {
	if t.Kind == KindIRI {
		if c, ok := pm.Compact(t.Value); ok {
			return c
		}
	}
	return t.String()
}

// Pairs returns all (prefix, namespace) bindings sorted by prefix.
func (pm *PrefixMap) Pairs() [][2]string {
	pm.mu.RLock()
	out := make([][2]string, 0, len(pm.forward))
	for p, ns := range pm.forward {
		out = append(out, [2]string{p, ns})
	}
	pm.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}
