// Package mdm is a Go implementation of MDM, the Metadata Management
// System for governing evolution in Big Data ecosystems (Nadal, Abelló,
// Romero, Vansummeren, Vassiliadis — EDBT 2018).
//
// MDM assists two roles across the Big Data integration lifecycle:
//
//   - DATA STEWARDS define a global graph of domain concepts and
//     features, register data sources and wrappers (one per schema
//     version of a source), and link wrappers to the global graph with
//     local-as-view (LAV) mappings;
//   - DATA ANALYSTS pose ontology-mediated queries as walks over the
//     global graph; a rewriting algorithm resolves the LAV mappings into
//     a union of conjunctive queries over the wrappers — transparently
//     spanning all registered schema versions of every source.
//
// Schema evolution enters through releases (paper §2.2): RegisterWrapper
// records each wrapper's release in the ontology's release graph, and
// ReleaseLog reads the log back. A release's schema changes are not
// stored: they are derived, when the log is read, from the signatures the
// release graph records for the wrapper and for the one it supersedes.
//
// A minimal end-to-end session:
//
//	sys := mdm.New()
//	sys.BindPrefix("ex", "http://ex.org/")
//	sys.AddConcept("ex:Player", "Player")
//	sys.AddFeature("ex:playerId", "playerId")
//	sys.AttachFeature("ex:Player", "ex:playerId")
//	sys.MarkIdentifier("ex:playerId")
//	... register sources, wrappers and mappings ...
//	walk := mdm.NewWalk().Select(sys.IRI("ex:Player"), sys.IRI("ex:playerId"))
//	rel, res, err := sys.Query(ctx, walk)
//
// See examples/ for complete programs and docs/ARCHITECTURE.md for the
// architecture.
package mdm

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"mdm/internal/bdi"
	"mdm/internal/federate"
	"mdm/internal/obs"
	"mdm/internal/rdf"
	"mdm/internal/relalg"
	"mdm/internal/rewrite"
	"mdm/internal/schema"
	"mdm/internal/sparql"
	"mdm/internal/store"
	"mdm/internal/tdb"
	"mdm/internal/wrapper"
)

// Re-exported building blocks so most users only import mdm.
type (
	// Walk is an ontology-mediated query: a subgraph of the global graph
	// plus the features to project.
	Walk = rewrite.Walk
	// RewriteResult carries the plan, SPARQL text and per-CQ algebra.
	RewriteResult = rewrite.Result
	// Relation is a materialized query answer.
	Relation = relalg.Relation
	// Mapping is a LAV mapping: a wrapper's global subgraph + sameAs links.
	Mapping = bdi.Mapping
	// Release is one release-log entry.
	Release = bdi.Release
	// Change is one detected schema change.
	Change = schema.Change
	// ReleaseConflictError is RegisterWrapper's refusal of a released
	// wrapper name offered with another source or schema.
	ReleaseConflictError = bdi.ConflictError
	// Violation is one integrity-constraint breach.
	Violation = bdi.Violation
	// Wrapper is the source-access interface.
	Wrapper = wrapper.Wrapper
	// WalkCursor streams a federated walk answer row by row.
	WalkCursor = federate.Cursor
	// QueryOpts parameterizes QueryRun (page bounds + degradation mode).
	QueryOpts = federate.RunOpts
	// SourceError annotates one source missing from a partial result.
	SourceError = federate.SourceError
	// Term is an RDF term.
	Term = rdf.Term
	// Triple is an RDF triple.
	Triple = rdf.Triple
)

// NewWalk starts an empty walk.
func NewWalk() *Walk { return rewrite.NewWalk() }

// T builds a triple (for mapping subgraphs).
func T(s, p, o Term) Triple { return rdf.T(s, p, o) }

// System is an MDM instance: ontology, wrapper registry, release log and
// metadata store behind one facade.
type System struct {
	ont      *bdi.Ontology
	reg      *wrapper.Registry
	meta     *store.Store
	rewriter *rewrite.Rewriter
	fed      *federate.Engine
	// tdbStore is non-nil for persistent systems created with Open.
	tdbStore *tdb.Store
}

// New creates an in-memory MDM system.
func New() *System {
	return newSystem(bdi.New(), wrapper.NewRegistry())
}

// newSystem wires an in-memory system around ont and reg; OpenWith swaps
// in the persistent stores.
func newSystem(ont *bdi.Ontology, reg *wrapper.Registry) *System {
	meta, _ := store.Open("") // in-memory store never fails
	return &System{
		ont:      ont,
		reg:      reg,
		meta:     meta,
		rewriter: rewrite.New(ont, reg),
		fed:      federate.NewEngine(),
	}
}

// StoreOptions configures the persistent storage engine behind OpenWith:
// power-cut durability (Fsync: every WAL append is fsynced before the
// call that made it returns) and background maintenance
// (CompactInterval). The zero value matches Open.
type StoreOptions = tdb.Options

// Open loads (or creates) a persistent MDM system rooted at dir with
// default storage options; see OpenWith.
func Open(dir string) (*System, error) {
	return OpenWith(dir, StoreOptions{})
}

// OpenWith loads (or creates) a persistent MDM system rooted at dir.
// The ontology dataset lives in a tdb segment store (manifest-listed
// immutable segments plus a write-ahead-log tail, both replayed at
// open); saved walks live in a JSON document store next to it.
// Every ontology mutation is committed to the WAL as one record before
// the call returns, so whatever was acknowledged survives a crash of
// the process (and, with opts.Fsync, of the machine). When
// opts.CompactInterval > 0 a background tick runs the storage
// maintenance policy (tdb.Store.Maintain); both of its operations
// write files and leave the dataset the system serves alone, so facade
// reads never wait on them. Close when done.
// Wrappers are live code and must be re-registered after reopen; doing so
// attaches them and writes no release (see RegisterWrapper).
//
// A dir holding the TriG export of a pre-segment mdmd deployment, or the
// release documents PRs 17–21 kept beside the ontology store, is refused:
// opening it would lose the export, or serve a store without its log.
func OpenWith(dir string, opts StoreOptions) (*System, error) {
	if _, err := os.Stat(filepath.Join(dir, "ontology.trig")); err == nil {
		return nil, fmt.Errorf("mdm: %s holds a pre-segment ontology.trig export; PR 12 is the last release that imports it (start mdmd -data on it there once)", dir)
	}
	if _, err := os.Stat(filepath.Join(dir, "meta", "releases.json")); err == nil {
		return nil, fmt.Errorf("mdm: %s holds the release documents meta/releases.json; PR 21 is the last release that reads it (releases are recorded in the ontology store now, and nothing imports the documents)", dir)
	}
	ts, err := tdb.OpenWith(filepath.Join(dir, "ontology"), opts)
	if err != nil {
		return nil, err
	}
	meta, err := store.Open(filepath.Join(dir, "meta"))
	if err != nil {
		ts.Close()
		return nil, err
	}
	ont := bdi.FromDataset(ts.Dataset())
	ont.SetJournal(ts)
	sys := newSystem(ont, wrapper.NewRegistry())
	sys.meta, sys.tdbStore = meta, ts
	return sys, nil
}

// CompactStorage runs storage maintenance now (tdb.Store.Maintain): the
// WAL tail is sealed as a delta segment, in time proportional to the
// tail, and only when the segment chain or the tail has grown enough is
// the whole dataset rewritten into one segment. Either way only files
// change: readers keep the dataset they have. It is not a
// durability point — acknowledged writes are on the WAL already — it
// bounds the next open. In-memory systems no-op. This is the operation
// behind `mdmctl compact`; use Storage().Compact() to force the rewrite.
func (s *System) CompactStorage() error {
	if s.tdbStore == nil {
		return nil
	}
	return s.tdbStore.Maintain()
}

// Storage exposes the underlying tdb store of a persistent system (nil
// for in-memory systems) for storage-level introspection: WAL counters,
// manual checkpoints, a forced rewrite.
func (s *System) Storage() *tdb.Store { return s.tdbStore }

// Close checkpoints (CompactStorage: a system that wrote nothing since
// the last seal writes nothing now) and releases a persistent system's
// resources. It is a no-op for in-memory systems.
func (s *System) Close() error {
	if s.tdbStore == nil {
		return nil
	}
	if err := s.tdbStore.Maintain(); err != nil {
		s.tdbStore.Close()
		return err
	}
	return s.tdbStore.Close()
}

// FromParts assembles a System around an existing ontology and wrapper
// registry (e.g. a prebuilt fixture).
func FromParts(ont *bdi.Ontology, reg *wrapper.Registry) *System {
	return newSystem(ont, reg)
}

// Ontology exposes the underlying BDI ontology for advanced use.
func (s *System) Ontology() *bdi.Ontology { return s.ont }

// Wrappers exposes the wrapper registry.
func (s *System) Wrappers() *wrapper.Registry { return s.reg }

// Metadata exposes the system metadata store.
func (s *System) Metadata() *store.Store { return s.meta }

// Federation exposes the federated execution engine so deployments can
// set the per-source fetch timeout, its one setting; fan-out, retries
// and circuit breakers are a fixed policy. Configure it before serving
// queries.
func (s *System) Federation() *federate.Engine { return s.fed }

// --- Prefixes and IRIs ---

// BindPrefix registers a namespace prefix for CURIE expansion, committed
// through the ontology like any mutation. A label that would not read
// back as a prefix name is refused with rdf.ErrPrefixLabel.
func (s *System) BindPrefix(prefix, namespace string) error {
	return s.ont.BindPrefix(prefix, namespace)
}

// IRI resolves a CURIE ("ex:Player") or absolute IRI to a Term.
func (s *System) IRI(curieOrIRI string) Term {
	if iri, ok := s.ont.Dataset().Prefixes().Expand(curieOrIRI); ok {
		return rdf.IRI(iri)
	}
	return rdf.IRI(curieOrIRI)
}

// --- Steward API: global graph (paper §2.1) ---

// AddConcept declares a concept (CURIE or IRI) with a label.
func (s *System) AddConcept(concept, label string) error {
	return s.ont.AddConcept(s.IRI(concept), label)
}

// AddFeature declares a feature.
func (s *System) AddFeature(feature, label string) error {
	return s.ont.AddFeature(s.IRI(feature), label)
}

// AttachFeature links a feature to its (single) concept.
func (s *System) AttachFeature(concept, feature string) error {
	return s.ont.AttachFeature(s.IRI(concept), s.IRI(feature))
}

// MarkIdentifier declares a feature as a concept identifier.
func (s *System) MarkIdentifier(feature string) error {
	return s.ont.MarkIdentifier(s.IRI(feature))
}

// RelateConcepts adds a user-defined relation between concepts.
func (s *System) RelateConcepts(from, prop, to string) error {
	return s.ont.RelateConcepts(s.IRI(from), s.IRI(prop), s.IRI(to))
}

// AddSubClass records a taxonomy edge.
func (s *System) AddSubClass(sub, super string) error {
	return s.ont.AddSubClass(s.IRI(sub), s.IRI(super))
}

// --- Steward API: sources, wrappers, releases (paper §2.2) ---

// AddSource declares a data source. The S:DataSource triples in the
// source graph are its whole record.
func (s *System) AddSource(sourceID, label string) error {
	return s.ont.AddDataSource(sourceID, label)
}

// RegisterWrapper releases a wrapper: registry, source graph and release
// log, with schema diffing against the source's previous release. The
// source-graph triples and the release record are one write — on a
// persistent system one WAL record, committed before the call returns.
// The circuit-breaker record held under the wrapper's name is dropped,
// so a re-registered (renamed back / repointed) wrapper is fetched
// rather than failed fast on its predecessor's failures.
//
// Registering a wrapper the release log already holds, with the source
// and attribute names it was released with, attaches it to the registry
// and returns the recorded release without writing anything: this is how
// wrappers come back after a reopen. With a different source or schema it
// fails with a *ReleaseConflictError.
func (s *System) RegisterWrapper(w Wrapper) (Release, error) {
	sig := w.Signature()
	rel, released := s.ont.ReleaseOf(w.Name())
	if released && (rel.SourceID != w.SourceID() || !sameNames(rel.Signature, sig)) {
		return Release{}, &ReleaseConflictError{Recorded: rel, Offered: w.SourceID() + "/" + sig.String()}
	}
	if err := s.reg.Register(w); err != nil {
		return Release{}, err
	}
	if !released {
		var err error
		if rel, err = s.ont.RegisterWrapper(w.SourceID(), sig, time.Now()); err != nil {
			s.reg.Remove(w.Name())
			return Release{}, err
		}
	}
	s.fed.Forget(w.Name())
	return rel, nil
}

// sameNames reports whether two signatures declare the same attribute
// names, in any order: the source graph keeps them as a set, and types
// are re-inferred from whatever payload the source serves today.
func sameNames(a, b schema.Signature) bool {
	an, bn := a.AttributeNames(), b.AttributeNames()
	slices.Sort(an)
	slices.Sort(bn)
	return slices.Equal(an, bn)
}

// DefineMapping validates and stores a LAV mapping.
func (s *System) DefineMapping(m Mapping) error { return s.ont.DefineMapping(m) }

// SuggestMapping proposes a LAV mapping for a new wrapper version based
// on the superseded wrapper's mapping: attributes that kept their names
// keep their feature links; renamed attributes (per schema.Diff) carry
// their link to the new name; removed attributes drop theirs. The steward
// reviews the result before DefineMapping — this is the "semi-automatically
// accommodate schema evolution" aid of the paper's abstract.
func (s *System) SuggestMapping(prevWrapper, newWrapper string) (Mapping, []Change, error) {
	prev, ok := s.reg.Get(prevWrapper)
	if !ok {
		return Mapping{}, nil, fmt.Errorf("release: unknown wrapper %q", prevWrapper)
	}
	next, ok := s.reg.Get(newWrapper)
	if !ok {
		return Mapping{}, nil, fmt.Errorf("release: unknown wrapper %q", newWrapper)
	}
	prevMap, ok := s.ont.MappingOf(prevWrapper)
	if !ok {
		return Mapping{}, nil, fmt.Errorf("release: wrapper %q has no mapping to derive from", prevWrapper)
	}
	changes := schema.Diff(prev.Signature(), next.Signature())
	renames := map[string]string{}
	removed := map[string]bool{}
	for _, c := range changes {
		switch c.Kind {
		case schema.AttributeRenamed:
			renames[c.Attribute] = c.NewName
		case schema.AttributeRemoved:
			removed[c.Attribute] = true
		}
	}
	out := Mapping{Wrapper: newWrapper, SameAs: map[string]rdf.Term{}}
	for attr, feat := range prevMap.SameAs {
		switch {
		case removed[attr]:
			// dropped
		case renames[attr] != "":
			out.SameAs[renames[attr]] = feat
		default:
			out.SameAs[attr] = feat
		}
	}
	// Subgraph: keep the triples whose features are still populated,
	// plus concept typing and relation edges.
	kept := map[rdf.Term]bool{}
	for _, feat := range out.SameAs {
		kept[feat] = true
	}
	for _, t := range prevMap.Subgraph {
		if t.P == bdi.PropHasFeature && !kept[t.O] {
			continue
		}
		out.Subgraph = append(out.Subgraph, t)
	}
	return out, changes, nil
}

// DetectDrift probes a wrapper's current payload schema and diffs it
// against the declared signature: non-empty changes mean the provider
// shipped a schema change without a registered release (the situation
// that silently breaks pipelines, paper §1).
func (s *System) DetectDrift(ctx context.Context, wrapperName string) ([]Change, error) {
	w, ok := s.reg.Get(wrapperName)
	if !ok {
		return nil, fmt.Errorf("release: unknown wrapper %q", wrapperName)
	}
	cur, err := w.CurrentSignature(ctx)
	if err != nil {
		return nil, fmt.Errorf("release: probe %s: %w", wrapperName, err)
	}
	return schema.Diff(w.Signature(), cur), nil
}

// Validate checks all BDI integrity constraints.
func (s *System) Validate() []Violation { return s.ont.Validate() }

// --- Analyst API: querying (paper §2.4) ---

// Rewrite resolves a walk into a federated plan without executing it.
// The result is shared and read-only (see rewrite.Result).
func (s *System) Rewrite(w *Walk) (*RewriteResult, error) {
	return s.rewriter.Rewrite(w)
}

// Query rewrites and executes a walk federated — source fetches run
// concurrently through the federation engine — returning the
// materialized answer relation and the rewriting artifacts (SPARQL,
// algebra) for inspection. For streamed or paged delivery use QueryRun.
func (s *System) Query(ctx context.Context, w *Walk) (*Relation, *RewriteResult, error) {
	cur, res, err := s.QueryRun(ctx, w, QueryOpts{Limit: -1, Offset: -1})
	if err != nil {
		return nil, res, err
	}
	defer cur.Close()
	rel, err := cur.Materialize(ctx)
	if err != nil {
		return nil, res, fmt.Errorf("mdm: execute rewritten query: %w", err)
	}
	return rel, res, nil
}

// QueryRun rewrites a walk and starts streaming federated execution:
// the scatter phase fetches all distinct sources concurrently (sharing
// fetches in flight for other walks), then rows are produced on demand
// through WalkCursor.Next with no per-operator materialization.
//
// QueryOpts carries the page bound pushed into the pipeline — when
// Limit >= 0 at most Limit rows are produced, when Offset > 0 that many
// are skipped first, -1 leaves either unbounded; a page read costs
// O(sources + page), and for unchanged source snapshots pages partition
// the full stream — and the degradation mode: with QueryOpts.Partial a
// failed source no longer fails the walk — check
// WalkCursor.Partial/Missing for the completeness annotation.
//
// A trace riding ctx (obs.WithTrace) receives the walk's stages: rewrite
// (and whether the rewrite cache answered it) from the rewriter, the
// plan summary here, scatter from the engine, drain from the cursor.
//
// The returned RewriteResult is shared with every other caller asking
// for the same walk until the ontology or the registry changes: read it,
// do not modify it (see rewrite.Result).
func (s *System) QueryRun(ctx context.Context, w *Walk, opts QueryOpts) (*WalkCursor, *RewriteResult, error) {
	tr := obs.FromContext(ctx)
	res, err := s.rewriter.RewriteTrace(w, tr)
	if err != nil {
		return nil, nil, err
	}
	tr.SetPlan(planSummary(res))
	cur, err := s.fed.RunProgram(ctx, res.Program, opts)
	if err != nil {
		return nil, res, fmt.Errorf("mdm: execute rewritten query: %w", err)
	}
	return cur, res, nil
}

// planSummary renders a rewrite result as the one-line plan string
// carried by traces and the slow-query log.
func planSummary(res *RewriteResult) string {
	return fmt.Sprintf("union(cqs=%d) cols=%d", len(res.CQs), len(res.OutputColumns))
}

// QuerySPARQL accepts an ontology-mediated query written directly in
// SPARQL (the fragment MDM itself generates for walks), translates it to
// a walk, rewrites it over the LAV mappings and executes it federated.
func (s *System) QuerySPARQL(ctx context.Context, query string) (*Relation, *RewriteResult, error) {
	walk, err := s.WalkFromSPARQL(query)
	if err != nil {
		return nil, nil, err
	}
	return s.Query(ctx, walk)
}

// WalkFromSPARQL translates an ontology-mediated SPARQL query (the
// fragment MDM generates for walks) into a Walk without executing it —
// the entry point for callers that want cursor-based execution of a
// SPARQL-written OMQ via QueryRun.
func (s *System) WalkFromSPARQL(query string) (*Walk, error) {
	return rewrite.WalkFromSPARQL(s.ont, query)
}

// SPARQL runs a SPARQL query over the ontology dataset itself (global
// graph, source graph and mapping named graphs) — the metadata
// inspection surface of the original tool — and materializes the full
// answer. For paged, streamed or cancelable reads use SPARQLPage.
func (s *System) SPARQL(query string) (*sparql.Result, error) {
	return sparql.Run(s.ont.Dataset(), query)
}

// SPARQLPage starts streaming, cursor-based evaluation of a metadata
// SPARQL query: rows are produced on demand through Cursor.Next (which
// takes the context that cancels the read), LIMIT and OFFSET are pushed
// into evaluation, and abandoning the cursor stops the work. limit and
// offset, when >= 0, replace the query's own LIMIT/OFFSET before
// evaluation — the paging contract of the REST query endpoints. Pass -1
// to keep the query's values.
//
// The cursor reads the live dataset as it drains: it is not a
// point-in-time view of concurrent writes, and storage maintenance
// (background or explicit) neither waits for it nor disturbs it.
func (s *System) SPARQLPage(query string, limit, offset int) (*sparql.Cursor, error) {
	return s.SPARQLPageTrace(query, limit, offset, nil)
}

// SPARQLPageTrace is SPARQLPage with an observability trace attached.
// The engine records the query's stages on tr (and in its
// stage-duration histogram) as it runs them — parse, plan, and execute
// when the cursor finishes — the planner annotates tr with the plan
// summary, and — when tr.Detail is set — every
// operator in the pipeline is wrapped with a per-operator span for
// EXPLAIN output. A nil tr behaves exactly like SPARQLPage.
func (s *System) SPARQLPageTrace(query string, limit, offset int, tr *obs.Trace) (*sparql.Cursor, error) {
	q, err := sparql.ParseTrace(query, tr)
	if err != nil {
		return nil, err
	}
	if limit >= 0 {
		q.Limit = limit
	}
	if offset >= 0 {
		q.Offset = offset
	}
	return sparql.EvalCursorTrace(s.ont.Dataset(), q, tr)
}

// --- Introspection & rendering (Figures 5-7) ---

// RenderGlobalGraph renders the global graph (Figure 5 style).
func (s *System) RenderGlobalGraph() string { return s.ont.RenderGlobal() }

// RenderSourceGraph renders the source graph (Figure 6 style).
func (s *System) RenderSourceGraph() string { return s.ont.RenderSource() }

// RenderMappings renders all LAV mappings (Figure 7 style).
func (s *System) RenderMappings() string { return s.ont.RenderMappings() }

// Stats summarizes ontology sizes.
func (s *System) Stats() bdi.Stats { return s.ont.Stats() }

// ReleaseLog returns all releases in order, read from the ontology's
// release graph.
func (s *System) ReleaseLog() []Release { return s.ont.Releases() }

// ExportTriG serializes the full ontology dataset as TriG
// (rdf.WriteDataset).
func (s *System) ExportTriG() string {
	return rdf.WriteDataset(s.ont.Dataset())
}

// ImportTriG loads a TriG document produced by ExportTriG into a fresh
// system (wrappers must be re-registered by the caller; they are live
// code, not data).
func ImportTriG(doc string) (*System, error) {
	ds, err := sparql.ParseTriG(doc)
	if err != nil {
		return nil, err
	}
	return newSystem(bdi.FromDataset(ds), wrapper.NewRegistry()), nil
}
