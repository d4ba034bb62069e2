// Package rest exposes MDM over HTTP, replacing the Jersey/Java REST
// backend of the original implementation (paper §2.5: "the backend is
// implemented as a set of REST APIs ... the frontend interacts with the
// backend by means of HTTP REST calls").
//
// The four interactions of paper §2 map onto the resource tree:
//
//	definition of the global graph   POST /api/global/{concepts,features,attach,identifiers,relations}
//	registration of wrappers         POST /api/sources, POST /api/wrappers
//	definition of LAV mappings       POST /api/mappings
//	querying the global graph        POST /api/query  (walks), POST /api/sparql (metadata)
//
// plus read-side endpoints for stats, rendering, releases, drift
// detection, validation and TriG export.
//
// # Query paging and streaming
//
// The query endpoints (POST /api/query, /api/query/sparql, /api/sparql
// and /api/walks/{name}/run) accept the URL parameters
//
//	limit=N    page size, pushed into evaluation: the metadata SPARQL
//	           cursor and the federated walk pipeline both stop as
//	           soon as the page is complete
//	offset=N   rows to skip before the page (the cursor position)
//	format=ndjson
//	           stream results as NDJSON instead of one JSON document:
//	           a header line {"vars":[...]} (or {"columns":[...]} for
//	           walk results), then one JSON array of cell strings per
//	           row; the header and the first row are flushed at once,
//	           later rows as the response buffer fills or when a row
//	           is written 50 ms or more after the previous flush
//	partial=1|0
//	           (walk endpoints) choose this query's degradation mode;
//	           absent is 0, strict. With partial on, a failed source no
//	           longer fails the walk — the healthy sources' rows stream
//	           and the response carries an X-MDM-Partial: true header
//	           plus a completeness annotation (missing_sources, with one
//	           error class per failed source) in the JSON document or
//	           the NDJSON header line; the fields are omitted entirely
//	           for complete results
//	explain=1
//	           run the query to completion but answer with the
//	           execution report (stage timings, per-operator spans,
//	           plan summary — EXPLAIN ANALYZE semantics) instead of
//	           rows; see docs/OBSERVABILITY.md for the JSON schema
//
// GET /metrics serves the observability registry in Prometheus text
// format, and queries slower than the server's slow-query threshold
// emit one structured line to its slow-query log (Server.SlowLog).
//
// limit/offset override a LIMIT/OFFSET written in the query itself.
// Every query runs under the client's request context: a dropped
// connection cancels evaluation — for walks, including the concurrent
// source fetches of the federation scatter phase. POST bodies are
// capped at 1 MiB; larger requests get 413 with a JSON error.
package rest

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"mdm"
	"mdm/internal/federate"
	"mdm/internal/obs"
	"mdm/internal/rdf"
	"mdm/internal/schema"
	"mdm/internal/sparql"
	"mdm/internal/store"
	"mdm/internal/wrapper"
)

// Server is the MDM REST service.
type Server struct {
	sys *mdm.System
	mux *http.ServeMux
	// QueryTimeout bounds walk execution (default 30s).
	QueryTimeout time.Duration
	// SlowLog, when set, receives one JSON line per query slower than
	// its threshold (see obs.SlowLog). Set it before the first request.
	SlowLog *obs.SlowLog
}

// NewServer wraps an MDM system.
func NewServer(sys *mdm.System) *Server {
	s := &Server{sys: sys, mux: http.NewServeMux(), QueryTimeout: 30 * time.Second}
	s.routes()
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

func (s *Server) routes() {
	s.handle("GET /api/stats", s.handleStats)
	sys := s.sys
	s.handle("GET /api/render/global", renderText(sys.RenderGlobalGraph))
	s.handle("GET /api/render/source", renderText(sys.RenderSourceGraph))
	s.handle("GET /api/render/mappings", renderText(sys.RenderMappings))
	s.handle("GET /api/validate", s.handleValidate)
	s.handle("GET /api/export", s.handleExport)

	s.handle("POST /api/prefixes", mutate(func(q prefixReq) error { return sys.BindPrefix(q.Prefix, q.Namespace) }))
	s.handle("POST /api/global/concepts", mutate(func(q nodeReq) error { return sys.AddConcept(q.IRI, q.Label) }))
	s.handle("POST /api/global/features", mutate(func(q nodeReq) error { return sys.AddFeature(q.IRI, q.Label) }))
	s.handle("POST /api/global/attach", mutate(func(q attachReq) error { return sys.AttachFeature(q.Concept, q.Feature) }))
	s.handle("POST /api/global/identifiers", mutate(func(q identifierReq) error { return sys.MarkIdentifier(q.Feature) }))
	s.handle("POST /api/global/relations", mutate(func(q relationReq) error { return sys.RelateConcepts(q.From, q.Property, q.To) }))

	s.handle("POST /api/sources", mutate(func(q sourceReq) error { return sys.AddSource(q.ID, q.Label) }))
	s.handle("POST /api/wrappers", s.handleRegisterWrapper)
	s.handle("GET /api/wrappers", s.handleListWrappers)
	s.handle("GET /api/releases", s.handleReleases)
	s.handle("GET /api/drift/{wrapper}", s.handleDrift)

	s.handle("POST /api/mappings", mutate(s.defineMapping))
	s.handle("GET /api/mappings/{wrapper}/suggest", s.handleSuggestMapping)

	s.handle("POST /api/query", s.handleQuery)
	s.handle("POST /api/query/sparql", s.handleQuerySPARQL)
	s.handle("POST /api/sparql", s.handleSPARQL)

	s.handle("POST /api/walks", s.handleSaveWalk)
	s.handle("GET /api/walks", s.handleListWalks)
	s.handle("POST /api/walks/{name}/run", s.handleRunWalk)

	s.handle("POST /api/admin/compact", s.handleCompact)

	// Application metrics: the Prometheus rendering of the obs registry.
	// The route is not instrumented: scrapers would otherwise dominate
	// the request metrics they collect.
	s.mux.Handle("GET /metrics", obs.Handler(obs.Default))
}

// --- helpers ---

// maxRequestBody caps POST bodies; metadata requests are small, so 1 MiB
// is generous while keeping a misbehaving client from ballooning memory.
const maxRequestBody = 1 << 20

// statusClientClosedRequest is the (nginx-convention) status reported
// when the client's context was canceled before the response started.
const statusClientClosedRequest = 499

type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func fail(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, apiError{Error: err.Error()})
}

// queryStatus maps evaluation errors: a canceled request context
// reports 499 (the client is gone; the status is for logs), the
// server-side query timeout reports 504, a circuit-breaker fast-fail
// 503 (the source is known-down; retry after its cooldown), everything
// else is a semantic failure.
func queryStatus(err error) int {
	switch {
	case errors.Is(err, context.Canceled):
		return statusClientClosedRequest
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, federate.ErrBreakerOpen):
		return http.StatusServiceUnavailable
	default:
		return http.StatusUnprocessableEntity
	}
}

// partialParam reads the partial URL parameter: absent is strict.
func partialParam(r *http.Request) (bool, error) {
	switch v := r.URL.Query().Get("partial"); v {
	case "1", "true":
		return true, nil
	case "", "0", "false":
		return false, nil
	default:
		return false, fmt.Errorf("rest: bad partial %q", v)
	}
}

func decode[T any](w http.ResponseWriter, r *http.Request, dst *T) bool {
	r.Body = http.MaxBytesReader(w, r.Body, maxRequestBody)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			fail(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("rest: request body exceeds %d bytes", tooBig.Limit))
			return false
		}
		fail(w, http.StatusBadRequest, fmt.Errorf("rest: bad request body: %w", err))
		return false
	}
	return true
}

// mutate is the shape shared by the steward's mutation endpoints:
// decode the body, apply it with one facade call, answer with the call's
// error — 400 for a prefix label that would not read back
// (rdf.ErrPrefixLabel), 422 otherwise — or 201 {"status":"ok"}.
func mutate[T any](apply func(T) error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req T
		if !decode(w, r, &req) {
			return
		}
		if err := apply(req); errors.Is(err, rdf.ErrPrefixLabel) {
			fail(w, http.StatusBadRequest, err)
			return
		} else if err != nil {
			fail(w, http.StatusUnprocessableEntity, err)
			return
		}
		writeJSON(w, http.StatusCreated, map[string]string{"status": "ok"})
	}
}

// pageParams reads the limit/offset URL parameters (-1 = absent).
func pageParams(q url.Values) (limit, offset int, err error) {
	limit, offset = -1, -1
	if v := q.Get("limit"); v != "" {
		if limit, err = strconv.Atoi(v); err != nil || limit < 0 {
			return 0, 0, fmt.Errorf("rest: bad limit %q", v)
		}
	}
	if v := q.Get("offset"); v != "" {
		if offset, err = strconv.Atoi(v); err != nil || offset < 0 {
			return 0, 0, fmt.Errorf("rest: bad offset %q", v)
		}
	}
	return limit, offset, nil
}

// flushInterval is how long a streamed row may sit in net/http's buffer
// before the next row written flushes it: a flush is a write(2) and a
// chunk, so a fast drain should pay one per buffer, not per row, while
// 50 ms is below what someone tailing the stream perceives as a stall.
const flushInterval = 50 * time.Millisecond

// flushCheckEvery is how many lines pass between two reads of the clock
// after the first two: a fast drain writes thousands of rows per flush
// interval, and a clock read is a measurable share of encoding a row. The price is that a slow stream may hold a row past flushInterval
// until 64 lines have passed or net/http's few KiB of buffer fill,
// whichever comes first.
const flushCheckEvery = 64

// ndjsonWriter streams one JSON value per line. The first two lines —
// the header and the first row — are flushed as written, so a client has
// the schema and proof of life while the query is still running; after
// that net/http's buffer fills and drains on its own, with a flush only
// once flushInterval has passed since the last, checked every
// flushCheckEvery lines. net/http flushes the end of the stream when the
// handler returns.
type ndjsonWriter struct {
	w       http.ResponseWriter
	flush   http.Flusher
	lines   int
	flushed time.Time
}

func startNDJSON(w http.ResponseWriter) *ndjsonWriter {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	out := &ndjsonWriter{w: w}
	out.flush, _ = w.(http.Flusher)
	return out
}

// value writes a header or error line.
func (n *ndjsonWriter) value(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return n.line(append(b, '\n'))
}

// line writes one newline-terminated line.
func (n *ndjsonWriter) line(b []byte) error {
	if _, err := n.w.Write(b); err != nil {
		return err
	}
	n.lines++
	if n.flush != nil && (n.lines <= 2 || n.lines%flushCheckEvery == 0 && time.Since(n.flushed) >= flushInterval) {
		n.flush.Flush()
		n.flushed = time.Now()
	}
	return nil
}

// --- read side ---

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.sys.Stats())
}

// renderText serves one of the Figure 5-7 renderings as {"text": ...}.
func renderText(render func() string) http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"text": render()})
	}
}

func (s *Server) handleValidate(w http.ResponseWriter, _ *http.Request) {
	violations := s.sys.Validate()
	out := make([]string, len(violations))
	for i, v := range violations {
		out[i] = v.String()
	}
	writeJSON(w, http.StatusOK, map[string]any{"consistent": len(out) == 0, "violations": out})
}

func (s *Server) handleExport(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/trig")
	fmt.Fprint(w, s.sys.ExportTriG())
}

// handleCompact runs storage maintenance now (see
// System.CompactStorage): usually a checkpoint of the WAL tail, a full
// compaction when the store's policy says one is due. Which of the two
// ran shows on mdm_tdb_{checkpoints,compactions}_total, not in the body.
// For in-memory systems it reports persistent false and does nothing.
func (s *Server) handleCompact(w http.ResponseWriter, _ *http.Request) {
	persistent := s.sys.Storage() != nil
	if err := s.sys.CompactStorage(); err != nil {
		fail(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"compacted": persistent, "persistent": persistent})
}

// --- global graph ---

type prefixReq struct {
	Prefix    string `json:"prefix"`
	Namespace string `json:"namespace"`
}

type nodeReq struct {
	IRI   string `json:"iri"`
	Label string `json:"label"`
}

type attachReq struct {
	Concept string `json:"concept"`
	Feature string `json:"feature"`
}

type identifierReq struct {
	Feature string `json:"feature"`
}

type relationReq struct {
	From     string `json:"from"`
	Property string `json:"property"`
	To       string `json:"to"`
}

// --- sources & wrappers ---

type sourceReq struct {
	ID    string `json:"id"`
	Label string `json:"label"`
}

type wrapperReq struct {
	Name    string            `json:"name"`
	Source  string            `json:"source"`
	URL     string            `json:"url"`
	Format  string            `json:"format,omitempty"`
	Renames map[string]string `json:"renames,omitempty"`
}

type releaseResp struct {
	Seq        int      `json:"seq"`
	Kind       string   `json:"kind"`
	Source     string   `json:"source"`
	Wrapper    string   `json:"wrapper"`
	Signature  string   `json:"signature"`
	Supersedes string   `json:"supersedes,omitempty"`
	Breaking   bool     `json:"breaking"`
	Changes    []string `json:"changes,omitempty"`
}

func toReleaseResp(rel mdm.Release) releaseResp {
	out := releaseResp{
		Seq: rel.Seq, Kind: string(rel.Kind), Source: rel.SourceID,
		Wrapper: rel.Signature.Wrapper, Signature: rel.Signature.String(),
		Supersedes: rel.Supersedes, Breaking: rel.Breaking,
	}
	for _, c := range rel.Changes {
		out.Changes = append(out.Changes, c.String())
	}
	return out
}

// handleRegisterWrapper registers an HTTP wrapper against a live
// endpoint: MDM fetches a sample, extracts the signature and records the
// release (paper §2.2 made operational) — 201. A name the release log
// already holds is attached again, as after a restart, and answered with
// its recorded release — 200 — unless the source or schema differs — 409.
func (s *Server) handleRegisterWrapper(w http.ResponseWriter, r *http.Request) {
	var req wrapperReq
	if !decode(w, r, &req) {
		return
	}
	if req.Name == "" || req.Source == "" || req.URL == "" {
		fail(w, http.StatusBadRequest, fmt.Errorf("rest: name, source and url are required"))
		return
	}
	opts := []wrapper.HTTPOption{}
	if req.Format != "" {
		opts = append(opts, wrapper.WithFormat(schema.Format(req.Format)))
	}
	for from, to := range req.Renames {
		opts = append(opts, wrapper.WithRename(from, to))
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.QueryTimeout)
	defer cancel()
	hw, err := wrapper.NewHTTP(ctx, req.Name, req.Source, req.URL, opts...)
	if err != nil {
		fail(w, http.StatusBadGateway, err)
		return
	}
	// Read before the call: a name that becomes known during it is a
	// concurrent POST's release, and then this one fails as a duplicate.
	status := http.StatusCreated
	if _, released := s.sys.Ontology().ReleaseOf(req.Name); released {
		status = http.StatusOK
	}
	rel, err := s.sys.RegisterWrapper(hw)
	if err != nil {
		status = http.StatusUnprocessableEntity
		var conflict *mdm.ReleaseConflictError
		if errors.As(err, &conflict) {
			status = http.StatusConflict
		}
		fail(w, status, err)
		return
	}
	writeJSON(w, status, toReleaseResp(rel))
}

type wrapperInfo struct {
	Name      string `json:"name"`
	Source    string `json:"source"`
	Signature string `json:"signature"`
}

func (s *Server) handleListWrappers(w http.ResponseWriter, _ *http.Request) {
	var out []wrapperInfo
	for _, name := range s.sys.Wrappers().Names() {
		wr, _ := s.sys.Wrappers().Get(name)
		out = append(out, wrapperInfo{Name: name, Source: wr.SourceID(), Signature: wr.Signature().String()})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleReleases(w http.ResponseWriter, _ *http.Request) {
	rels := s.sys.ReleaseLog()
	out := make([]releaseResp, len(rels))
	for i, rel := range rels {
		out[i] = toReleaseResp(rel)
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleDrift(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("wrapper")
	ctx, cancel := context.WithTimeout(r.Context(), s.QueryTimeout)
	defer cancel()
	changes, err := s.sys.DetectDrift(ctx, name)
	if err != nil {
		// A registered wrapper whose probe failed means its source is
		// down (502, as at registration); only an unknown name is 404.
		status := http.StatusBadGateway
		if _, known := s.sys.Wrappers().Get(name); !known {
			status = http.StatusNotFound
		}
		fail(w, status, err)
		return
	}
	descs := make([]string, len(changes))
	breaking := false
	for i, c := range changes {
		descs[i] = c.String()
		breaking = breaking || c.Breaking()
	}
	writeJSON(w, http.StatusOK, map[string]any{"wrapper": name, "drift": descs, "breaking": breaking})
}

// --- mappings ---

type mappingReq struct {
	Wrapper  string            `json:"wrapper"`
	Subgraph [][3]string       `json:"subgraph"`
	SameAs   map[string]string `json:"sameAs"`
}

// defineMapping resolves the request's CURIEs and stores the mapping.
func (s *Server) defineMapping(req mappingReq) error {
	m := mdm.Mapping{Wrapper: req.Wrapper, SameAs: map[string]mdm.Term{}}
	for _, t := range req.Subgraph {
		m.Subgraph = append(m.Subgraph, mdm.T(s.sys.IRI(t[0]), s.sys.IRI(t[1]), s.sys.IRI(t[2])))
	}
	for attr, feat := range req.SameAs {
		m.SameAs[attr] = s.sys.IRI(feat)
	}
	return s.sys.DefineMapping(m)
}

func (s *Server) handleSuggestMapping(w http.ResponseWriter, r *http.Request) {
	newW := r.PathValue("wrapper")
	prev := r.URL.Query().Get("from")
	if prev == "" {
		fail(w, http.StatusBadRequest, fmt.Errorf("rest: query parameter 'from' (previous wrapper) required"))
		return
	}
	m, changes, err := s.sys.SuggestMapping(prev, newW)
	if err != nil {
		fail(w, http.StatusUnprocessableEntity, err)
		return
	}
	pm := s.sys.Ontology().Dataset().Prefixes()
	resp := mappingReq{Wrapper: m.Wrapper, SameAs: map[string]string{}}
	for _, t := range m.Subgraph {
		resp.Subgraph = append(resp.Subgraph, [3]string{
			pm.CompactTerm(t.S), pm.CompactTerm(t.P), pm.CompactTerm(t.O)})
	}
	for attr, feat := range m.SameAs {
		resp.SameAs[attr] = pm.CompactTerm(feat)
	}
	descs := make([]string, len(changes))
	for i, c := range changes {
		descs[i] = c.String()
	}
	writeJSON(w, http.StatusOK, map[string]any{"mapping": resp, "changes": descs})
}

// --- querying ---

// walkReq is the JSON form of a walk — what the original UI's drawn
// contour serializes to. Select is ordered: it determines the output
// column order.
type walkReq struct {
	// Select lists the projected features in order.
	Select []selectItem `json:"select"`
	// Relations lists [from, property, to] concept edges.
	Relations [][3]string `json:"relations,omitempty"`
	// Concepts may list extra concepts with no projected features.
	Concepts []string `json:"concepts,omitempty"`
}

// selectItem is one projected feature.
type selectItem struct {
	Concept string `json:"concept"`
	Feature string `json:"feature"`
	// Alias optionally names the output column.
	Alias string `json:"alias,omitempty"`
}

type queryResp struct {
	Columns []string `json:"columns"`
	Rows    any      `json:"rows"` // always nil: see rowsSlot
	SPARQL  string   `json:"sparql"`
	Algebra []string `json:"algebra"`
	CQs     int      `json:"cqs"`
	// Degradation annotations, present only for partial results.
	Partial        bool              `json:"partial,omitempty"`
	MissingSources []mdm.SourceError `json:"missing_sources,omitempty"`
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req walkReq
	if !decode(w, r, &req) {
		return
	}
	walk, err := s.buildWalk(req)
	if err != nil {
		fail(w, http.StatusBadRequest, err)
		return
	}
	s.runWalk(w, r, walk)
}

type sparqlReq struct {
	Query string `json:"query"`
}

// handleQuerySPARQL accepts an OMQ written in SPARQL, translates it to a
// walk and answers it through the LAV rewriting (the analyst-facing
// querying surface for SPARQL-literate users).
func (s *Server) handleQuerySPARQL(w http.ResponseWriter, r *http.Request) {
	var req sparqlReq
	if !decode(w, r, &req) {
		return
	}
	walk, err := s.sys.WalkFromSPARQL(req.Query)
	if err != nil {
		fail(w, http.StatusUnprocessableEntity, err)
		return
	}
	s.runWalk(w, r, walk)
}

// handleSPARQL evaluates a metadata query through the cursor engine
// under the delivery contract of deliver. Unbound (OPTIONAL-miss)
// variables render as empty cells; an ASK answer is a zero-column result
// of at most one row, reported as the single document {"ask": bool}.
func (s *Server) handleSPARQL(w http.ResponseWriter, r *http.Request) {
	var req sparqlReq
	if !decode(w, r, &req) {
		return
	}
	s.deliver(w, r, func(_ context.Context, tr *obs.Trace, limit, offset int) (answer, error) {
		a := answer{query: req.Query}
		cur, err := s.sys.SPARQLPageTrace(req.Query, limit, offset, tr)
		if err != nil {
			return a, err
		}
		vars := cur.Vars()
		a.cur = cur
		a.width = len(vars)
		a.appendCell = func(dst []byte, col int) []byte {
			t, _ := cur.Row().Term(col) // unbound: the zero Term, an empty cell
			return appendJSONString(dst, t.Value)
		}
		if cur.Form() == sparql.FormAsk {
			a.document = func() any { return map[string]any{"ask": cur.Rows() > 0} }
		} else {
			a.header = func() any { return map[string]any{"vars": vars} }
			a.document = func() any { return map[string]any{"vars": vars, "rows": nil} }
		}
		a.explain = func() any { return map[string]any{"explain": tr.Report()} }
		return a, nil
	})
}

// --- saved walks (analytical processes) ---

// savedWalkReq names a walk so analysts can re-run their analytical
// processes later. Saved walks are stored as metadata, not plans: a walk
// is rewritten when it first runs after a release (the rewriter
// remembers the result until the ontology or the registry next changes),
// which is precisely how MDM keeps "hundreds of analytical processes"
// (paper §1) working across schema evolution — after a new release,
// running the same saved walk simply produces a union over more wrapper
// versions.
type savedWalkReq struct {
	Name string `json:"name"`
	walkReq
}

func (s *Server) handleSaveWalk(w http.ResponseWriter, r *http.Request) {
	var req savedWalkReq
	if !decode(w, r, &req) {
		return
	}
	if req.Name == "" {
		fail(w, http.StatusBadRequest, fmt.Errorf("rest: walk name required"))
		return
	}
	// Validate now so broken walks are rejected at save time.
	walk, err := s.buildWalk(req.walkReq)
	if err != nil {
		fail(w, http.StatusBadRequest, err)
		return
	}
	if _, err := s.sys.Rewrite(walk); err != nil {
		fail(w, http.StatusUnprocessableEntity, err)
		return
	}
	blob, err := json.Marshal(req.walkReq)
	if err != nil {
		fail(w, http.StatusInternalServerError, err)
		return
	}
	if existing, ok := s.sys.Metadata().FindOne("walks", store.Doc{"name": req.Name}); ok {
		if _, err := s.sys.Metadata().Update("walks", existing.ID(), store.Doc{"name": req.Name, "walk": string(blob)}); err != nil {
			fail(w, http.StatusInternalServerError, err)
			return
		}
	} else if _, err := s.sys.Metadata().Insert("walks", store.Doc{"name": req.Name, "walk": string(blob)}); err != nil {
		fail(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]string{"status": "ok", "name": req.Name})
}

func (s *Server) handleListWalks(w http.ResponseWriter, _ *http.Request) {
	docs := s.sys.Metadata().Find("walks", nil)
	names := make([]string, 0, len(docs))
	for _, d := range docs {
		if n, ok := d["name"].(string); ok {
			names = append(names, n)
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"walks": names})
}

func (s *Server) handleRunWalk(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	doc, ok := s.sys.Metadata().FindOne("walks", store.Doc{"name": name})
	if !ok {
		fail(w, http.StatusNotFound, fmt.Errorf("rest: no saved walk %q", name))
		return
	}
	// meta/walks.json may have been edited or truncated outside MDM: a
	// missing or non-string body is corruption to report, not a panic.
	var req walkReq
	blob, _ := doc["walk"].(string)
	if err := json.Unmarshal([]byte(blob), &req); err != nil {
		fail(w, http.StatusInternalServerError, fmt.Errorf("rest: corrupt saved walk: %w", err))
		return
	}
	walk, err := s.buildWalk(req)
	if err != nil {
		fail(w, http.StatusUnprocessableEntity, err)
		return
	}
	s.runWalk(w, r, walk)
}

// buildWalk converts a JSON walk request to a Walk.
func (s *Server) buildWalk(req walkReq) (*mdm.Walk, error) {
	walk := mdm.NewWalk()
	for _, c := range req.Concepts {
		walk.AddConcept(s.sys.IRI(c))
	}
	for _, sel := range req.Select {
		if sel.Concept == "" || sel.Feature == "" {
			return nil, fmt.Errorf("rest: select items need concept and feature")
		}
		if sel.Alias != "" {
			walk.SelectAs(s.sys.IRI(sel.Concept), s.sys.IRI(sel.Feature), sel.Alias)
		} else {
			walk.Select(s.sys.IRI(sel.Concept), s.sys.IRI(sel.Feature))
		}
	}
	for _, rel := range req.Relations {
		walk.Relate(s.sys.IRI(rel[0]), s.sys.IRI(rel[1]), s.sys.IRI(rel[2]))
	}
	return walk, nil
}

// runWalk answers a walk through the streaming federation engine under
// the delivery contract of deliver. The trace rides the context:
// QueryRun records the rewrite stage and plan summary, the federation
// engine the scatter stage and per-source spans, the cursor the drain.
// Rows stream in plan order, which is deterministic for unchanged source
// snapshots, so pages partition the result exactly as a full drain
// delivers it.
func (s *Server) runWalk(w http.ResponseWriter, r *http.Request, walk *mdm.Walk) {
	partial, err := partialParam(r)
	if err != nil {
		fail(w, http.StatusBadRequest, err)
		return
	}
	s.deliver(w, r, func(ctx context.Context, tr *obs.Trace, limit, offset int) (answer, error) {
		var a answer
		cur, res, err := s.sys.QueryRun(obs.WithTrace(ctx, tr), walk,
			mdm.QueryOpts{Limit: limit, Offset: offset, Partial: partial})
		if res != nil {
			a.query = res.SPARQL // a failed scatter is still logged under its query
		}
		if err != nil {
			return a, err
		}
		a.cur, a.partial, a.missing = cur, cur.Partial(), cur.Missing()
		a.width = len(cur.Columns())
		a.appendCell = func(dst []byte, col int) []byte { return appendValueCell(dst, cur.Row()[col]) }
		a.header = func() any {
			head := map[string]any{"columns": cur.Columns(), "sparql": res.SPARQL}
			if cur.Partial() {
				head["partial"] = true
				head["missing_sources"] = cur.Missing()
			}
			return head
		}
		a.document = func() any {
			resp := queryResp{
				Columns: cur.Columns(), SPARQL: res.SPARQL, CQs: len(res.CQs),
				Partial: cur.Partial(), MissingSources: cur.Missing(),
			}
			for _, cq := range res.CQs {
				resp.Algebra = append(resp.Algebra, cq.Algebra())
			}
			return resp
		}
		a.explain = func() any {
			tr.SetAttr("cqs", strconv.Itoa(len(res.CQs)))
			if cur.Partial() {
				tr.SetAttr("partial", "true")
			}
			return map[string]any{"explain": tr.Report(), "sparql": res.SPARQL}
		}
		return a, nil
	})
}

// cursor is what deliver drives: the part *sparql.Cursor and
// *federate.Cursor have in common.
type cursor interface {
	Next(ctx context.Context) bool
	Err() error
	Close()
	Rows() int64
}

// rowsSlot is how the "rows" member of a document builder's value
// marshals. respond cuts the marshaled document there and writes the rows
// it encoded itself in its place: handed to encoding/json as a
// json.RawMessage they are validated and compacted byte by byte, which on
// a bulk answer costs more than encoding them did. A quote inside a JSON
// string is always escaped, so the first match is the member itself.
var rowsSlot = []byte(`"rows":null`)

// rowsBufs recycles the buffers a JSON document's rows are encoded into:
// a bulk answer is megabytes, and growing a fresh buffer to that size per
// request was the path's largest allocation.
var rowsBufs = sync.Pool{New: func() any { return new([]byte) }}

// answer is one engine's side of a query response: its open cursor and
// the builders for everything engine-specific on the wire.
type answer struct {
	cur        cursor
	query      string                           // the text the slow log identifies the query by (hashed)
	width      int                              // cells per row
	appendCell func(dst []byte, col int) []byte // appends a cell of the cursor's current row as a JSON string
	header     func() any                       // NDJSON header line; nil when the answer is one document (ASK)
	document   func() any                       // the JSON document, its "rows" member null (rowsSlot)
	explain    func() any                       // the explain=1 document: the trace's report, annotated
	partial    bool                             // degraded walk: X-MDM-Partial, slow-log annotation
	missing    []federate.SourceError
}

// appendRow appends the cursor's current row as a JSON array of cell
// strings, in exactly the bytes encoding/json renders a []string.
func (a *answer) appendRow(dst []byte) []byte {
	dst = append(dst, '[')
	for col := 0; col < a.width; col++ {
		if col > 0 {
			dst = append(dst, ',')
		}
		dst = a.appendCell(dst, col)
	}
	return append(dst, ']')
}

// deliver is the one result-delivery path of the query endpoints (the
// contract in the package comment): open starts the query on its engine,
// everything after that is shared. The query runs under the request
// context bounded by QueryTimeout and carries a trace, which explain=1
// upgrades to per-operator detail.
//
// An error before the first response byte maps through queryStatus.
// Once the NDJSON header has committed the 200, an error is reported as
// a trailing {"error": ...} line so a still-connected client can tell a
// truncated stream from a complete one. Whatever the outcome —
// including a query that failed to open — the request is offered to the
// slow-query log with its status, stages and plan.
func (s *Server) deliver(w http.ResponseWriter, r *http.Request,
	open func(ctx context.Context, tr *obs.Trace, limit, offset int) (answer, error)) {
	q := r.URL.Query()
	limit, offset, err := pageParams(q)
	if err != nil {
		fail(w, http.StatusBadRequest, err)
		return
	}
	// explain=1 is EXPLAIN ANALYZE: the query runs to completion, the
	// rows are discarded and the execution report is the answer.
	explain := q.Get("explain") == "1" || q.Get("explain") == "true"
	tr := obs.NewTrace()
	tr.Detail = explain
	t0 := time.Now()
	ctx, cancel := context.WithTimeout(r.Context(), s.QueryTimeout)
	defer cancel()

	var a answer
	status := http.StatusOK
	defer func() { s.logSlow(time.Since(t0), tr, r, status, &a) }()

	a, err = open(ctx, tr, limit, offset)
	if err == nil {
		// Closing settles the cursor's execute/drain stage before the
		// deferred slow-log entry reads the trace.
		defer a.cur.Close()
		err = a.respond(ctx, w, tr, explain, q.Get("format") == "ndjson")
	}
	if err != nil {
		status = queryStatus(err)
		fail(w, status, err)
	}
}

// respond drains the cursor into the response in the mode the request
// asked for. The errors it returns precede the first response byte; the
// caller maps them to a status.
func (a *answer) respond(ctx context.Context, w http.ResponseWriter, tr *obs.Trace, explain, ndjson bool) error {
	if a.partial {
		// Before the status line commits: degraded completeness is
		// visible without parsing the body.
		w.Header().Set("X-MDM-Partial", "true")
	}
	cur := a.cur
	switch {
	case explain:
		for cur.Next(ctx) {
		}
		if err := cur.Err(); err != nil {
			return err
		}
		tr.SetAttr("rows", strconv.FormatInt(cur.Rows(), 10))
		writeJSON(w, http.StatusOK, a.explain())
	case ndjson && a.header != nil:
		out := startNDJSON(w)
		err := out.value(a.header())
		var line []byte
		for err == nil && cur.Next(ctx) {
			line = append(a.appendRow(line[:0]), '\n')
			err = out.line(line)
		}
		// A failed write means the client is gone: stop draining, there
		// is nobody to tell.
		if qerr := cur.Err(); err == nil && qerr != nil {
			_ = out.value(apiError{Error: qerr.Error()})
		}
	default:
		buf := rowsBufs.Get().(*[]byte)
		rows := append((*buf)[:0], `"rows":[`...)
		defer func() { *buf = rows; rowsBufs.Put(buf) }() // the grown buffer goes back
		for n := len(rows); cur.Next(ctx); {
			if len(rows) > n {
				rows = append(rows, ',')
			}
			rows = a.appendRow(rows)
		}
		if err := cur.Err(); err != nil {
			return err
		}
		doc, err := json.Marshal(a.document())
		if err != nil {
			return err
		}
		head, tail, found := bytes.Cut(doc, rowsSlot)
		rows = append(rows, ']')
		if !found { // ASK: the document has no rows
			rows = rows[:0]
		}
		ct := "application/json"
		if ndjson {
			ct = "application/x-ndjson"
		}
		w.Header().Set("Content-Type", ct)
		w.WriteHeader(http.StatusOK)
		for _, part := range [][]byte{head, rows, tail, {'\n'}} {
			if _, err := w.Write(part); err != nil {
				break // the client is gone
			}
		}
	}
	return nil
}

// logSlow offers the finished request to the slow-query log. d is the
// whole query lifecycle (open through drain); the per-stage breakdown
// comes from the trace. A query that failed to open has no cursor, and
// one that failed before its text was known no hash.
func (s *Server) logSlow(d time.Duration, tr *obs.Trace, r *http.Request, status int, a *answer) {
	if !s.SlowLog.Enabled(d) {
		return
	}
	obsSlowQueries.Inc()
	e := obs.SlowEntry{
		Endpoint:   r.Method + " " + r.URL.Path,
		DurationMS: float64(d) / float64(time.Millisecond),
		Status:     status,
		StagesMS:   tr.Stages(),
		Plan:       tr.Plan(),
		Attrs:      tr.Attrs(),
		Partial:    a.partial,
		Sources:    tr.Sources(),
	}
	if a.query != "" {
		e.QueryHash = obs.QueryHash(a.query)
	}
	if a.cur != nil {
		e.Rows = a.cur.Rows()
	}
	for _, m := range a.missing {
		e.Missing = append(e.Missing, obs.MissingSource{Source: m.Source, Class: string(m.Class)})
	}
	_ = s.SlowLog.Record(e)
}
