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
//	           row, flushed as produced
//	partial=1|0
//	           (walk endpoints) override the engine's degradation mode
//	           for this query: with partial on, a failed source no
//	           longer fails the walk — the healthy sources' rows stream
//	           and the response carries an X-MDM-Partial: true header
//	           plus completeness annotations (missing_sources with one
//	           error class per failed source, stale_sources for
//	           serve-stale substitutions) in the JSON document or the
//	           NDJSON header line; the fields are omitted entirely for
//	           complete results
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
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"mdm"
	"mdm/internal/federate"
	"mdm/internal/obs"
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
	s.handle("GET /api/render/global", s.handleRenderGlobal)
	s.handle("GET /api/render/source", s.handleRenderSource)
	s.handle("GET /api/render/mappings", s.handleRenderMappings)
	s.handle("GET /api/validate", s.handleValidate)
	s.handle("GET /api/export", s.handleExport)

	s.handle("POST /api/prefixes", s.handleAddPrefix)
	s.handle("POST /api/global/concepts", s.handleAddConcept)
	s.handle("POST /api/global/features", s.handleAddFeature)
	s.handle("POST /api/global/attach", s.handleAttach)
	s.handle("POST /api/global/identifiers", s.handleMarkIdentifier)
	s.handle("POST /api/global/relations", s.handleRelate)

	s.handle("POST /api/sources", s.handleAddSource)
	s.handle("POST /api/wrappers", s.handleRegisterWrapper)
	s.handle("GET /api/wrappers", s.handleListWrappers)
	s.handle("GET /api/releases", s.handleReleases)
	s.handle("GET /api/drift/{wrapper}", s.handleDrift)

	s.handle("POST /api/mappings", s.handleDefineMapping)
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

func failQuery(w http.ResponseWriter, err error) { fail(w, queryStatus(err), err) }

// wantExplain reports whether the client asked for an execution report
// (EXPLAIN ANALYZE: the query runs to completion, rows are discarded)
// instead of rows.
func wantExplain(r *http.Request) bool {
	v := r.URL.Query().Get("explain")
	return v == "1" || v == "true"
}

// logSlow writes the finished query to the slow-query log when it
// exceeded the threshold. d is the whole query lifecycle (parse
// through drain); the per-stage breakdown comes from the trace.
func (s *Server) logSlow(d time.Duration, tr *obs.Trace, endpoint, query string,
	status int, rows int64, partial bool, missing []obs.MissingSource) {
	if !s.SlowLog.Enabled(d) {
		return
	}
	obsSlowQueries.Inc()
	_ = s.SlowLog.Record(obs.SlowEntry{
		Endpoint:   endpoint,
		QueryHash:  obs.QueryHash(query),
		DurationMS: float64(d) / float64(time.Millisecond),
		Status:     status,
		StagesMS:   tr.Stages(),
		Plan:       tr.Plan(),
		Rows:       rows,
		Partial:    partial,
		Missing:    missing,
	})
}

// partialParam reads the tristate partial URL parameter: absent defers
// to the engine's configured default.
func partialParam(r *http.Request) (federate.PartialMode, error) {
	switch v := r.URL.Query().Get("partial"); v {
	case "":
		return federate.PartialDefault, nil
	case "1", "true":
		return federate.PartialOn, nil
	case "0", "false":
		return federate.PartialOff, nil
	default:
		return 0, fmt.Errorf("rest: bad partial %q", v)
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

// pageParams reads the limit/offset URL parameters (-1 = absent).
func pageParams(r *http.Request) (limit, offset int, err error) {
	limit, offset = -1, -1
	if v := r.URL.Query().Get("limit"); v != "" {
		if limit, err = strconv.Atoi(v); err != nil || limit < 0 {
			return 0, 0, fmt.Errorf("rest: bad limit %q", v)
		}
	}
	if v := r.URL.Query().Get("offset"); v != "" {
		if offset, err = strconv.Atoi(v); err != nil || offset < 0 {
			return 0, 0, fmt.Errorf("rest: bad offset %q", v)
		}
	}
	return limit, offset, nil
}

// wantNDJSON reports whether the client asked for streaming NDJSON.
func wantNDJSON(r *http.Request) bool {
	return r.URL.Query().Get("format") == "ndjson"
}

// ndjsonWriter streams one JSON value per line, flushing as it goes so
// clients see rows while the query is still running.
type ndjsonWriter struct {
	w     http.ResponseWriter
	enc   *json.Encoder
	flush http.Flusher
}

func startNDJSON(w http.ResponseWriter) *ndjsonWriter {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	out := &ndjsonWriter{w: w, enc: json.NewEncoder(w)}
	out.flush, _ = w.(http.Flusher)
	return out
}

func (n *ndjsonWriter) line(v any) {
	_ = n.enc.Encode(v) // Encode appends the newline
	if n.flush != nil {
		n.flush.Flush()
	}
}

// --- read side ---

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.sys.Stats())
}

func (s *Server) handleRenderGlobal(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"text": s.sys.RenderGlobalGraph()})
}

func (s *Server) handleRenderSource(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"text": s.sys.RenderSourceGraph()})
}

func (s *Server) handleRenderMappings(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"text": s.sys.RenderMappings()})
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

// handleCompact forces a full storage compaction (see
// System.CompactStorage). For in-memory systems it reports persistent
// false and does nothing.
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

func (s *Server) handleAddPrefix(w http.ResponseWriter, r *http.Request) {
	var req prefixReq
	if !decode(w, r, &req) {
		return
	}
	s.sys.BindPrefix(req.Prefix, req.Namespace)
	writeJSON(w, http.StatusCreated, map[string]string{"status": "ok"})
}

type nodeReq struct {
	IRI   string `json:"iri"`
	Label string `json:"label"`
}

func (s *Server) handleAddConcept(w http.ResponseWriter, r *http.Request) {
	var req nodeReq
	if !decode(w, r, &req) {
		return
	}
	if err := s.sys.AddConcept(req.IRI, req.Label); err != nil {
		fail(w, http.StatusUnprocessableEntity, err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]string{"status": "ok"})
}

func (s *Server) handleAddFeature(w http.ResponseWriter, r *http.Request) {
	var req nodeReq
	if !decode(w, r, &req) {
		return
	}
	if err := s.sys.AddFeature(req.IRI, req.Label); err != nil {
		fail(w, http.StatusUnprocessableEntity, err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]string{"status": "ok"})
}

type attachReq struct {
	Concept string `json:"concept"`
	Feature string `json:"feature"`
}

func (s *Server) handleAttach(w http.ResponseWriter, r *http.Request) {
	var req attachReq
	if !decode(w, r, &req) {
		return
	}
	if err := s.sys.AttachFeature(req.Concept, req.Feature); err != nil {
		fail(w, http.StatusUnprocessableEntity, err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]string{"status": "ok"})
}

type identifierReq struct {
	Feature string `json:"feature"`
}

func (s *Server) handleMarkIdentifier(w http.ResponseWriter, r *http.Request) {
	var req identifierReq
	if !decode(w, r, &req) {
		return
	}
	if err := s.sys.MarkIdentifier(req.Feature); err != nil {
		fail(w, http.StatusUnprocessableEntity, err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]string{"status": "ok"})
}

type relationReq struct {
	From     string `json:"from"`
	Property string `json:"property"`
	To       string `json:"to"`
}

func (s *Server) handleRelate(w http.ResponseWriter, r *http.Request) {
	var req relationReq
	if !decode(w, r, &req) {
		return
	}
	if err := s.sys.RelateConcepts(req.From, req.Property, req.To); err != nil {
		fail(w, http.StatusUnprocessableEntity, err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]string{"status": "ok"})
}

// --- sources & wrappers ---

type sourceReq struct {
	ID    string `json:"id"`
	Label string `json:"label"`
}

func (s *Server) handleAddSource(w http.ResponseWriter, r *http.Request) {
	var req sourceReq
	if !decode(w, r, &req) {
		return
	}
	if err := s.sys.AddSource(req.ID, req.Label); err != nil {
		fail(w, http.StatusUnprocessableEntity, err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]string{"status": "ok"})
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
		Wrapper: rel.Wrapper, Signature: rel.Signature,
		Supersedes: rel.Supersedes, Breaking: rel.Breaking,
	}
	for _, c := range rel.Changes {
		out.Changes = append(out.Changes, c.String())
	}
	return out
}

// handleRegisterWrapper registers an HTTP wrapper against a live
// endpoint: MDM fetches a sample, extracts the signature and records the
// release (paper §2.2 made operational).
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
	rel, err := s.sys.RegisterWrapper(hw)
	if err != nil {
		fail(w, http.StatusUnprocessableEntity, err)
		return
	}
	writeJSON(w, http.StatusCreated, toReleaseResp(rel))
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
		fail(w, http.StatusNotFound, err)
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

func (s *Server) handleDefineMapping(w http.ResponseWriter, r *http.Request) {
	var req mappingReq
	if !decode(w, r, &req) {
		return
	}
	m := mdm.Mapping{Wrapper: req.Wrapper, SameAs: map[string]mdm.Term{}}
	for _, t := range req.Subgraph {
		m.Subgraph = append(m.Subgraph, mdm.T(s.sys.IRI(t[0]), s.sys.IRI(t[1]), s.sys.IRI(t[2])))
	}
	for attr, feat := range req.SameAs {
		m.SameAs[attr] = s.sys.IRI(feat)
	}
	if err := s.sys.DefineMapping(m); err != nil {
		fail(w, http.StatusUnprocessableEntity, err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]string{"status": "ok"})
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
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
	SPARQL  string     `json:"sparql"`
	Algebra []string   `json:"algebra"`
	CQs     int        `json:"cqs"`
	// Degradation annotations, present only for partial results.
	Partial        bool              `json:"partial,omitempty"`
	MissingSources []mdm.SourceError `json:"missing_sources,omitempty"`
	StaleSources   []string          `json:"stale_sources,omitempty"`
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

// handleSPARQL evaluates a metadata query through the cursor engine:
// limit/offset are pushed into evaluation (a page costs O(page), not
// O(result)), the request context cancels the query when the client
// disconnects, and format=ndjson streams rows as they are produced.
// With explain=1 the query still runs to completion but the response
// is the execution report (stages, per-operator spans, plan summary)
// instead of rows. Every request carries a lightweight trace so slow
// queries log their stage breakdown; explain upgrades it to
// per-operator detail.
func (s *Server) handleSPARQL(w http.ResponseWriter, r *http.Request) {
	var req sparqlReq
	if !decode(w, r, &req) {
		return
	}
	limit, offset, err := pageParams(r)
	if err != nil {
		fail(w, http.StatusBadRequest, err)
		return
	}
	explain := wantExplain(r)
	tr := obs.NewTrace()
	tr.Detail = explain
	t0 := time.Now()
	status := http.StatusOK
	var rows int64
	defer func() {
		s.logSlow(time.Since(t0), tr, "POST /api/sparql", req.Query, status, rows, false, nil)
	}()

	cur, err := s.sys.SPARQLPageTrace(req.Query, limit, offset, tr)
	if err != nil {
		status = http.StatusUnprocessableEntity
		fail(w, status, err)
		return
	}
	defer cur.Close()
	ctx, cancel := context.WithTimeout(r.Context(), s.QueryTimeout)
	defer cancel()

	// The execute stage covers the drain (cursor evaluation is lazy);
	// endExec is idempotent so every exit path below can settle it
	// before the deferred slow-log check reads the stages.
	et0 := time.Now()
	execDone := false
	endExec := func() {
		if execDone {
			return
		}
		execDone = true
		d := time.Since(et0)
		sparql.ObserveStage("execute", d)
		tr.StageDur("execute", d)
		rows = cur.Rows()
	}
	defer endExec()

	if explain {
		for cur.Next(ctx) {
		}
		endExec()
		if err := cur.Err(); err != nil {
			status = queryStatus(err)
			fail(w, status, err)
			return
		}
		tr.SetAttr("rows", strconv.FormatInt(cur.Rows(), 10))
		writeJSON(w, http.StatusOK, map[string]any{"explain": tr.Report()})
		return
	}

	if cur.Form() == sparql.FormAsk {
		ask := cur.Next(ctx)
		endExec()
		if err := cur.Err(); err != nil {
			status = queryStatus(err)
			fail(w, status, err)
			return
		}
		if wantNDJSON(r) {
			startNDJSON(w).line(map[string]any{"ask": ask})
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"ask": ask})
		return
	}

	// Unbound (OPTIONAL-miss) variables render as empty cells.
	vars := cur.Vars()
	cells := func() []string {
		row := cur.Row()
		out := make([]string, len(vars))
		for i := range vars {
			if t, ok := row.Term(i); ok {
				out[i] = t.Value
			}
		}
		return out
	}

	if wantNDJSON(r) {
		// Streaming: the header line commits the 200. An error after
		// that (e.g. the server-side query timeout) is reported as a
		// trailing error line so a still-connected client can tell a
		// truncated stream from a complete one.
		out := startNDJSON(w)
		out.line(map[string]any{"vars": vars})
		for cur.Next(ctx) {
			out.line(cells())
		}
		if err := cur.Err(); err != nil {
			out.line(apiError{Error: err.Error()})
		}
		return
	}

	page := [][]string{}
	for cur.Next(ctx) {
		page = append(page, cells())
	}
	endExec()
	if err := cur.Err(); err != nil {
		status = queryStatus(err)
		fail(w, status, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"vars": vars, "rows": page})
}

// --- saved walks (analytical processes) ---

// savedWalkReq names a walk so analysts can re-run their analytical
// processes later. Saved walks are stored as metadata, not plans: they
// are re-rewritten at run time, which is precisely how MDM keeps
// "hundreds of analytical processes" (paper §1) working across schema
// evolution — after a new release, running the same saved walk simply
// produces a union over more wrapper versions.
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
	var req walkReq
	if err := json.Unmarshal([]byte(doc["walk"].(string)), &req); err != nil {
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

// runWalk executes a walk through the streaming federation engine and
// renders the answer under the shared paging/streaming contract: the
// limit/offset page is pushed into the pipeline (a page costs
// O(sources + page), not O(result)), the request context (bounded by
// QueryTimeout) cancels both the source scatter and the drain, and
// format=ndjson streams rows as they are produced.
//
// Error mapping matches the metadata SPARQL endpoints: a disconnect
// reports 499, a timeout (the scatter's per-source deadline or the
// query timeout) 504, a circuit-breaker fast-fail 503, a semantic
// failure 422 — all pre-header; an error
// after the NDJSON header commits the 200 is reported as a trailing
// {"error": ...} line so a still-connected client can tell a truncated
// stream from a complete one. Rows stream in plan order, which is
// deterministic for unchanged source snapshots, so pages partition the
// result exactly as a full drain delivers it.
func (s *Server) runWalk(w http.ResponseWriter, r *http.Request, walk *mdm.Walk) {
	limit, offset, err := pageParams(r)
	if err != nil {
		fail(w, http.StatusBadRequest, err)
		return
	}
	mode, err := partialParam(r)
	if err != nil {
		fail(w, http.StatusBadRequest, err)
		return
	}
	explain := wantExplain(r)
	tr := obs.NewTrace()
	tr.Detail = explain
	t0 := time.Now()
	ctx, cancel := context.WithTimeout(r.Context(), s.QueryTimeout)
	defer cancel()
	// The trace rides the context: QueryRun records the rewrite stage
	// and plan summary, the federation engine the scatter stage and
	// per-source spans.
	ctx = obs.WithTrace(ctx, tr)
	cur, res, err := s.sys.QueryRun(ctx, walk, mdm.QueryOpts{Limit: limit, Offset: offset, Partial: mode})
	if err != nil {
		failQuery(w, err)
		return
	}
	defer cur.Close()
	status := http.StatusOK
	var rows int64
	dt0 := time.Now()
	drained := false
	endDrain := func() {
		if !drained {
			drained = true
			tr.StageDur("drain", time.Since(dt0))
		}
	}
	defer func() {
		endDrain()
		var miss []obs.MissingSource
		for _, m := range cur.Missing() {
			miss = append(miss, obs.MissingSource{Source: m.Source, Class: string(m.Class)})
		}
		s.logSlow(time.Since(t0), tr, r.Method+" "+r.URL.Path, res.SPARQL,
			status, rows, cur.Partial(), miss)
	}()
	if cur.Partial() {
		// Before the status line commits: degraded completeness is
		// visible without parsing the body.
		w.Header().Set("X-MDM-Partial", "true")
	}

	if explain {
		for cur.Next(ctx) {
			rows++
		}
		endDrain()
		if err := cur.Err(); err != nil {
			status = queryStatus(err)
			fail(w, status, err)
			return
		}
		tr.SetAttr("cqs", strconv.Itoa(len(res.CQs)))
		tr.SetAttr("rows", strconv.FormatInt(rows, 10))
		if cur.Partial() {
			tr.SetAttr("partial", "true")
		}
		writeJSON(w, http.StatusOK, map[string]any{"explain": tr.Report(), "sparql": res.SPARQL})
		return
	}

	cells := func() []string {
		row := cur.Row()
		out := make([]string, len(row))
		for i, v := range row {
			out[i] = v.Text()
		}
		return out
	}

	if wantNDJSON(r) {
		out := startNDJSON(w)
		head := map[string]any{"columns": cur.Columns(), "sparql": res.SPARQL}
		if cur.Partial() {
			head["partial"] = true
			if m := cur.Missing(); len(m) > 0 {
				head["missing_sources"] = m
			}
			if st := cur.StaleSources(); len(st) > 0 {
				head["stale_sources"] = st
			}
		}
		out.line(head)
		for cur.Next(ctx) {
			rows++
			out.line(cells())
		}
		if err := cur.Err(); err != nil {
			out.line(apiError{Error: err.Error()})
		}
		return
	}

	page := [][]string{}
	for cur.Next(ctx) {
		page = append(page, cells())
	}
	endDrain()
	rows = int64(len(page))
	if err := cur.Err(); err != nil {
		status = queryStatus(err)
		fail(w, status, err)
		return
	}
	resp := queryResp{
		Columns: cur.Columns(), SPARQL: res.SPARQL, CQs: len(res.CQs), Rows: page,
		Partial: cur.Partial(), MissingSources: cur.Missing(), StaleSources: cur.StaleSources(),
	}
	for _, cq := range res.CQs {
		resp.Algebra = append(resp.Algebra, cq.Algebra)
	}
	writeJSON(w, http.StatusOK, resp)
}
