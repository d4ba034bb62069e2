package rest_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"mdm"
	"mdm/internal/obs"
	"mdm/internal/rest"
	"mdm/internal/store"
	"mdm/internal/usecase"
	"mdm/internal/wrapper"
)

// The delivery contract of the four query endpoints, as one table:
// endpoint × output mode × outcome. Every cell pins the status, the
// content type, the JSON keys in wire order, the trailing error line,
// X-MDM-Partial, and the stages the explain report and the slow-query
// log line carry.

const omqBody = `{"query":"PREFIX ex: <http://www.example.org/football/>\nPREFIX sc: <http://schema.org/>\nPREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>\nSELECT ?teamName ?playerName WHERE { ?t rdf:type sc:SportsTeam . ?t ex:teamName ?teamName . ?p rdf:type ex:Player . ?p ex:playerName ?playerName . ?p ex:playsIn ?t . }"}`

// cancelOnWrite cancels the request on the first body write: the
// deterministic way to fail a query after the NDJSON header line has
// committed the 200. (A JSON or explain response writes only after the
// drain, so there the cancel comes too late to matter.)
type cancelOnWrite struct {
	*httptest.ResponseRecorder
	cancel context.CancelFunc
}

func (c *cancelOnWrite) Write(b []byte) (int, error) {
	c.cancel()
	return c.ResponseRecorder.Write(b)
}

// keysOf lists a JSON object's top-level keys in wire order.
func keysOf(t *testing.T, raw []byte) []string {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(raw))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		t.Fatalf("not a JSON object (%v): %.200s", err, raw)
	}
	var keys []string
	for dec.More() {
		k, err := dec.Token()
		if err != nil {
			t.Fatalf("bad JSON: %v: %.200s", err, raw)
		}
		keys = append(keys, k.(string))
		var skip json.RawMessage
		if err := dec.Decode(&skip); err != nil {
			t.Fatalf("bad JSON: %v: %.200s", err, raw)
		}
	}
	return keys
}

func TestQueryDeliveryContract(t *testing.T) {
	type endpoint struct {
		path, body string
		walk       bool
	}
	endpoints := []endpoint{
		{"/api/sparql", `{"query":` + mustJSON(conceptFeatureJoin) + `}`, false},
		{"/api/query", fig8WalkBody, true},
		{"/api/query/sparql", omqBody, true},
		{"/api/walks/fig8/run", `{}`, true},
	}
	modes := []struct{ name, param string }{
		{"json", ""}, {"ndjson", "format=ndjson"}, {"explain", "explain=1"},
	}
	type outcome int
	const (
		ok         outcome = iota
		degraded           // a source is down and the walk runs with partial=1
		failBefore         // the query fails before the first response byte
		failAfter          // the request dies right after the first write
		timeout            // the query timeout has expired before evaluation starts
	)
	outcomes := []struct {
		name string
		o    outcome
	}{{"ok", ok}, {"degraded", degraded}, {"fail-before-header", failBefore},
		{"fail-after-header", failAfter}, {"timeout", timeout}}

	metaStages := []string{"parse", "plan", "execute"}
	walkStages := []string{"rewrite", "scatter", "drain"}

	for _, ep := range endpoints {
		for _, mode := range modes {
			for _, oc := range outcomes {
				if oc.o == degraded && !ep.walk {
					continue // partial results are a federation notion
				}
				t.Run(ep.path+"/"+mode.name+"/"+oc.name, func(t *testing.T) {
					// A fresh system per cell: repeated source failures would
					// otherwise trip the breaker and change the error class.
					var sys *mdm.System
					if oc.o == degraded || (oc.o == failBefore && ep.walk) {
						sys = downWalkSystem(t)
					} else {
						f := usecase.MustNew()
						sys = mdm.FromParts(f.Ont, f.Reg)
					}
					if _, err := sys.Metadata().Insert("walks", store.Doc{"name": "fig8", "walk": fig8WalkBody}); err != nil {
						t.Fatal(err)
					}
					srv := rest.NewServer(sys)
					var sink syncBuffer
					srv.SlowLog = obs.NewSlowLogWriter(&sink, 0)
					if oc.o == timeout {
						srv.QueryTimeout = time.Nanosecond
					}

					url, body := ep.path+"?"+mode.param, ep.body
					switch {
					case oc.o == degraded:
						url += "&partial=1"
					case oc.o == failBefore && !ep.walk:
						body = `{"query":"garbage"}`
					}
					ctx, cancel := context.WithCancel(context.Background())
					defer cancel()
					req := httptest.NewRequest("POST", url, strings.NewReader(body)).WithContext(ctx)
					rec := httptest.NewRecorder()
					if oc.o == failAfter {
						srv.ServeHTTP(&cancelOnWrite{rec, cancel}, req)
					} else {
						srv.ServeHTTP(rec, req)
					}

					// What this cell must look like. A stream that has started
					// keeps its 200 and reports the error as its last line.
					streams := mode.name == "ndjson"
					wantStatus, wantErr := http.StatusOK, ""
					switch oc.o {
					case failBefore:
						wantStatus = http.StatusUnprocessableEntity
					case failAfter:
						if streams {
							wantErr = "context canceled"
						}
					case timeout:
						wantErr = "deadline"
						if ep.walk || !streams { // the scatter fails before any header
							wantStatus = http.StatusGatewayTimeout
						}
					}
					if rec.Code != wantStatus {
						t.Fatalf("status = %d, want %d (body %.300s)", rec.Code, wantStatus, rec.Body)
					}
					wantCT := "application/json"
					if streams && wantStatus == http.StatusOK {
						wantCT = "application/x-ndjson"
					}
					if ct := rec.Header().Get("Content-Type"); ct != wantCT {
						t.Errorf("content type = %q, want %q", ct, wantCT)
					}
					wantPartial := ""
					if oc.o == degraded {
						wantPartial = "true"
					}
					if got := rec.Header().Get("X-MDM-Partial"); got != wantPartial {
						t.Errorf("X-MDM-Partial = %q, want %q", got, wantPartial)
					}

					stages := metaStages
					if ep.walk {
						stages = walkStages
					}
					lines := bytes.Split(bytes.TrimRight(rec.Body.Bytes(), "\n"), []byte("\n"))
					switch {
					case wantStatus != http.StatusOK:
						if len(lines) != 1 || !reflect.DeepEqual(keysOf(t, lines[0]), []string{"error"}) {
							t.Fatalf("error body = %s", rec.Body)
						}
						if !strings.Contains(rec.Body.String(), wantErr) {
							t.Errorf("error body %s lacks %q", rec.Body, wantErr)
						}
					case mode.name == "explain":
						checkExplain(t, lines[0], ep.walk, oc.o == degraded, stages)
					case streams:
						wantHead := []string{"vars"}
						if ep.walk {
							wantHead = []string{"columns", "sparql"}
						}
						if oc.o == degraded {
							wantHead = []string{"columns", "missing_sources", "partial", "sparql"}
						}
						if got := keysOf(t, lines[0]); !reflect.DeepEqual(got, wantHead) {
							t.Errorf("header keys = %v, want %v", got, wantHead)
						}
						rows := lines[1:]
						if wantErr != "" {
							last := rows[len(rows)-1]
							if !reflect.DeepEqual(keysOf(t, last), []string{"error"}) || !bytes.Contains(last, []byte(wantErr)) {
								t.Errorf("trailing line = %s, want an error naming %q", last, wantErr)
							}
							rows = rows[:len(rows)-1]
						} else if len(rows) == 0 {
							t.Error("stream carries no rows")
						}
						for _, row := range rows {
							var cells []string
							if err := json.Unmarshal(row, &cells); err != nil {
								t.Errorf("row line %s: %v", row, err)
							}
						}
					default:
						wantKeys := []string{"rows", "vars"}
						if ep.walk {
							wantKeys = []string{"columns", "rows", "sparql", "algebra", "cqs"}
						}
						if oc.o == degraded {
							wantKeys = append(wantKeys, "partial", "missing_sources")
						}
						if got := keysOf(t, lines[0]); !reflect.DeepEqual(got, wantKeys) {
							t.Errorf("document keys = %v, want %v", got, wantKeys)
						}
					}

					// Exactly one slow-log line, whatever the outcome, carrying
					// the stages that ran.
					logged := strings.Split(strings.TrimSpace(sink.String()), "\n")
					if len(logged) != 1 {
						t.Fatalf("slow log lines = %d, want 1:\n%s", len(logged), sink.String())
					}
					var e obs.SlowEntry
					if err := json.Unmarshal([]byte(logged[0]), &e); err != nil {
						t.Fatal(err)
					}
					if e.Status != wantStatus || e.Endpoint != "POST "+ep.path || e.QueryHash == "" {
						t.Errorf("slow entry = %+v, want status %d on POST %s with a query hash", e, wantStatus, ep.path)
					}
					wantStages := stages
					switch {
					case wantStatus != http.StatusOK && ep.walk:
						wantStages = []string{"rewrite", "scatter"} // died in the scatter: no cursor, no drain
					case oc.o == failBefore:
						wantStages = []string{"parse"}
					}
					for _, name := range wantStages {
						if _, ok := e.StagesMS[name]; !ok {
							t.Errorf("slow entry stages %v lack %q", e.StagesMS, name)
						}
					}
					if len(e.StagesMS) != len(wantStages) {
						t.Errorf("slow entry stages = %v, want exactly %v", e.StagesMS, wantStages)
					}
					if (e.Plan == "") != (oc.o == failBefore && !ep.walk) { // only an unparsed query has no plan
						t.Errorf("slow entry plan = %q", e.Plan)
					}
					if e.Partial != (oc.o == degraded) || (len(e.Missing) == 1) != (oc.o == degraded) {
						t.Errorf("slow entry partial/missing = %v/%v", e.Partial, e.Missing)
					}
				})
			}
		}
	}

	// One more way to fail before the header, which only a walk has: its
	// rewriting is wider than the rewriter enumerates. 65 versions of the
	// players source times 65 of the teams source is 4 225 conjunctive
	// queries. The walk is refused as a semantic failure, every time (a
	// refusal is not memoised), and logged with the one stage that ran.
	t.Run("/api/query/json/rewriting-exceeds-cap", func(t *testing.T) {
		f := usecase.MustNew()
		sys := mdm.FromParts(f.Ont, f.Reg)
		for _, base := range []*wrapper.Mem{f.W1, f.W2} {
			m, ok := f.Ont.MappingOf(base.Name())
			if !ok {
				t.Fatalf("%s mapping missing", base.Name())
			}
			for v := 2; v <= 65; v++ {
				m.Wrapper = fmt.Sprintf("%s_v%d", base.Name(), v)
				w := wrapper.NewMem(m.Wrapper, base.SourceID(), nil, base.Signature().Attributes)
				if _, err := sys.RegisterWrapper(w); err != nil {
					t.Fatal(err)
				}
				if err := f.Ont.DefineMapping(m); err != nil {
					t.Fatal(err)
				}
			}
		}
		srv := rest.NewServer(sys)
		var sink syncBuffer
		srv.SlowLog = obs.NewSlowLogWriter(&sink, 0)
		for attempt := 0; attempt < 2; attempt++ {
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest("POST", "/api/query", strings.NewReader(fig8WalkBody)))
			if rec.Code != http.StatusUnprocessableEntity {
				t.Fatalf("attempt %d: status = %d, want 422 (body %.300s)", attempt, rec.Code, rec.Body)
			}
			body := bytes.TrimRight(rec.Body.Bytes(), "\n")
			if !reflect.DeepEqual(keysOf(t, body), []string{"error"}) ||
				!bytes.Contains(body, []byte("rewriting exceeds 4096 conjunctive queries")) {
				t.Fatalf("attempt %d: error body = %s", attempt, body)
			}
		}
		logged := strings.Split(strings.TrimSpace(sink.String()), "\n")
		if len(logged) != 2 {
			t.Fatalf("slow log lines = %d, want one per attempt:\n%s", len(logged), sink.String())
		}
		for _, line := range logged {
			var e obs.SlowEntry
			if err := json.Unmarshal([]byte(line), &e); err != nil {
				t.Fatal(err)
			}
			if _, ran := e.StagesMS["rewrite"]; e.Status != http.StatusUnprocessableEntity || !ran || len(e.StagesMS) != 1 {
				t.Errorf("slow entry = %+v, want status 422 and the rewrite stage alone", e)
			}
		}
	})
}

// checkExplain pins an explain=1 document: its keys, the report's keys
// and the stage list, all in wire order.
func checkExplain(t *testing.T, raw []byte, walk, degraded bool, stages []string) {
	t.Helper()
	wantDoc, wantReport := []string{"explain"}, []string{"duration_ms", "plan", "attrs", "stages", "operators"}
	if walk {
		wantDoc, wantReport = []string{"explain", "sparql"}, []string{"duration_ms", "plan", "attrs", "stages", "sources"}
	}
	if got := keysOf(t, raw); !reflect.DeepEqual(got, wantDoc) {
		t.Errorf("explain document keys = %v, want %v", got, wantDoc)
	}
	var doc struct {
		Explain json.RawMessage `json:"explain"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if got := keysOf(t, doc.Explain); !reflect.DeepEqual(got, wantReport) {
		t.Errorf("report keys = %v, want %v", got, wantReport)
	}
	var rep obs.Report
	if err := json.Unmarshal(doc.Explain, &rep); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, s := range rep.Stages {
		got = append(got, s.Name)
	}
	if !reflect.DeepEqual(got, stages) {
		t.Errorf("report stages = %v, want %v", got, stages)
	}
	if rep.Attrs["rows"] == "" || (rep.Attrs["cqs"] != "") != walk || (rep.Attrs["partial"] == "true") != degraded {
		t.Errorf("report attrs = %v", rep.Attrs)
	}
}

func mustJSON(s string) string {
	b, err := json.Marshal(s)
	if err != nil {
		panic(err)
	}
	return string(b)
}

// TestRewriteCacheReported: a walk's explain report and slow-log line say
// whether the rewrite cache answered it. The second identical walk is a
// hit; redefining a mapping over REST makes the next one a miss again.
func TestRewriteCacheReported(t *testing.T) {
	f := usecase.MustNew()
	srv := rest.NewServer(mdm.FromParts(f.Ont, f.Reg))
	var sink syncBuffer
	srv.SlowLog = obs.NewSlowLogWriter(&sink, 0)

	post := func(url, body string) []byte {
		t.Helper()
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("POST", url, strings.NewReader(body)))
		if rec.Code/100 != 2 {
			t.Fatalf("POST %s = %d: %s", url, rec.Code, rec.Body)
		}
		return rec.Body.Bytes()
	}
	walk := func(want string) {
		t.Helper()
		var doc struct {
			Explain obs.Report `json:"explain"`
		}
		if err := json.Unmarshal(post("/api/query?explain=1", fig8WalkBody), &doc); err != nil {
			t.Fatal(err)
		}
		logged := strings.Split(strings.TrimSpace(sink.String()), "\n")
		var e obs.SlowEntry
		if err := json.Unmarshal([]byte(logged[len(logged)-1]), &e); err != nil {
			t.Fatalf("slow log %q: %v", sink.String(), err)
		}
		if got := doc.Explain.Attrs["rewrite_cache"]; got != want {
			t.Errorf("explain rewrite_cache = %q, want %q", got, want)
		}
		if got := e.Attrs["rewrite_cache"]; got != want {
			t.Errorf("slow-log rewrite_cache = %q, want %q", got, want)
		}
	}
	walk("miss")
	walk("hit")

	m, ok := f.Ont.MappingOf("w2")
	if !ok {
		t.Fatal("w2 mapping missing")
	}
	req := map[string]any{"wrapper": "w2", "sameAs": map[string]string{}}
	var subgraph [][3]string
	for _, tr := range m.Subgraph {
		subgraph = append(subgraph, [3]string{tr.S.Value, tr.P.Value, tr.O.Value})
	}
	req["subgraph"] = subgraph
	for attr, feat := range m.SameAs {
		req["sameAs"].(map[string]string)[attr] = feat.Value
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	post("/api/mappings", string(body))
	walk("miss")
	walk("hit")
}

// TestCompactResponseBytes: POST /api/admin/compact answers the same
// bytes whether maintenance rewrote the store, sealed a delta or found
// nothing to do — callers (and the benchmark's response CRCs) pin the
// body; which of the three happened is read off /metrics.
func TestCompactResponseBytes(t *testing.T) {
	sys, err := mdm.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	srv := rest.NewServer(sys)
	counter := func(name string) float64 {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
		for _, line := range strings.Split(rec.Body.String(), "\n") {
			if val, ok := strings.CutPrefix(line, name+" "); ok {
				v, err := strconv.ParseFloat(val, 64)
				if err != nil {
					t.Fatalf("%s: %v", line, err)
				}
				return v
			}
		}
		t.Fatalf("/metrics has no %s", name)
		return 0
	}
	concepts := func(from, n int) {
		for i := from; i < from+n; i++ {
			if err := sys.AddConcept("http://ex.org/C"+strconv.Itoa(i), ""); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, step := range []struct {
		name                     string
		write                    func()
		checkpoints, compactions float64
	}{
		{"the whole store is tail: rewritten", func() { concepts(0, 200) }, 0, 1},
		{"small tail: sealed as a delta", func() { concepts(200, 5) }, 1, 0},
		{"empty tail: nothing to do", func() {}, 0, 0},
	} {
		step.write()
		checkpoints, compactions := counter("mdm_tdb_checkpoints_total"), counter("mdm_tdb_compactions_total")
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("POST", "/api/admin/compact", strings.NewReader("{}")))
		if want := "{\"compacted\":true,\"persistent\":true}\n"; rec.Code != 200 || rec.Body.String() != want {
			t.Errorf("%s: status %d, body %q, want 200 %q", step.name, rec.Code, rec.Body.String(), want)
		}
		if got := counter("mdm_tdb_checkpoints_total") - checkpoints; got != step.checkpoints {
			t.Errorf("%s: %v checkpoints, want %v", step.name, got, step.checkpoints)
		}
		if got := counter("mdm_tdb_compactions_total") - compactions; got != step.compactions {
			t.Errorf("%s: %v compactions, want %v", step.name, got, step.compactions)
		}
	}
}
