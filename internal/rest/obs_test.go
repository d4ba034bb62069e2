package rest_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"mdm"
	"mdm/internal/apisim"
	"mdm/internal/obs"
	"mdm/internal/rest"
	"mdm/internal/usecase"
)

// Coverage for the observability surface: the Prometheus endpoint with
// families from every instrumented layer, ?explain=1 reports, and the
// slow-query log (exactly one line per slow query, missing-source
// annotations included).

const conceptFeatureJoin = `PREFIX G: <http://www.essi.upc.edu/~snadal/BDIOntology/Global/>
PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
SELECT ?c ?f WHERE { GRAPH <http://www.essi.upc.edu/~snadal/BDIOntology/Global/graph> {
  ?c rdf:type G:Concept . ?c G:hasFeature ?f
} } ORDER BY ?c ?f`

func TestMetricsEndpoint(t *testing.T) {
	c, provider := setupServer(t)
	stewardSetup(t, c, provider)
	// Exercise the query path so the engine-level families have data.
	c.do("POST", "/api/sparql", map[string]string{"query": conceptFeatureJoin}, 200)

	resp, err := c.http.Get(c.base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("Content-Type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	// One representative family per instrumented layer.
	for _, want := range []string{
		"# TYPE mdm_http_requests_total counter",
		`mdm_http_requests_total{endpoint="POST /api/sparql",class="2xx"}`,
		"# TYPE mdm_http_request_duration_seconds histogram",
		"# TYPE mdm_http_in_flight gauge",
		"mdm_sparql_stage_duration_seconds_count",
		"mdm_federate_source_cache_misses_total",
		"# TYPE mdm_federate_breaker_opened_total counter",
		"# TYPE mdm_federate_breaker_state gauge",
		"# TYPE mdm_tdb_checkpoints_total counter",
		"mdm_slow_queries_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

func TestExplainEndpoint(t *testing.T) {
	c, provider := setupServer(t)
	stewardSetup(t, c, provider)
	res := c.do("POST", "/api/sparql?explain=1", map[string]string{"query": conceptFeatureJoin}, 200)
	exp, ok := res["explain"].(map[string]any)
	if !ok {
		t.Fatalf("no explain report in %v", res)
	}
	stages, _ := exp["stages"].([]any)
	seen := map[string]bool{}
	for _, s := range stages {
		seen[s.(map[string]any)["name"].(string)] = true
	}
	for _, want := range []string{"parse", "plan", "execute"} {
		if !seen[want] {
			t.Errorf("explain stages missing %q: %v", want, stages)
		}
	}
	ops, _ := exp["operators"].([]any)
	if len(ops) == 0 {
		t.Fatalf("explain has no operator spans: %v", exp)
	}
	for _, o := range ops {
		op := o.(map[string]any)
		if op["op"] == "" {
			t.Errorf("operator span without name: %v", op)
		}
	}
	if exp["plan"] == "" || exp["plan"] == nil {
		t.Errorf("explain has no plan summary: %v", exp)
	}
	// The report replaces rows entirely.
	if _, hasRows := res["rows"]; hasRows {
		t.Error("explain response must not carry rows")
	}
}

// syncBuffer guards the slow-log sink: the handler goroutine writes it
// while the test goroutine reads.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func TestSlowQueryLogOneLinePerQuery(t *testing.T) {
	provider := apisim.NewFootball()
	t.Cleanup(provider.Close)
	sys := mdm.New()
	srv := rest.NewServer(sys)
	var sink syncBuffer
	srv.SlowLog = obs.NewSlowLogWriter(&sink, 0) // threshold 0: log everything
	hs := httptest.NewServer(srv)
	t.Cleanup(hs.Close)
	c := &client{t: t, base: hs.URL, http: hs.Client()}
	stewardSetup(t, c, provider)
	sink.mu.Lock()
	sink.buf.Reset() // discard setup traffic; only the query below counts
	sink.mu.Unlock()

	c.do("POST", "/api/sparql", map[string]string{"query": conceptFeatureJoin}, 200)

	lines := strings.Split(strings.TrimSpace(sink.String()), "\n")
	if len(lines) != 1 {
		t.Fatalf("slow log lines = %d, want exactly 1:\n%s", len(lines), sink.String())
	}
	var e obs.SlowEntry
	if err := json.Unmarshal([]byte(lines[0]), &e); err != nil {
		t.Fatalf("slow log line is not JSON: %v\n%s", err, lines[0])
	}
	if e.Endpoint != "POST /api/sparql" {
		t.Errorf("endpoint = %q", e.Endpoint)
	}
	if e.QueryHash != obs.QueryHash(conceptFeatureJoin) {
		t.Errorf("query_hash = %q, want hash of the query text", e.QueryHash)
	}
	if e.Status != 200 || e.Rows == 0 {
		t.Errorf("status/rows = %d/%d", e.Status, e.Rows)
	}
	if _, ok := e.StagesMS["execute"]; !ok {
		t.Errorf("stages_ms missing execute: %v", e.StagesMS)
	}
	if e.Plan == "" {
		t.Errorf("slow entry has no plan summary")
	}
}

func TestSlowLogWalkCarriesMissingSources(t *testing.T) {
	sys := unavailableWalkSystem(t)
	srv := rest.NewServer(sys)
	var sink syncBuffer
	srv.SlowLog = obs.NewSlowLogWriter(&sink, 0)

	req := httptest.NewRequest("POST", "/api/query?partial=1", strings.NewReader(fig8WalkBody))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d (body %s)", rec.Code, rec.Body)
	}

	lines := strings.Split(strings.TrimSpace(sink.String()), "\n")
	if len(lines) != 1 {
		t.Fatalf("slow log lines = %d, want 1:\n%s", len(lines), sink.String())
	}
	var e obs.SlowEntry
	if err := json.Unmarshal([]byte(lines[0]), &e); err != nil {
		t.Fatal(err)
	}
	if !e.Partial {
		t.Error("entry not marked partial")
	}
	if len(e.Missing) != 1 || e.Missing[0].Source != "wdown" || e.Missing[0].Class != "http_5xx" {
		t.Errorf("missing = %+v, want wdown/http_5xx", e.Missing)
	}
	if _, ok := e.StagesMS["scatter"]; !ok {
		t.Errorf("stages_ms missing scatter: %v", e.StagesMS)
	}
}

// TestSlowLogRecordsFailedWalk: a walk that dies in the scatter — a
// failed source, an open breaker, the source timeout — never gets a
// cursor, and must still reach the slow-query log with its status, the
// stages that ran and the plan. (It used to be dropped: the log entry
// was registered only after the scatter had succeeded.)
func TestSlowLogRecordsFailedWalk(t *testing.T) {
	for _, tc := range []struct {
		name   string
		sys    func(*testing.T) *mdm.System
		status int
	}{
		{"source down", downWalkSystem, http.StatusUnprocessableEntity},
		{"breaker open", func(t *testing.T) *mdm.System {
			sys := unavailableWalkSystem(t)
			for i := 0; i < 2; i++ { // two ladders trip the breaker
				if _, _, err := sys.Query(context.Background(), usecase.Fig8Walk()); err == nil {
					t.Fatal("tripping query succeeded")
				}
			}
			return sys
		}, http.StatusServiceUnavailable},
		{"source timeout", func(t *testing.T) *mdm.System {
			sys := slowWalkSystem(t)
			sys.Federation().SourceTimeout = 20 * time.Millisecond
			return sys
		}, http.StatusGatewayTimeout},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := rest.NewServer(tc.sys(t))
			var sink syncBuffer
			srv.SlowLog = obs.NewSlowLogWriter(&sink, 0)
			req := httptest.NewRequest("POST", "/api/query", strings.NewReader(fig8WalkBody))
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, req)
			if rec.Code != tc.status {
				t.Fatalf("status = %d, want %d (body %s)", rec.Code, tc.status, rec.Body)
			}
			lines := strings.Split(strings.TrimSpace(sink.String()), "\n")
			if len(lines) != 1 || lines[0] == "" {
				t.Fatalf("slow log lines = %q, want exactly 1", sink.String())
			}
			var e obs.SlowEntry
			if err := json.Unmarshal([]byte(lines[0]), &e); err != nil {
				t.Fatal(err)
			}
			if e.Status != tc.status || e.Endpoint != "POST /api/query" || e.QueryHash == "" || e.Plan == "" {
				t.Errorf("entry = %+v, want status %d with endpoint, query hash and plan", e, tc.status)
			}
			for _, stage := range []string{"rewrite", "scatter"} {
				if _, ok := e.StagesMS[stage]; !ok {
					t.Errorf("stages_ms %v lack %q", e.StagesMS, stage)
				}
			}
		})
	}
}

func TestWalkExplainReport(t *testing.T) {
	sys := downWalkSystem(t)
	srv := rest.NewServer(sys)
	req := httptest.NewRequest("POST", "/api/query?partial=1&explain=1", strings.NewReader(fig8WalkBody))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d (body %s)", rec.Code, rec.Body)
	}
	var resp struct {
		Explain struct {
			Stages []struct {
				Name string `json:"name"`
			} `json:"stages"`
			Sources []struct {
				Source  string `json:"source"`
				Outcome string `json:"outcome"`
			} `json:"sources"`
			Attrs map[string]string `json:"attrs"`
		} `json:"explain"`
		SPARQL string `json:"sparql"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, s := range resp.Explain.Stages {
		seen[s.Name] = true
	}
	for _, want := range []string{"rewrite", "scatter", "drain"} {
		if !seen[want] {
			t.Errorf("walk explain stages missing %q: %+v", want, resp.Explain.Stages)
		}
	}
	found := false
	for _, s := range resp.Explain.Sources {
		if s.Source == "wdown" && strings.HasPrefix(s.Outcome, "missing:") {
			found = true
		}
	}
	if !found {
		t.Errorf("walk explain sources lack the failed fetch: %+v", resp.Explain.Sources)
	}
	if resp.Explain.Attrs["partial"] != "true" {
		t.Errorf("attrs = %v, want partial=true", resp.Explain.Attrs)
	}
	if resp.SPARQL == "" {
		t.Error("walk explain response lacks the SPARQL rendering")
	}
}
