package rest_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"mdm"
	"mdm/internal/apisim"
	"mdm/internal/relalg"
	"mdm/internal/rest"
	"mdm/internal/schema"
	"mdm/internal/store"
	"mdm/internal/usecase"
	"mdm/internal/wrapper"
)

// client is a tiny JSON test client.
type client struct {
	t    *testing.T
	base string
	http *http.Client
}

func (c *client) do(method, path string, body any, wantStatus int) map[string]any {
	c.t.Helper()
	var rdr *bytes.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			c.t.Fatal(err)
		}
		rdr = bytes.NewReader(b)
	} else {
		rdr = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, c.base+path, rdr)
	if err != nil {
		c.t.Fatal(err)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	dec := json.NewDecoder(resp.Body)
	_ = dec.Decode(&out)
	if resp.StatusCode != wantStatus {
		c.t.Fatalf("%s %s: status %d, want %d (body %v)", method, path, resp.StatusCode, wantStatus, out)
	}
	return out
}

func (c *client) doList(method, path string, wantStatus int) []any {
	c.t.Helper()
	resp, err := c.http.Get(c.base + path)
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		c.t.Fatalf("%s %s: status %d, want %d", method, path, resp.StatusCode, wantStatus)
	}
	var out []any
	_ = json.NewDecoder(resp.Body).Decode(&out)
	return out
}

// setupServer boots the full stack: simulated provider + MDM REST API.
func setupServer(t *testing.T) (*client, *apisim.Football) {
	t.Helper()
	provider := apisim.NewFootball()
	t.Cleanup(provider.Close)
	sys := mdm.New()
	srv := httptest.NewServer(rest.NewServer(sys))
	t.Cleanup(srv.Close)
	return &client{t: t, base: srv.URL, http: srv.Client()}, provider
}

// stewardSetup drives the full "System setup" demo scenario over HTTP.
func stewardSetup(t *testing.T, c *client, provider *apisim.Football) {
	t.Helper()
	c.do("POST", "/api/prefixes", map[string]string{"prefix": "ex", "namespace": "http://ex.org/"}, 201)
	c.do("POST", "/api/prefixes", map[string]string{"prefix": "sc", "namespace": "http://schema.org/"}, 201)

	for _, req := range []map[string]string{
		{"iri": "ex:Player", "label": "Player"},
		{"iri": "sc:SportsTeam", "label": "SportsTeam"},
	} {
		c.do("POST", "/api/global/concepts", req, 201)
	}
	features := map[string]string{
		"ex:playerId": "ex:Player", "ex:playerName": "ex:Player",
		"ex:height": "ex:Player", "ex:teamId": "sc:SportsTeam",
		"ex:teamName": "sc:SportsTeam",
	}
	for f, concept := range features {
		c.do("POST", "/api/global/features", map[string]string{"iri": f, "label": f}, 201)
		c.do("POST", "/api/global/attach", map[string]string{"concept": concept, "feature": f}, 201)
	}
	c.do("POST", "/api/global/identifiers", map[string]string{"feature": "ex:playerId"}, 201)
	c.do("POST", "/api/global/identifiers", map[string]string{"feature": "ex:teamId"}, 201)
	c.do("POST", "/api/global/relations",
		map[string]string{"from": "ex:Player", "property": "ex:playsIn", "to": "sc:SportsTeam"}, 201)

	c.do("POST", "/api/sources", map[string]string{"id": "players-api", "label": "Players API"}, 201)
	c.do("POST", "/api/sources", map[string]string{"id": "teams-api", "label": "Teams API"}, 201)

	c.do("POST", "/api/wrappers", map[string]any{
		"name": "w1", "source": "players-api", "url": provider.URL() + "/v1/players",
		"renames": map[string]string{"name": "pName", "preferred_foot": "foot", "team_id": "teamId", "rating": "score"},
	}, 201)
	c.do("POST", "/api/wrappers", map[string]any{
		"name": "w2", "source": "teams-api", "url": provider.URL() + "/v1/teams",
	}, 201)

	c.do("POST", "/api/mappings", map[string]any{
		"wrapper": "w1",
		"subgraph": [][3]string{
			{"ex:Player", "rdf:type", "G:Concept"},
			{"ex:Player", "G:hasFeature", "ex:playerId"},
			{"ex:Player", "G:hasFeature", "ex:playerName"},
			{"ex:Player", "G:hasFeature", "ex:height"},
			{"ex:Player", "ex:playsIn", "sc:SportsTeam"},
			{"sc:SportsTeam", "rdf:type", "G:Concept"},
			{"sc:SportsTeam", "G:hasFeature", "ex:teamId"},
		},
		"sameAs": map[string]string{
			"id": "ex:playerId", "pName": "ex:playerName",
			"height": "ex:height", "teamId": "ex:teamId",
		},
	}, 201)
	c.do("POST", "/api/mappings", map[string]any{
		"wrapper": "w2",
		"subgraph": [][3]string{
			{"sc:SportsTeam", "rdf:type", "G:Concept"},
			{"sc:SportsTeam", "G:hasFeature", "ex:teamId"},
			{"sc:SportsTeam", "G:hasFeature", "ex:teamName"},
		},
		"sameAs": map[string]string{"id": "ex:teamId", "name": "ex:teamName"},
	}, 201)
}

func TestEndToEndSetupAndQuery(t *testing.T) {
	c, provider := setupServer(t)
	stewardSetup(t, c, provider)

	// Validation must pass.
	v := c.do("GET", "/api/validate", nil, 200)
	if v["consistent"] != true {
		t.Fatalf("validate = %v", v)
	}

	// Stats reflect the setup.
	st := c.do("GET", "/api/stats", nil, 200)
	if st["Concepts"].(float64) != 2 || st["Wrappers"].(float64) != 2 || st["Mappings"].(float64) != 2 {
		t.Fatalf("stats = %v", st)
	}

	// Figure 8 query over HTTP.
	q := c.do("POST", "/api/query", map[string]any{
		"select": []map[string]string{
			{"concept": "sc:SportsTeam", "feature": "ex:teamName", "alias": "teamName"},
			{"concept": "ex:Player", "feature": "ex:playerName", "alias": "playerName"},
		},
		"relations": [][3]string{{"ex:Player", "ex:playsIn", "sc:SportsTeam"}},
	}, 200)
	if q["cqs"].(float64) != 1 {
		t.Fatalf("cqs = %v", q["cqs"])
	}
	rows := q["rows"].([]any)
	if len(rows) != 5 {
		t.Fatalf("rows = %d: %v", len(rows), rows)
	}
	var sawMessi bool
	for _, r := range rows {
		cells := r.([]any)
		if cells[1] == "Lionel Messi" && cells[0] == "FC Barcelona" {
			sawMessi = true
		}
	}
	if !sawMessi {
		t.Errorf("Table 1 row missing: %v", rows)
	}
	if !strings.Contains(q["sparql"].(string), "SELECT") {
		t.Errorf("sparql = %v", q["sparql"])
	}
	alg := q["algebra"].([]any)
	if len(alg) != 1 || !strings.Contains(alg[0].(string), "⋈") {
		t.Errorf("algebra = %v", alg)
	}

	// Renders.
	g := c.do("GET", "/api/render/global", nil, 200)
	if !strings.Contains(g["text"].(string), "concept ex:Player") {
		t.Errorf("render global = %v", g["text"])
	}
	// Wrapper listing.
	ws := c.doList("GET", "/api/wrappers", 200)
	if len(ws) != 2 {
		t.Errorf("wrappers = %v", ws)
	}
	// Releases: two new-source releases.
	rels := c.doList("GET", "/api/releases", 200)
	if len(rels) != 2 {
		t.Errorf("releases = %v", rels)
	}
}

func TestEvolutionScenarioOverHTTP(t *testing.T) {
	c, provider := setupServer(t)
	stewardSetup(t, c, provider)

	// Drift: none initially.
	d := c.do("GET", "/api/drift/w1", nil, 200)
	if d["breaking"] != false {
		t.Fatalf("unexpected drift: %v", d)
	}

	// Provider breaks the unversioned endpoint... but w1 points to
	// /v1/players, so we register the v2 wrapper as a new release.
	c.do("POST", "/api/wrappers", map[string]any{
		"name": "w1v2", "source": "players-api", "url": provider.URL() + "/v2/players",
		"renames": map[string]string{"full_name": "pName", "preferred_foot": "foot", "team_id": "teamId"},
	}, 201)

	// The release log marks it breaking vs w1.
	rels := c.doList("GET", "/api/releases", 200)
	last := rels[len(rels)-1].(map[string]any)
	if last["kind"] != "new-version" || last["breaking"] != true || last["supersedes"] != "w1" {
		t.Fatalf("v2 release = %v", last)
	}

	// Suggested mapping from w1.
	sm := c.do("GET", "/api/mappings/w1v2/suggest?from=w1", nil, 200)
	mp := sm["mapping"].(map[string]any)
	sameAs := mp["sameAs"].(map[string]any)
	if sameAs["pName"] != "ex:playerName" {
		t.Fatalf("suggested sameAs = %v", sameAs)
	}

	// Define the suggested mapping verbatim.
	var subgraph [][3]string
	for _, tr := range mp["subgraph"].([]any) {
		arr := tr.([]any)
		subgraph = append(subgraph, [3]string{arr[0].(string), arr[1].(string), arr[2].(string)})
	}
	sa := map[string]string{}
	for k, v := range sameAs {
		sa[k] = v.(string)
	}
	c.do("POST", "/api/mappings", map[string]any{
		"wrapper": "w1v2", "subgraph": subgraph, "sameAs": sa,
	}, 201)

	// The same query now unions both versions: Pedri (v2-only) appears.
	q := c.do("POST", "/api/query", map[string]any{
		"select": []map[string]string{
			{"concept": "sc:SportsTeam", "feature": "ex:teamName"},
			{"concept": "ex:Player", "feature": "ex:playerName"},
		},
		"relations": [][3]string{{"ex:Player", "ex:playsIn", "sc:SportsTeam"}},
	}, 200)
	if q["cqs"].(float64) != 2 {
		t.Fatalf("cqs after evolution = %v", q["cqs"])
	}
	var sawPedri, sawZlatan bool
	for _, r := range q["rows"].([]any) {
		cells := r.([]any)
		for _, cell := range cells {
			if cell == "Pedri" {
				sawPedri = true
			}
			if cell == "Zlatan Ibrahimovic" {
				sawZlatan = true
			}
		}
	}
	if !sawPedri || !sawZlatan {
		t.Errorf("union incomplete: pedri=%v zlatan=%v rows=%v", sawPedri, sawZlatan, q["rows"])
	}
}

func TestDriftDetectionOverHTTP(t *testing.T) {
	c, provider := setupServer(t)
	c.do("POST", "/api/sources", map[string]string{"id": "players-api", "label": ""}, 201)
	// Wrapper on the UNVERSIONED endpoint.
	c.do("POST", "/api/wrappers", map[string]any{
		"name": "wu", "source": "players-api", "url": provider.URL() + "/players",
	}, 201)
	provider.BreakPlayersEndpoint()
	d := c.do("GET", "/api/drift/wu", nil, 200)
	if d["breaking"] != true {
		t.Fatalf("in-place break not detected: %v", d)
	}
	drift := d["drift"].([]any)
	if len(drift) == 0 {
		t.Fatal("empty drift list")
	}
}

func TestSPARQLEndpoint(t *testing.T) {
	c, provider := setupServer(t)
	stewardSetup(t, c, provider)
	res := c.do("POST", "/api/sparql", map[string]string{
		"query": `PREFIX G: <http://www.essi.upc.edu/~snadal/BDIOntology/Global/>
PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
SELECT ?c WHERE { GRAPH <http://www.essi.upc.edu/~snadal/BDIOntology/Global/graph> { ?c rdf:type G:Concept . } } ORDER BY ?c`,
	}, 200)
	rows := res["rows"].([]any)
	if len(rows) != 2 {
		t.Fatalf("sparql rows = %v", rows)
	}
	ask := c.do("POST", "/api/sparql", map[string]string{
		"query": `ASK { ?s ?p ?o . }`,
	}, 200)
	// The default graph is empty (everything lives in named graphs).
	if ask["ask"] != false {
		t.Errorf("ask = %v", ask)
	}
}

func TestErrorPaths(t *testing.T) {
	sys := mdm.New()
	hs := httptest.NewServer(rest.NewServer(sys))
	t.Cleanup(hs.Close)
	c := &client{t: t, base: hs.URL, http: hs.Client()}
	// Bad JSON.
	req, _ := http.NewRequest("POST", c.base+"/api/sources", strings.NewReader("{nope"))
	resp, err := c.http.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Errorf("bad JSON status = %d", resp.StatusCode)
	}
	// Unknown fields rejected.
	c.do("POST", "/api/sources", map[string]any{"id": "x", "label": "y", "bogus": 1}, 400)
	// Wrapper registration requires fields.
	c.do("POST", "/api/wrappers", map[string]any{"name": "w"}, 400)
	// Wrapper against dead endpoint -> 502.
	c.do("POST", "/api/sources", map[string]string{"id": "s1", "label": ""}, 201)
	c.do("POST", "/api/wrappers", map[string]any{
		"name": "w", "source": "s1", "url": "http://127.0.0.1:1/nope",
	}, 502)
	// Query on empty system -> 422.
	c.do("POST", "/api/query", map[string]any{
		"select": []map[string]string{{"concept": "ex:Ghost", "feature": "ex:f"}},
	}, 422)
	// Drift for unknown wrapper -> 404.
	c.do("GET", "/api/drift/ghost", nil, 404)
	// Drift for a registered wrapper whose source has gone away -> 502:
	// the wrapper exists, its probe failed.
	gone := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprint(w, `[{"id":1}]`)
	}))
	c.do("POST", "/api/wrappers", map[string]any{"name": "wgone", "source": "s1", "url": gone.URL}, 201)
	gone.Close()
	if d := c.do("GET", "/api/drift/wgone", nil, 502); !strings.Contains(fmt.Sprint(d["error"]), "probe wgone") {
		t.Errorf("drift probe failure = %v", d)
	}
	// A saved walk whose stored body is not a string (meta/walks.json
	// edited by hand) -> 500, not a handler panic.
	if _, err := sys.Metadata().Insert("walks", store.Doc{"name": "torn", "walk": 42}); err != nil {
		t.Fatal(err)
	}
	if d := c.do("POST", "/api/walks/torn/run", nil, 500); !strings.Contains(fmt.Sprint(d["error"]), "corrupt saved walk") {
		t.Errorf("torn saved walk = %v", d)
	}
	// Suggest without 'from' -> 400.
	c.do("GET", "/api/mappings/w1/suggest", nil, 400)
	// Bad SPARQL -> 422.
	c.do("POST", "/api/sparql", map[string]string{"query": "garbage"}, 422)
	// Mapping for unknown wrapper -> 422.
	c.do("POST", "/api/mappings", map[string]any{
		"wrapper": "ghost", "subgraph": [][3]string{}, "sameAs": map[string]string{},
	}, 422)
}

// TestPrefixLabelMustReadBack: POST /api/prefixes refuses a label that
// would not read back as a prefix name with 400, and the export still
// reads back afterwards.
func TestPrefixLabelMustReadBack(t *testing.T) {
	c, provider := setupServer(t)
	stewardSetup(t, c, provider)
	for _, label := range []string{"a b", "1x", "a:b", "_"} {
		c.do("POST", "/api/prefixes", map[string]string{"prefix": label, "namespace": "http://ex.org/"}, 400)
	}
	resp, err := c.http.Get(c.base + "/api/export")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	if _, err := mdm.ImportTriG(buf.String()); err != nil {
		t.Fatalf("export after a refused label does not read back: %v", err)
	}
}

func TestExportEndpoint(t *testing.T) {
	c, provider := setupServer(t)
	stewardSetup(t, c, provider)
	resp, err := c.http.Get(c.base + "/api/export")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	body := buf.String()
	if !strings.Contains(body, "@prefix") || !strings.Contains(body, "Concept") {
		t.Errorf("export = %.200s", body)
	}
	// Round trip through mdm.ImportTriG.
	sys2, err := mdm.ImportTriG(body)
	if err != nil {
		t.Fatalf("reimport: %v", err)
	}
	if sys2.Stats().Concepts != 2 {
		t.Errorf("reimported stats = %+v", sys2.Stats())
	}
}

func TestQueryMethodNotAllowed(t *testing.T) {
	c, _ := setupServer(t)
	resp, err := c.http.Get(c.base + "/api/query")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /api/query = %d", resp.StatusCode)
	}
}

func ExampleServer() {
	sys := mdm.New()
	srv := httptest.NewServer(rest.NewServer(sys))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/api/stats")
	if err != nil {
		fmt.Println(err)
		return
	}
	defer resp.Body.Close()
	fmt.Println(resp.StatusCode)
	// Output: 200
}

func TestQuerySPARQLEndpoint(t *testing.T) {
	c, provider := setupServer(t)
	stewardSetup(t, c, provider)
	q := c.do("POST", "/api/query/sparql", map[string]string{
		"query": `PREFIX ex: <http://ex.org/>
PREFIX sc: <http://schema.org/>
PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
SELECT ?teamName ?playerName WHERE {
  ?t rdf:type sc:SportsTeam .
  ?t ex:teamName ?teamName .
  ?p rdf:type ex:Player .
  ?p ex:playerName ?playerName .
  ?p ex:playsIn ?t .
}`,
	}, 200)
	rows := q["rows"].([]any)
	if len(rows) != 5 {
		t.Fatalf("sparql walk rows = %d", len(rows))
	}
	cols := q["columns"].([]any)
	if cols[0] != "teamName" || cols[1] != "playerName" {
		t.Errorf("columns = %v", cols)
	}
	// Unsupported fragment -> 422.
	c.do("POST", "/api/query/sparql", map[string]string{
		"query": `SELECT DISTINCT ?x WHERE { ?x ?p ?o . }`,
	}, 422)
}

func TestSavedWalksSurviveEvolution(t *testing.T) {
	c, provider := setupServer(t)
	stewardSetup(t, c, provider)

	// Save the analytical process once.
	c.do("POST", "/api/walks", map[string]any{
		"name": "players-and-teams",
		"select": []map[string]string{
			{"concept": "sc:SportsTeam", "feature": "ex:teamName", "alias": "teamName"},
			{"concept": "ex:Player", "feature": "ex:playerName", "alias": "playerName"},
		},
		"relations": [][3]string{{"ex:Player", "ex:playsIn", "sc:SportsTeam"}},
	}, 201)

	ls := c.do("GET", "/api/walks", nil, 200)
	walks := ls["walks"].([]any)
	if len(walks) != 1 || walks[0] != "players-and-teams" {
		t.Fatalf("walks = %v", walks)
	}

	// First run: one CQ, 5 rows.
	r1 := c.do("POST", "/api/walks/players-and-teams/run", nil, 200)
	if r1["cqs"].(float64) != 1 || len(r1["rows"].([]any)) != 5 {
		t.Fatalf("run1 = %v", r1)
	}

	// Evolution: register v2 wrapper + mapping (same steps as the
	// evolution test).
	c.do("POST", "/api/wrappers", map[string]any{
		"name": "w1v2", "source": "players-api", "url": provider.URL() + "/v2/players",
		"renames": map[string]string{"full_name": "pName", "preferred_foot": "foot", "team_id": "teamId"},
	}, 201)
	sm := c.do("GET", "/api/mappings/w1v2/suggest?from=w1", nil, 200)
	mp := sm["mapping"].(map[string]any)
	var subgraph [][3]string
	for _, tr := range mp["subgraph"].([]any) {
		arr := tr.([]any)
		subgraph = append(subgraph, [3]string{arr[0].(string), arr[1].(string), arr[2].(string)})
	}
	sa := map[string]string{}
	for k, v := range mp["sameAs"].(map[string]any) {
		sa[k] = v.(string)
	}
	c.do("POST", "/api/mappings", map[string]any{"wrapper": "w1v2", "subgraph": subgraph, "sameAs": sa}, 201)

	// Same saved walk, zero changes: now two CQs and v2-only rows.
	r2 := c.do("POST", "/api/walks/players-and-teams/run", nil, 200)
	if r2["cqs"].(float64) != 2 {
		t.Fatalf("run2 cqs = %v", r2["cqs"])
	}
	var sawPedri bool
	for _, r := range r2["rows"].([]any) {
		for _, cell := range r.([]any) {
			if cell == "Pedri" {
				sawPedri = true
			}
		}
	}
	if !sawPedri {
		t.Errorf("saved walk did not pick up the new version: %v", r2["rows"])
	}

	// Overwrite and error paths.
	c.do("POST", "/api/walks", map[string]any{
		"name": "players-and-teams",
		"select": []map[string]string{
			{"concept": "ex:Player", "feature": "ex:playerName"},
		},
	}, 201)
	if got := c.do("GET", "/api/walks", nil, 200)["walks"].([]any); len(got) != 1 {
		t.Errorf("overwrite duplicated the walk: %v", got)
	}
	c.do("POST", "/api/walks", map[string]any{"name": ""}, 400)
	c.do("POST", "/api/walks", map[string]any{
		"name":   "broken",
		"select": []map[string]string{{"concept": "ex:Ghost", "feature": "ex:f"}},
	}, 422)
	c.do("POST", "/api/walks/ghost/run", nil, 404)
}

// TestSPARQLUnboundRendering is a golden test for how the REST SPARQL
// endpoint renders unbound (OPTIONAL-miss) variables: as empty string
// cells, byte-identical to this fixture, never as the zero rdf.Term's
// rendering.
func TestSPARQLUnboundRendering(t *testing.T) {
	c, provider := setupServer(t)
	stewardSetup(t, c, provider)
	req, err := json.Marshal(map[string]string{
		"query": `PREFIX G: <http://www.essi.upc.edu/~snadal/BDIOntology/Global/>
PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
SELECT ?c ?ghost WHERE {
  GRAPH <http://www.essi.upc.edu/~snadal/BDIOntology/Global/graph> {
    ?c rdf:type G:Concept .
    OPTIONAL { ?c G:noSuchProperty ?ghost . }
  }
} ORDER BY ?c`,
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.http.Post(c.base+"/api/sparql", "application/json", bytes.NewReader(req))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body bytes.Buffer
	if _, err := body.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	golden := `{"rows":[["http://ex.org/Player",""],["http://schema.org/SportsTeam",""]],"vars":["c","ghost"]}` + "\n"
	if got := body.String(); got != golden {
		t.Errorf("unbound rendering drifted:\n got: %s\nwant: %s", got, golden)
	}
}

// TestSPARQLNDJSONGolden pins the streaming wire format: a header line
// with the projection, then one JSON array of cells per solution row.
func TestSPARQLNDJSONGolden(t *testing.T) {
	c, provider := setupServer(t)
	stewardSetup(t, c, provider)
	req, err := json.Marshal(map[string]string{
		"query": `PREFIX G: <http://www.essi.upc.edu/~snadal/BDIOntology/Global/>
PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
SELECT ?c WHERE { GRAPH <http://www.essi.upc.edu/~snadal/BDIOntology/Global/graph> { ?c rdf:type G:Concept . } } ORDER BY ?c`,
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.http.Post(c.base+"/api/sparql?format=ndjson", "application/json", bytes.NewReader(req))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type = %q", ct)
	}
	var body bytes.Buffer
	if _, err := body.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	golden := `{"vars":["c"]}` + "\n" +
		`["http://ex.org/Player"]` + "\n" +
		`["http://schema.org/SportsTeam"]` + "\n"
	if got := body.String(); got != golden {
		t.Errorf("NDJSON drifted:\n got: %q\nwant: %q", got, golden)
	}

	// ASK over NDJSON is a single line.
	req, _ = json.Marshal(map[string]string{"query": `ASK { ?s ?p ?o . }`})
	resp, err = c.http.Post(c.base+"/api/sparql?format=ndjson", "application/json", bytes.NewReader(req))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body.Reset()
	if _, err := body.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if got := body.String(); got != `{"ask":false}`+"\n" {
		t.Errorf("NDJSON ask = %q", got)
	}
}

// TestWireFormatGolden pins the row encoding of both engines in both
// formats on the cells a hand-written encoder could get wrong: a string
// holding every class of escaped byte, and float, int, bool and NULL
// walk cells.
func TestWireFormatGolden(t *testing.T) {
	const odd = "a<b>&\"c\\d\u2028\n\xff"
	const oddJSON = `"a\u003cb\u003e\u0026\"c\\d\u2028\n\ufffd"`

	f := usecase.MustNew()
	f.W1.SetDocs([]schema.Doc{
		{"id": relalg.Int(1), "pName": relalg.String(odd), "height": relalg.Float(170.18),
			"weight": relalg.Int(-3), "foot": relalg.Bool(true), "teamId": relalg.Int(25)}, // no score: NULL
		{"id": relalg.Int(2), "pName": relalg.String(""), "height": relalg.Float(1e21),
			"weight": relalg.Int(0), "foot": relalg.Bool(false), "teamId": relalg.Int(25), "score": relalg.Int(94)},
	})
	sys := mdm.FromParts(f.Ont, f.Reg)
	if err := sys.AddConcept(usecase.EX+"Odd", odd); err != nil {
		t.Fatal(err)
	}
	srv := rest.NewServer(sys)
	post := func(path, body string) string {
		t.Helper()
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("POST", path, strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", path, rec.Code, rec.Body)
		}
		return rec.Body.String()
	}

	var sel []string
	for _, feat := range []string{"playerName", "height", "weight", "foot", "rating"} {
		sel = append(sel, `{"concept":"`+usecase.EX+`Player","feature":"`+usecase.EX+feat+`","alias":"`+feat+`"}`)
	}
	walk := `{"select":[` + strings.Join(sel, ",") + `]}`
	walkRows := []string{`[` + oddJSON + `,"170.18","-3","true",""]`, `["","1e+21","0","false","94"]`}
	var doc struct {
		Rows json.RawMessage `json:"rows"`
	}
	if err := json.Unmarshal([]byte(post("/api/query", walk)), &doc); err != nil {
		t.Fatal(err)
	}
	if want := `[` + strings.Join(walkRows, ",") + `]`; string(doc.Rows) != want {
		t.Errorf("walk JSON rows drifted:\n got: %s\nwant: %s", doc.Rows, want)
	}
	lines := strings.SplitAfterN(post("/api/query?format=ndjson", walk), "\n", 2)
	if want := strings.Join(walkRows, "\n") + "\n"; len(lines) != 2 || lines[1] != want {
		t.Errorf("walk NDJSON rows drifted:\n got: %q\nwant: %q", lines[1:], want)
	}

	query := mustJSON(`SELECT ?l WHERE { GRAPH <http://www.essi.upc.edu/~snadal/BDIOntology/Global/graph> { <` +
		usecase.EX + `Odd> <http://www.w3.org/2000/01/rdf-schema#label> ?l . } }`)
	if got, want := post("/api/sparql", `{"query":`+query+`}`), `{"rows":[[`+oddJSON+`]],"vars":["l"]}`+"\n"; got != want {
		t.Errorf("SPARQL JSON drifted:\n got: %s\nwant: %s", got, want)
	}
	if got, want := post("/api/sparql?format=ndjson", `{"query":`+query+`}`), `{"vars":["l"]}`+"\n["+oddJSON+"]\n"; got != want {
		t.Errorf("SPARQL NDJSON drifted:\n got: %q\nwant: %q", got, want)
	}
}

// TestSPARQLPagingParams: limit/offset URL parameters page the result
// (pushed into evaluation) and pages partition it.
func TestSPARQLPagingParams(t *testing.T) {
	c, provider := setupServer(t)
	stewardSetup(t, c, provider)
	q := map[string]string{
		"query": `PREFIX G: <http://www.essi.upc.edu/~snadal/BDIOntology/Global/>
SELECT ?c ?f WHERE { GRAPH <http://www.essi.upc.edu/~snadal/BDIOntology/Global/graph> { ?c G:hasFeature ?f . } }`,
	}
	full := c.do("POST", "/api/sparql", q, 200)
	all := full["rows"].([]any)
	if len(all) != 5 {
		t.Fatalf("full rows = %d", len(all))
	}
	var paged []any
	for off := 0; off < 7; off += 2 {
		page := c.do("POST", fmt.Sprintf("/api/sparql?limit=2&offset=%d", off), q, 200)
		rows, _ := page["rows"].([]any)
		paged = append(paged, rows...)
	}
	if len(paged) != 5 {
		t.Fatalf("concatenated pages = %d rows", len(paged))
	}
	for i := range all {
		if fmt.Sprint(paged[i]) != fmt.Sprint(all[i]) {
			t.Fatalf("page row %d = %v, want %v", i, paged[i], all[i])
		}
	}
	// Bad paging parameters are rejected.
	c.do("POST", "/api/sparql?limit=-3", q, 400)
	c.do("POST", "/api/sparql?offset=x", q, 400)
}

// TestSPARQLPagingOffsetOverflow: an offset near MaxInt64 must produce
// an empty page, not an integer-overflowed top-k capacity. Regression
// for the limit+offset overflow in the bounded paging path.
func TestSPARQLPagingOffsetOverflow(t *testing.T) {
	c, provider := setupServer(t)
	stewardSetup(t, c, provider)
	q := map[string]string{
		"query": `PREFIX G: <http://www.essi.upc.edu/~snadal/BDIOntology/Global/>
SELECT ?c ?f WHERE { GRAPH <http://www.essi.upc.edu/~snadal/BDIOntology/Global/graph> { ?c G:hasFeature ?f . } }`,
	}
	for _, off := range []string{"9223372036854775807", "9223372036854775806"} {
		page := c.do("POST", "/api/sparql?limit=1&offset="+off, q, 200)
		if rows, _ := page["rows"].([]any); len(rows) != 0 {
			t.Fatalf("offset=%s: got %d rows, want empty page", off, len(rows))
		}
	}
	// An offset one past the actual result size still pages normally.
	page := c.do("POST", "/api/sparql?limit=1&offset=5", q, 200)
	if rows, _ := page["rows"].([]any); len(rows) != 0 {
		t.Fatalf("offset=5: got %d rows past the end", len(rows))
	}
	page = c.do("POST", "/api/sparql?limit=1&offset=4", q, 200)
	if rows, _ := page["rows"].([]any); len(rows) != 1 {
		t.Fatalf("offset=4 limit=1: got %d rows, want 1", len(rows))
	}
}

// TestWalkQueryPagingAndNDJSON: the federated walk endpoints honor the
// same paging/streaming parameters.
func TestWalkQueryPagingAndNDJSON(t *testing.T) {
	c, provider := setupServer(t)
	stewardSetup(t, c, provider)
	walk := map[string]any{
		"select": []map[string]string{
			{"concept": "ex:Player", "feature": "ex:playerName", "alias": "playerName"},
		},
	}
	full := c.do("POST", "/api/query", walk, 200)
	if n := len(full["rows"].([]any)); n != 5 {
		t.Fatalf("full rows = %d", n)
	}
	page := c.do("POST", "/api/query?limit=2&offset=4", walk, 200)
	if n := len(page["rows"].([]any)); n != 1 {
		t.Fatalf("page rows = %d", n)
	}
	// Bad paging parameters are rejected up front (before execution).
	c.do("POST", "/api/query?limit=x", walk, 400)

	b, _ := json.Marshal(walk)
	resp, err := c.http.Post(c.base+"/api/query?format=ndjson&limit=2", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body bytes.Buffer
	if _, err := body.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(body.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("ndjson lines = %d: %q", len(lines), body.String())
	}
	var hdr struct {
		Columns []string `json:"columns"`
		SPARQL  string   `json:"sparql"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &hdr); err != nil || len(hdr.Columns) != 1 || hdr.Columns[0] != "playerName" || hdr.SPARQL == "" {
		t.Fatalf("ndjson header = %q (err %v)", lines[0], err)
	}
	var row []string
	if err := json.Unmarshal([]byte(lines[1]), &row); err != nil || len(row) != 1 {
		t.Fatalf("ndjson row = %q (err %v)", lines[1], err)
	}
}

// TestRequestBodyLimit: oversized POST bodies get 413 with a JSON error
// instead of being read to the end.
func TestRequestBodyLimit(t *testing.T) {
	c, _ := setupServer(t)
	big := `{"query":"` + strings.Repeat("x", 2<<20) + `"}`
	resp, err := c.http.Post(c.base+"/api/sparql", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", resp.StatusCode)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("413 body is not JSON: %v", err)
	}
	if msg, _ := out["error"].(string); !strings.Contains(msg, "exceeds") {
		t.Fatalf("413 error = %v", out)
	}
	// Non-query POST endpoints are capped too.
	resp2, err := c.http.Post(c.base+"/api/sources", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("sources status = %d, want 413", resp2.StatusCode)
	}
}

// TestClientDisconnectCancelsQuery: a request whose context is already
// canceled (the transport's signal that the client went away) must not
// evaluate the query; the handler reports 499.
func TestClientDisconnectCancelsQuery(t *testing.T) {
	f := usecase.MustNew()
	sys := mdm.FromParts(f.Ont, f.Reg)
	srv := rest.NewServer(sys)
	canceled, cancel := context.WithCancel(context.Background())
	cancel()

	post := func(path, body string) *httptest.ResponseRecorder {
		req := httptest.NewRequest("POST", path, strings.NewReader(body)).WithContext(canceled)
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		return rec
	}

	// Metadata SPARQL: the cursor engine surfaces ctx.Err on first Next.
	rec := post("/api/sparql", `{"query":"SELECT ?s WHERE { ?s ?p ?o . }"}`)
	if rec.Code != 499 {
		t.Fatalf("sparql status = %d, want 499 (body %s)", rec.Code, rec.Body)
	}
	if !strings.Contains(rec.Body.String(), "context canceled") {
		t.Fatalf("sparql body = %s", rec.Body)
	}

	// Federated OMQ: relalg execution checks ctx at every operator.
	rec = post("/api/query/sparql", `{"query":"PREFIX ex: <http://www.example.org/football/>\nPREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>\nSELECT ?playerName WHERE { ?p rdf:type ex:Player . ?p ex:playerName ?playerName . }"}`)
	if rec.Code != 499 {
		t.Fatalf("query/sparql status = %d, want 499 (body %s)", rec.Code, rec.Body)
	}
}

// slowWalkSystem builds a system where the Fig8 walk's rewriting unions
// in a wrapper that never answers (it blocks until its fetch context is
// done), so walk endpoints stall inside the federation scatter phase.
func slowWalkSystem(t *testing.T) *mdm.System {
	t.Helper()
	f := usecase.MustNew()
	sys := mdm.FromParts(f.Ont, f.Reg)
	sys.Federation().SourceTimeout = 2 * time.Second // don't leak fills for 30s
	slow := wrapper.NewFunc("wslow", usecase.SrcPlayers, f.W1.Signature().Attributes,
		func(ctx context.Context) ([]schema.Doc, error) {
			<-ctx.Done()
			return nil, ctx.Err()
		})
	if _, err := sys.RegisterWrapper(slow); err != nil {
		t.Fatal(err)
	}
	m, ok := f.Ont.MappingOf("w1")
	if !ok {
		t.Fatal("w1 mapping missing")
	}
	m.Wrapper = "wslow"
	if err := sys.DefineMapping(m); err != nil {
		t.Fatal(err)
	}
	return sys
}

var fig8WalkBody = `{"select":[
  {"concept":"http://schema.org/SportsTeam","feature":"http://www.example.org/football/teamName","alias":"teamName"},
  {"concept":"http://www.example.org/football/Player","feature":"http://www.example.org/football/playerName","alias":"playerName"}],
 "relations":[["http://www.example.org/football/Player","http://www.example.org/football/playsIn","http://schema.org/SportsTeam"]]}`

// TestWalkSlowSourceTimeout504: a wrapper that outlives the query
// timeout surfaces 504 from the walk endpoints (the scatter's deadline
// maps to context.DeadlineExceeded).
func TestWalkSlowSourceTimeout504(t *testing.T) {
	sys := slowWalkSystem(t)
	srv := rest.NewServer(sys)
	srv.QueryTimeout = 50 * time.Millisecond

	req := httptest.NewRequest("POST", "/api/query", strings.NewReader(fig8WalkBody))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 (body %s)", rec.Code, rec.Body)
	}
	if !strings.Contains(rec.Body.String(), "deadline") {
		t.Fatalf("body = %s", rec.Body)
	}
}

// TestWalkClientDisconnectMidFetch499: the client going away while a
// source fetch is in flight cancels the scatter; the handler reports
// 499 with the context error.
func TestWalkClientDisconnectMidFetch499(t *testing.T) {
	sys := slowWalkSystem(t)
	srv := rest.NewServer(sys)

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	req := httptest.NewRequest("POST", "/api/query", strings.NewReader(fig8WalkBody)).WithContext(ctx)
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != 499 {
		t.Fatalf("status = %d, want 499 (body %s)", rec.Code, rec.Body)
	}
	if !strings.Contains(rec.Body.String(), "context canceled") {
		t.Fatalf("body = %s", rec.Body)
	}
}

// TestSavedWalkRunPagingAndNDJSON: /api/walks/{name}/run honors the
// same paging + NDJSON streaming contract as /api/query.
func TestSavedWalkRunPagingAndNDJSON(t *testing.T) {
	c, provider := setupServer(t)
	stewardSetup(t, c, provider)
	c.do("POST", "/api/walks", map[string]any{
		"name": "players",
		"select": []map[string]string{
			{"concept": "ex:Player", "feature": "ex:playerName", "alias": "playerName"},
		},
	}, 201)

	full := c.do("POST", "/api/walks/players/run", nil, 200)
	all := full["rows"].([]any)
	if len(all) != 5 {
		t.Fatalf("full rows = %d", len(all))
	}
	// Pages partition the stream in order.
	var paged []any
	for off := 0; off < 7; off += 2 {
		page := c.do("POST", fmt.Sprintf("/api/walks/players/run?limit=2&offset=%d", off), nil, 200)
		rows, _ := page["rows"].([]any)
		paged = append(paged, rows...)
	}
	if len(paged) != 5 {
		t.Fatalf("concatenated pages = %d rows", len(paged))
	}
	for i := range all {
		if fmt.Sprint(paged[i]) != fmt.Sprint(all[i]) {
			t.Fatalf("page row %d = %v, want %v", i, paged[i], all[i])
		}
	}

	resp, err := c.http.Post(c.base+"/api/walks/players/run?format=ndjson&limit=3", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type = %q", ct)
	}
	var body bytes.Buffer
	if _, err := body.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(body.String(), "\n"), "\n")
	if len(lines) != 4 { // header + 3 rows
		t.Fatalf("ndjson lines = %d: %q", len(lines), body.String())
	}
	var hdr struct {
		Columns []string `json:"columns"`
		SPARQL  string   `json:"sparql"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &hdr); err != nil || len(hdr.Columns) != 1 || hdr.SPARQL == "" {
		t.Fatalf("ndjson header = %q (err %v)", lines[0], err)
	}
}

// TestWalkQueryPagesPartitionStream: /api/query pages are slices of the
// full result stream, in stream order.
func TestWalkQueryPagesPartitionStream(t *testing.T) {
	c, provider := setupServer(t)
	stewardSetup(t, c, provider)
	walk := map[string]any{
		"select": []map[string]string{
			{"concept": "ex:Player", "feature": "ex:playerName", "alias": "playerName"},
		},
	}
	full := c.do("POST", "/api/query", walk, 200)
	all := full["rows"].([]any)
	if len(all) != 5 {
		t.Fatalf("full rows = %d", len(all))
	}
	var paged []any
	for off := 0; off < 7; off += 3 {
		page := c.do("POST", fmt.Sprintf("/api/query?limit=3&offset=%d", off), walk, 200)
		rows, _ := page["rows"].([]any)
		paged = append(paged, rows...)
	}
	if len(paged) != 5 {
		t.Fatalf("concatenated pages = %d", len(paged))
	}
	for i := range all {
		if fmt.Sprint(paged[i]) != fmt.Sprint(all[i]) {
			t.Fatalf("page row %d = %v, want %v", i, paged[i], all[i])
		}
	}
}

// downWalkSystem is slowWalkSystem's sibling: the players-side wrapper
// fails instantly with a terminal 404 instead of stalling, so each query
// costs exactly one fetch attempt per source — no backoff, and never a
// breaker strike.
func downWalkSystem(t *testing.T) *mdm.System {
	t.Helper()
	return failingWalkSystem(t, http.StatusNotFound)
}

// unavailableWalkSystem's players-side wrapper answers 503, a source
// fault: each strict query climbs the real retry ladder (three attempts,
// three breaker strikes), so the second trips the breaker.
func unavailableWalkSystem(t *testing.T) *mdm.System {
	t.Helper()
	return failingWalkSystem(t, http.StatusServiceUnavailable)
}

// failingWalkSystem maps the Fig. 8 players side to "wdown", whose every
// fetch fails with HTTP status code.
func failingWalkSystem(t *testing.T, code int) *mdm.System {
	t.Helper()
	f := usecase.MustNew()
	sys := mdm.FromParts(f.Ont, f.Reg)
	down := wrapper.NewFunc("wdown", usecase.SrcPlayers, f.W1.Signature().Attributes,
		func(ctx context.Context) ([]schema.Doc, error) {
			return nil, &wrapper.StatusError{URL: "http://down.example/players", Code: code}
		})
	if _, err := sys.RegisterWrapper(down); err != nil {
		t.Fatal(err)
	}
	m, ok := f.Ont.MappingOf("w1")
	if !ok {
		t.Fatal("w1 mapping missing")
	}
	m.Wrapper = "wdown"
	if err := sys.DefineMapping(m); err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestWalkPartialAnnotatedJSON: ?partial=1 turns a failed source into a
// 200 with X-MDM-Partial and a missing_sources annotation instead of an
// error status; without the parameter the same walk keeps PR 5's strict
// failure.
func TestWalkPartialAnnotatedJSON(t *testing.T) {
	sys := unavailableWalkSystem(t)
	srv := rest.NewServer(sys)

	req := httptest.NewRequest("POST", "/api/query?partial=1", strings.NewReader(fig8WalkBody))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200 (body %s)", rec.Code, rec.Body)
	}
	if got := rec.Header().Get("X-MDM-Partial"); got != "true" {
		t.Fatalf("X-MDM-Partial = %q, want true", got)
	}
	var resp struct {
		Partial        bool `json:"partial"`
		MissingSources []struct {
			Source string `json:"source"`
			Class  string `json:"class"`
		} `json:"missing_sources"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Partial || len(resp.MissingSources) != 1 ||
		resp.MissingSources[0].Source != "wdown" || resp.MissingSources[0].Class != "http_5xx" {
		t.Fatalf("annotation = %+v, want partial with wdown/http_5xx", resp)
	}

	// Strict (no parameter): unchanged failure semantics.
	req = httptest.NewRequest("POST", "/api/query", strings.NewReader(fig8WalkBody))
	req.Header.Set("Content-Type", "application/json")
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("strict status = %d, want 422 (body %s)", rec.Code, rec.Body)
	}
	if rec.Header().Get("X-MDM-Partial") != "" {
		t.Fatal("strict failure must not carry X-MDM-Partial")
	}
}

// TestWalkPartialNDJSONHeaderAnnotation: the NDJSON header line carries
// the partial/missing_sources annotation; healthy walks' headers stay
// free of the new fields (backward compatibility).
func TestWalkPartialNDJSONHeaderAnnotation(t *testing.T) {
	sys := downWalkSystem(t)
	srv := rest.NewServer(sys)

	req := httptest.NewRequest("POST", "/api/query?partial=1&format=ndjson", strings.NewReader(fig8WalkBody))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d (body %s)", rec.Code, rec.Body)
	}
	if got := rec.Header().Get("X-MDM-Partial"); got != "true" {
		t.Fatalf("X-MDM-Partial = %q, want true", got)
	}
	lines := strings.Split(strings.TrimRight(rec.Body.String(), "\n"), "\n")
	var hdr struct {
		Columns        []string         `json:"columns"`
		Partial        bool             `json:"partial"`
		MissingSources []map[string]any `json:"missing_sources"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &hdr); err != nil {
		t.Fatalf("header %q: %v", lines[0], err)
	}
	if !hdr.Partial || len(hdr.MissingSources) != 1 || hdr.MissingSources[0]["source"] != "wdown" {
		t.Fatalf("header annotation = %+v", hdr)
	}

	// Healthy system: no partial fields in the header at all.
	c, provider := setupServer(t)
	stewardSetup(t, c, provider)
	resp, err := c.http.Post(c.base+"/api/query?format=ndjson&partial=1", "application/json",
		strings.NewReader(`{"select":[{"concept":"ex:Player","feature":"ex:playerName","alias":"playerName"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("X-MDM-Partial"); got != "" {
		t.Fatalf("healthy X-MDM-Partial = %q, want unset", got)
	}
	var body bytes.Buffer
	if _, err := body.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	head := strings.SplitN(body.String(), "\n", 2)[0]
	if strings.Contains(head, "partial") || strings.Contains(head, "missing_sources") {
		t.Fatalf("healthy header leaks partial fields: %s", head)
	}
}

// TestWalkBreakerOpen503: once the failing source's breaker trips,
// strict walks fail fast with 503 Service Unavailable. The trip takes
// two walks of the real retry ladder, and the walk whose ladder trips it
// still reports the source's own error.
func TestWalkBreakerOpen503(t *testing.T) {
	sys := unavailableWalkSystem(t)
	srv := rest.NewServer(sys)

	post := func() *httptest.ResponseRecorder {
		req := httptest.NewRequest("POST", "/api/query", strings.NewReader(fig8WalkBody))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		return rec
	}
	if rec := post(); rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("first status = %d, want 422 (three strikes)", rec.Code)
	}
	if rec := post(); rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("second status = %d, want 422 (trips the breaker mid-ladder)", rec.Code)
	}
	rec := post()
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("third status = %d, want 503 (body %s)", rec.Code, rec.Body)
	}
	if !strings.Contains(rec.Body.String(), "circuit breaker open") {
		t.Fatalf("body = %s", rec.Body)
	}
}

// TestWalkPartialParamValidation: ?partial must be boolean-ish, and only
// an explicit 1 degrades: absent and 0 are strict.
func TestWalkPartialParamValidation(t *testing.T) {
	srv := rest.NewServer(downWalkSystem(t))
	for _, tc := range []struct {
		query string
		want  int
	}{
		{"?partial=maybe", http.StatusBadRequest},
		{"", http.StatusUnprocessableEntity},
		{"?partial=0", http.StatusUnprocessableEntity},
		{"?partial=1", http.StatusOK},
	} {
		req := httptest.NewRequest("POST", "/api/query"+tc.query, strings.NewReader(fig8WalkBody))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code != tc.want {
			t.Errorf("%q: status = %d, want %d (body %s)", tc.query, rec.Code, tc.want, rec.Body)
		}
		if partial := rec.Header().Get("X-MDM-Partial") == "true"; partial != (tc.want == http.StatusOK) {
			t.Errorf("%q: X-MDM-Partial = %q", tc.query, rec.Header().Get("X-MDM-Partial"))
		}
	}
}

func TestAdminCompactEndpoint(t *testing.T) {
	// In-memory system: compaction succeeds but reports no persistence.
	c, _ := setupServer(t)
	resp, err := c.http.Post(c.base+"/api/admin/compact", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	var body map[string]any
	json.NewDecoder(resp.Body).Decode(&body)
	resp.Body.Close()
	if resp.StatusCode != 200 || body["persistent"] != false {
		t.Fatalf("in-memory compact: status %d, body %v", resp.StatusCode, body)
	}
	// GET is not allowed on the mutation route.
	getResp, err := c.http.Get(c.base + "/api/admin/compact")
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET compact = %d", getResp.StatusCode)
	}

	// Persistent system: compaction seals a segment on disk.
	dir := t.TempDir()
	sys, err := mdm.OpenWith(dir, mdm.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	sys.BindPrefix("ex", "http://ex.org/")
	if err := sys.AddConcept("ex:Thing", "Thing"); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(rest.NewServer(sys))
	t.Cleanup(srv.Close)
	resp, err = srv.Client().Post(srv.URL+"/api/admin/compact", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	body = nil
	json.NewDecoder(resp.Body).Decode(&body)
	resp.Body.Close()
	if resp.StatusCode != 200 || body["persistent"] != true || body["compacted"] != true {
		t.Fatalf("persistent compact: status %d, body %v", resp.StatusCode, body)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "ontology", "seg-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no sealed segments after compact: %v, %v", segs, err)
	}
}

// releasesGolden is GET /api/releases after stewardSetup plus the w1v2
// release, byte for byte as PR 21 — which kept the log in release
// documents — answered it.
const releasesGolden = `[{"seq":1,"kind":"new-source","source":"players-api","wrapper":"w1","signature":"w1(foot, height, id, pName, score, teamId, weight)","breaking":false},{"seq":2,"kind":"new-source","source":"teams-api","wrapper":"w2","signature":"w2(id, name, shortName)","breaking":false},{"seq":3,"kind":"new-version","source":"players-api","wrapper":"w1v2","signature":"w1v2(foot, height, id, pName, position, teamId)","supersedes":"w1","breaking":true,"changes":["added position","removed score","removed weight"]}]` + "\n"

// TestWrapperReRegistrationOverHTTP: on one wrapper name, POST
// /api/wrappers answers 201 for the release, 200 with the recorded release
// for every later attach — the way wrappers come back after a restart —
// and 409 for another schema; the release log stays as it was released.
func TestWrapperReRegistrationOverHTTP(t *testing.T) {
	provider := apisim.NewFootball()
	t.Cleanup(provider.Close)
	dir := t.TempDir()
	open := func() (*mdm.System, *client) {
		sys, err := mdm.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(rest.NewServer(sys))
		t.Cleanup(srv.Close)
		return sys, &client{t: t, base: srv.URL, http: srv.Client()}
	}
	releases := func(c *client) string {
		resp, err := c.http.Get(c.base + "/api/releases")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	v2 := map[string]any{
		"name": "w1v2", "source": "players-api", "url": provider.URL() + "/v2/players",
		"renames": map[string]string{"full_name": "pName", "preferred_foot": "foot", "team_id": "teamId"},
	}

	sys, c := open()
	stewardSetup(t, c, provider)
	released := c.do("POST", "/api/wrappers", v2, 201)
	if got := releases(c); got != releasesGolden {
		t.Fatalf("GET /api/releases =\n%s\nwant PR 21's body\n%s", got, releasesGolden)
	}
	// Attached and released: a plain duplicate, as before.
	c.do("POST", "/api/wrappers", v2, 422)
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}

	sys, c = open()
	defer sys.Close()
	if ws := c.doList("GET", "/api/wrappers", 200); len(ws) != 0 {
		t.Fatalf("wrappers attached right after a restart: %v", ws)
	}
	if got := c.do("POST", "/api/wrappers", v2, 200); !reflect.DeepEqual(got, released) {
		t.Errorf("re-attaching answered %v, want the recorded release %v", got, released)
	}
	if ws := c.doList("GET", "/api/wrappers", 200); len(ws) != 1 {
		t.Errorf("wrappers after re-attaching = %v", ws)
	}
	// The v1 payload under the v2 name is another schema.
	conflict := c.do("POST", "/api/wrappers", map[string]any{
		"name": "w1v2", "source": "players-api", "url": provider.URL() + "/v1/players",
	}, 409)
	if msg, _ := conflict["error"].(string); !strings.Contains(msg, "new wrapper name") || !strings.Contains(msg, "release #3") {
		t.Errorf("conflict body = %v", conflict)
	}
	if got := releases(c); got != releasesGolden {
		t.Errorf("GET /api/releases after the restart =\n%s\nwant\n%s", got, releasesGolden)
	}
}
