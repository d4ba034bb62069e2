package wrapper

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mdm/internal/relalg"
	"mdm/internal/relalg/relalgtest"
	"mdm/internal/schema"
)

func playerDocs() []schema.Doc {
	return []schema.Doc{
		{"id": relalg.Int(6176), "pName": relalg.String("Lionel Messi"), "teamId": relalg.Int(25)},
		{"id": relalg.Int(8123), "pName": relalg.String("Zlatan Ibrahimovic"), "teamId": relalg.Int(31)},
	}
}

func TestMemWrapperBasics(t *testing.T) {
	w := NewMem("w1", "players-api", playerDocs(), nil)
	if w.Name() != "w1" || w.SourceID() != "players-api" {
		t.Errorf("identity = %s/%s", w.Name(), w.SourceID())
	}
	sig := w.Signature()
	if len(sig.Attributes) != 3 {
		t.Fatalf("signature = %s", sig)
	}
	rel, err := w.Fetch(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 2 || len(rel.Cols) != 3 {
		t.Fatalf("fetched %dx%d", rel.Len(), len(rel.Cols))
	}
	cur, err := w.CurrentSignature(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if cur.String() != sig.String() {
		t.Errorf("current sig %s != declared %s", cur, sig)
	}
}

func TestMemWrapperSetDocsSimulatesEvolution(t *testing.T) {
	w := NewMem("w1", "players-api", playerDocs(), nil)
	// New version renames pName -> fullName.
	w.SetDocs([]schema.Doc{
		{"id": relalg.Int(1), "fullName": relalg.String("X"), "teamId": relalg.Int(2)},
	})
	cur, err := w.CurrentSignature(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	names := cur.AttributeNames()
	found := false
	for _, n := range names {
		if n == "fullName" {
			found = true
		}
	}
	if !found {
		t.Errorf("evolved signature = %v", names)
	}
	// Declared signature is immutable: Fetch fills missing pName as NULL.
	rel, err := w.Fetch(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	pi := rel.ColIndex("pName")
	if pi < 0 || !rel.Rows[0][pi].IsNull() {
		t.Errorf("declared attribute should surface as NULL after drift: %v", rel.Rows)
	}
}

func TestHTTPWrapperJSON(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`[
			{"id":6176,"name":"Lionel Messi","preferred_foot":"left","team_id":25},
			{"id":8123,"name":"Zlatan Ibrahimovic","preferred_foot":"right","team_id":31}
		]`))
	}))
	defer srv.Close()

	w, err := NewHTTP(context.Background(), "w1", "players-api", srv.URL,
		WithRename("preferred_foot", "foot"),
		WithRename("name", "pName"),
		WithRename("team_id", "teamId"))
	if err != nil {
		t.Fatal(err)
	}
	cols := w.Columns()
	want := map[string]bool{"id": true, "pName": true, "foot": true, "teamId": true}
	for _, c := range cols {
		if !want[c] {
			t.Errorf("unexpected column %q", c)
		}
	}
	rel, err := w.Fetch(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 2 {
		t.Fatalf("rows = %d", rel.Len())
	}
	fi := rel.ColIndex("foot")
	if fi < 0 || rel.Rows[0][fi] != relalg.String("left") {
		t.Errorf("rename not applied: %v", rel.Rows[0])
	}
}

func TestHTTPWrapperXML(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/xml")
		w.Write([]byte(`<teams>
  <team><id>25</id><name>FC Barcelona</name><shortName>FCB</shortName></team>
  <team><id>31</id><name>Manchester United</name><shortName>MU</shortName></team>
</teams>`))
	}))
	defer srv.Close()

	w, err := NewHTTP(context.Background(), "w2", "teams-api", srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := w.Fetch(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 2 || len(rel.Cols) != 3 {
		t.Fatalf("xml fetch = %dx%d", rel.Len(), len(rel.Cols))
	}
}

func TestHTTPWrapperErrorStatus(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "gone", http.StatusGone)
	}))
	defer srv.Close()
	if _, err := NewHTTP(context.Background(), "w1", "s", srv.URL); err == nil {
		t.Error("registration against failing endpoint should error")
	}
}

func TestHTTPWrapperFetchFailsAfterServerDies(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`[{"a":1}]`))
	}))
	w, err := NewHTTP(context.Background(), "w1", "s", srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()
	if _, err := w.Fetch(context.Background()); err == nil {
		t.Error("fetch against dead server should error")
	}
}

func TestFuncWrapper(t *testing.T) {
	attrs := []schema.Attribute{{Name: "id", Type: relalg.TypeInt}, {Name: "v", Type: relalg.TypeString}}
	calls := 0
	w := NewFunc("wf", "src", attrs, func(ctx context.Context) ([]schema.Doc, error) {
		calls++
		return []schema.Doc{{"id": relalg.Int(1), "v": relalg.String("a")}}, nil
	})
	rel, err := w.Fetch(context.Background())
	if err != nil || rel.Len() != 1 {
		t.Fatalf("func fetch = %v, %v", rel, err)
	}
	if _, err := w.CurrentSignature(context.Background()); err != nil {
		t.Fatal(err)
	}
	if calls != 2 {
		t.Errorf("calls = %d", calls)
	}
	failing := NewFunc("wf2", "src", attrs, func(ctx context.Context) ([]schema.Doc, error) {
		return nil, errors.New("backend down")
	})
	if _, err := failing.Fetch(context.Background()); err == nil {
		t.Error("func error swallowed")
	}
	if _, err := failing.CurrentSignature(context.Background()); err == nil {
		t.Error("func error swallowed in CurrentSignature")
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	w1 := NewMem("w1", "players-api", playerDocs(), nil)
	w2 := NewMem("w2", "teams-api", nil, []schema.Attribute{{Name: "id", Type: relalg.TypeInt}})
	w1b := NewMem("w1b", "players-api", playerDocs(), nil)

	for _, w := range []Wrapper{w1, w2, w1b} {
		if err := r.Register(w); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Register(NewMem("w1", "other", nil, []schema.Attribute{{Name: "x"}})); err == nil {
		t.Error("duplicate name accepted")
	}
	if g := r.Generation(); g != 3 {
		t.Errorf("Generation after three registrations and a refused one = %d", g)
	}
	if got, ok := r.Get("w2"); !ok || got.Name() != "w2" {
		t.Error("Get failed")
	}
	if _, ok := r.Get("nope"); ok {
		t.Error("Get returned missing wrapper")
	}
	ws := r.BySource("players-api")
	if len(ws) != 2 || ws[0].Name() != "w1" || ws[1].Name() != "w1b" {
		t.Errorf("BySource = %v", ws)
	}
	if src := r.Sources(); len(src) != 2 || src[0] != "players-api" {
		t.Errorf("Sources = %v", src)
	}
	if names := r.Names(); len(names) != 3 || names[0] != "w1" {
		t.Errorf("Names = %v", names)
	}
	if r.Len() != 3 {
		t.Errorf("Len = %d", r.Len())
	}
	if !r.Remove("w1b") {
		t.Error("Remove = false")
	}
	if r.Remove("w1b") {
		t.Error("double Remove = true")
	}
	if g := r.Generation(); g != 4 {
		t.Errorf("Generation after a removal and a refused one = %d", g)
	}
	if ws := r.BySource("players-api"); len(ws) != 1 {
		t.Errorf("BySource after remove = %v", ws)
	}
}

func TestWrapperIsRowSource(t *testing.T) {
	// Wrappers must plug directly into relalg plans.
	var _ relalg.RowSource = NewMem("w", "s", nil, []schema.Attribute{{Name: "id"}})
	w := NewMem("w1", "players-api", playerDocs(), nil)
	plan := relalg.NewProject(relalg.NewScan(w), "pName")
	rel, err := relalgtest.Execute(context.Background(), plan)
	if err != nil || rel.Len() != 2 {
		t.Fatalf("plan over wrapper = %v, %v", rel, err)
	}
}

// TestHTTPStatusCheckedBeforeBody: a non-200 response fails with the
// status code — its body is never flattened as data, however large.
func TestHTTPStatusCheckedBeforeBody(t *testing.T) {
	healthy := atomic.Bool{}
	healthy.Store(true)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !healthy.Load() {
			w.WriteHeader(http.StatusInternalServerError)
			// A huge error body must not trip the payload cap nor be
			// parsed; the status decides first.
			w.Write(bytes.Repeat([]byte("x"), 1<<20))
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`[{"id":1}]`))
	}))
	defer srv.Close()

	w, err := NewHTTP(context.Background(), "w", "s", srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	healthy.Store(false)
	_, err = w.Fetch(context.Background())
	if err == nil || !strings.Contains(err.Error(), "status 500") {
		t.Fatalf("err = %v, want status 500", err)
	}
	if errors.Is(err, ErrPayloadTooLarge) {
		t.Fatalf("status error misreported as payload cap: %v", err)
	}
}

// TestHTTPPayloadCap: payloads over the read cap fail with a distinct
// error instead of being silently truncated into a corrupt document.
func TestHTTPPayloadCap(t *testing.T) {
	prev := maxPayloadBytes
	maxPayloadBytes = 64
	t.Cleanup(func() { maxPayloadBytes = prev })

	big := atomic.Bool{}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if big.Load() {
			fmt.Fprintf(w, `[{"id":1,"pad":%q}]`, strings.Repeat("x", 200))
			return
		}
		w.Write([]byte(`[{"id":1}]`))
	}))
	defer srv.Close()

	w, err := NewHTTP(context.Background(), "w", "s", srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	// Under the cap: still fine.
	if _, err := w.Fetch(context.Background()); err != nil {
		t.Fatalf("fetch under cap: %v", err)
	}
	big.Store(true)
	_, err = w.Fetch(context.Background())
	if !errors.Is(err, ErrPayloadTooLarge) {
		t.Fatalf("err = %v, want ErrPayloadTooLarge", err)
	}
	// Signature drift probes fail the same way, not with a parse error.
	if _, err := w.CurrentSignature(context.Background()); !errors.Is(err, ErrPayloadTooLarge) {
		t.Fatalf("CurrentSignature err = %v, want ErrPayloadTooLarge", err)
	}
}

// TestHTTPFetchCtxCancel: canceling the context mid-fetch surfaces
// context.Canceled (the REST layer maps it to 499).
func TestHTTPFetchCtxCancel(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	first := atomic.Bool{}
	first.Store(true)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if first.CompareAndSwap(true, false) { // signature probe
			w.Header().Set("Content-Type", "application/json")
			w.Write([]byte(`[{"id":1}]`))
			return
		}
		select { // hang until the client goes away
		case <-release:
		case <-r.Context().Done():
		}
	}))
	defer srv.Close()

	w, err := NewHTTP(context.Background(), "w", "s", srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	if _, err := w.Fetch(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled", err)
	}
}

// TestHTTPRenameCollision: a payload that carries both the renamed field
// and a raw field of the attribute's name reads the attribute from the
// renamed one — in the signature and in every fetch, however the doc's
// map happens to iterate — and of two fields renamed to one attribute
// the lexically first wins.
func TestHTTPRenameCollision(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`[
			{"id":1,"preferred_foot":"left","foot":7,"b_name":"b","a_name":"a"},
			{"id":2,"foot":8,"b_name":"b2"}
		]`))
	}))
	defer srv.Close()
	for i := 0; i < 20; i++ { // map iteration order varies between runs of the loop
		w, err := NewHTTP(context.Background(), "w", "s", srv.URL,
			WithRename("preferred_foot", "foot"),
			WithRename("b_name", "name"), WithRename("a_name", "name"))
		if err != nil {
			t.Fatal(err)
		}
		if got := w.Signature().String(); got != "w(foot, id, name)" {
			t.Fatalf("signature = %s", got)
		}
		for _, a := range w.Signature().Attributes {
			if a.Name == "foot" && a.Type != relalg.TypeString {
				t.Fatalf("foot inferred as %v: the raw integer field leaked into the signature", a.Type)
			}
		}
		for _, cols := range [][]string{nil, {"name", "foot"}} {
			rel, err := w.Fetch(relalg.WithColumns(context.Background(), cols))
			if err != nil {
				t.Fatal(err)
			}
			foot, name := rel.ColIndex("foot"), rel.ColIndex("name")
			if rel.Rows[0][foot] != relalg.String("left") || rel.Rows[0][name] != relalg.String("a") {
				t.Fatalf("cols %v: row 0 = %v, want foot from preferred_foot and name from a_name", cols, rel.Rows[0])
			}
			// The second doc has neither winning field: NULL, not the shadowed raw values.
			if !rel.Rows[1][foot].IsNull() || !rel.Rows[1][name].IsNull() {
				t.Fatalf("cols %v: row 1 = %v, want NULL foot and name", cols, rel.Rows[1])
			}
		}
	}
}

// TestFetchHonoursRequestedColumns: every wrapper kind converts only the
// columns the fetch context asks for, in the order it asks, and says so
// in the relation's Cols; with no request it returns its signature.
func TestFetchHonoursRequestedColumns(t *testing.T) {
	payload := `[{"id":6176,"name":"Lionel Messi","team_id":25},{"id":8123,"name":"Zlatan Ibrahimovic","team_id":31}]`
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(payload))
	}))
	defer srv.Close()
	hw, err := NewHTTP(context.Background(), "http", "s", srv.URL, WithRename("name", "pName"), WithRename("team_id", "teamId"))
	if err != nil {
		t.Fatal(err)
	}
	mw := NewMem("mem", "s", playerDocs(), nil)
	fn := NewFunc("func", "s", mw.Signature().Attributes, func(context.Context) ([]schema.Doc, error) { return playerDocs(), nil })

	for _, w := range []Wrapper{hw, mw, fn, NewChaos(mw, 1)} {
		full, err := w.Fetch(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(full.Cols, w.Columns()) {
			t.Errorf("%s: unasked fetch returned %v, declared %v", w.Name(), full.Cols, w.Columns())
		}
		want := []string{"teamId", "id"}
		rel, err := w.Fetch(relalg.WithColumns(context.Background(), want))
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(rel.Cols, want) {
			t.Fatalf("%s: asked for %v, got %v", w.Name(), want, rel.Cols)
		}
		for r, row := range rel.Rows {
			if len(row) != 2 || row[0] != full.Rows[r][full.ColIndex("teamId")] || row[1] != full.Rows[r][full.ColIndex("id")] {
				t.Errorf("%s: narrowed row %d = %v, full row %v", w.Name(), r, row, full.Rows[r])
			}
		}
	}
}

// TestNarrow pins the helper's edges: the answer follows the request's
// order, and a request the signature cannot serve is answered whole.
func TestNarrow(t *testing.T) {
	attrs := []schema.Attribute{{Name: "a"}, {Name: "b"}, {Name: "c"}}
	for _, tc := range []struct {
		cols []string
		want string
	}{
		{nil, "a b c"},
		{[]string{}, "a b c"},
		{[]string{"c", "a"}, "c a"},
		{[]string{"b"}, "b"},
		{[]string{"a", "b", "c"}, "a b c"},
		{[]string{"a", "nope"}, "a b c"},
	} {
		var got []string
		for _, a := range narrow(attrs, tc.cols) {
			got = append(got, a.Name)
		}
		if strings.Join(got, " ") != tc.want {
			t.Errorf("narrow(%v) = %v, want %s", tc.cols, got, tc.want)
		}
	}
}
