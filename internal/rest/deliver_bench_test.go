package rest_test

import (
	"bytes"
	"net/http/httptest"
	"strings"
	"testing"

	"mdm"
	"mdm/internal/rest"
	"mdm/internal/usecase"
)

// bulkWalkServer serves the Figure 8 walk over rows synthetic players,
// each joining one team: the walk answers with exactly rows rows.
func bulkWalkServer(rows int) *rest.Server {
	f := usecase.MustNew()
	f.W1.SetDocs(usecase.SyntheticPlayers(rows))
	f.W2.SetDocs(usecase.SyntheticTeams(rows/10 + 1))
	return rest.NewServer(mdm.FromParts(f.Ont, f.Reg))
}

// BenchmarkDeliver is the REST layer's benchmark (ROADMAP aim 1): one
// bulk walk answered whole through deliver in each output format, from
// the request to the last body byte in an httptest recorder. The rewrite
// is a cache hit after the first iteration, so what is timed is fetch,
// join and encoding.
func BenchmarkDeliver(b *testing.B) {
	const rows = 10000
	srv := bulkWalkServer(rows)
	for _, format := range []string{"json", "ndjson"} {
		b.Run(format+"/rows=10000", func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, httptest.NewRequest("POST", "/api/query?format="+format, strings.NewReader(fig8WalkBody)))
				if n := bytes.Count(rec.Body.Bytes(), []byte(`"Player `)); rec.Code != 200 || n != rows {
					b.Fatalf("status %d, %d rows", rec.Code, n)
				}
				b.SetBytes(int64(rec.Body.Len()))
			}
		})
	}
}
