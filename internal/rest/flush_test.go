package rest

import (
	"bufio"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"mdm"
	"mdm/internal/obs"
)

// stubCursor yields limit one-cell rows. With release set it parks before
// its second row until the channel closes (or the request dies).
type stubCursor struct {
	n, limit int64
	release  chan struct{}
	err      error
}

func (c *stubCursor) Next(ctx context.Context) bool {
	if c.n == 1 && c.release != nil {
		select {
		case <-c.release:
		case <-ctx.Done():
			c.err = ctx.Err()
		}
	}
	if c.err != nil || c.n >= c.limit {
		return false
	}
	c.n++
	return true
}
func (c *stubCursor) Err() error  { return c.err }
func (c *stubCursor) Close()      {}
func (c *stubCursor) Rows() int64 { return c.n }

// stubHandler serves cur through deliver, the way the query endpoints do.
func stubHandler(cur *stubCursor) http.Handler {
	srv := NewServer(mdm.New())
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		srv.deliver(w, r, func(context.Context, *obs.Trace, int, int) (answer, error) {
			return answer{
				cur:    cur,
				header: func() any { return map[string]any{"vars": []string{"n"}} },
				width:  1,
				appendCell: func(dst []byte, _ int) []byte {
					return append(strconv.AppendInt(append(dst, '"'), cur.n, 10), '"')
				},
			}, nil
		})
	})
}

type countingFlusher struct {
	*httptest.ResponseRecorder
	flushes int
}

func (f *countingFlusher) Flush() { f.flushes++ }

// TestNDJSONFlushesPerIntervalNotPerRow: the header and the first row are
// flushed, then the clock decides — a bulk stream pays O(duration /
// flushInterval) flushes, whatever its row count.
func TestNDJSONFlushesPerIntervalNotPerRow(t *testing.T) {
	const rows = 10000
	rec := &countingFlusher{ResponseRecorder: httptest.NewRecorder()}
	t0 := time.Now()
	stubHandler(&stubCursor{limit: rows}).ServeHTTP(rec, httptest.NewRequest("POST", "/?format=ndjson", nil))
	most := 2 + int(time.Since(t0)/flushInterval)
	if rec.flushes < 2 || rec.flushes > most {
		t.Errorf("%d flushes for %d rows, want between 2 and %d", rec.flushes, rows, most)
	}
	if got := strings.Count(rec.Body.String(), "\n"); got != rows+1 {
		t.Errorf("%d lines, want %d", got, rows+1)
	}
}

// TestNDJSONFirstRowReachesClientWhileQueryRuns: over a real connection,
// a client reads the header line and the first row while the cursor is
// still parked before its second.
func TestNDJSONFirstRowReachesClientWhileQueryRuns(t *testing.T) {
	cur := &stubCursor{limit: 3, release: make(chan struct{})}
	ts := httptest.NewServer(stubHandler(cur))
	defer ts.Close()
	resp, err := ts.Client().Post(ts.URL+"/?format=ndjson", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body := bufio.NewReader(resp.Body)
	for _, want := range []string{`{"vars":["n"]}`, `["1"]`} {
		// Were the line not flushed this read would block until the test
		// times out: nothing releases the cursor before it returns.
		if line, err := body.ReadString('\n'); err != nil || line != want+"\n" {
			t.Fatalf("line = %q (err %v), want %q", line, err, want)
		}
	}
	close(cur.release)
	var rest strings.Builder
	if _, err := body.WriteTo(&rest); err != nil || rest.String() != "[\"2\"]\n[\"3\"]\n" {
		t.Fatalf("rest of stream = %q (err %v)", rest.String(), err)
	}
}

// failingWriter accepts the header line, then fails every write.
type failingWriter struct {
	*httptest.ResponseRecorder
	writes int
}

func (f *failingWriter) Write(b []byte) (int, error) {
	if f.writes++; f.writes > 1 {
		return 0, errors.New("connection reset")
	}
	return f.ResponseRecorder.Write(b)
}

// TestNDJSONStopsDrainingOnFailedWrite: rows are not encoded into a dead
// connection.
func TestNDJSONStopsDrainingOnFailedWrite(t *testing.T) {
	cur := &stubCursor{limit: 10000}
	rec := &failingWriter{ResponseRecorder: httptest.NewRecorder()}
	stubHandler(cur).ServeHTTP(rec, httptest.NewRequest("POST", "/?format=ndjson", nil))
	if cur.n != 1 || rec.writes != 2 {
		t.Errorf("cursor advanced %d rows over %d writes, want it stopped at the first failed row", cur.n, rec.writes)
	}
}
