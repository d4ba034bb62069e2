package sparql

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"mdm/internal/rdf"
)

// joinFixture mirrors the BenchmarkSPARQLJoinRows dataset: a 3-pattern
// BGP over ~10k triples producing exactly 9000 solution rows — wide
// enough that a query canceled mid-join provably stopped early.
func joinFixture() (*rdf.Dataset, *Query) {
	ds := rdf.NewDataset()
	g := ds.Default()
	ex := func(p, i int) rdf.Term { return rdf.IRI(fmt.Sprintf("http://ex.org/n%d_%d", p, i)) }
	p0, p1, p2, p3 := rdf.IRI("http://ex.org/p0"), rdf.IRI("http://ex.org/p1"),
		rdf.IRI("http://ex.org/p2"), rdf.IRI("http://ex.org/p3")
	for x := 0; x < 1000; x++ {
		g.MustAdd(rdf.T(ex(0, x), p0, ex(1, x%100)))
		g.MustAdd(rdf.T(ex(0, x), p2, rdf.IntLit(int64(x))))
	}
	for m := 0; m < 100; m++ {
		for k := 0; k < 9; k++ {
			g.MustAdd(rdf.T(ex(1, m), p1, rdf.IntLit(int64(m*9+k))))
		}
	}
	for i := 0; i < 7100; i++ {
		g.MustAdd(rdf.T(ex(2, i), p3, rdf.IntLit(int64(i))))
	}
	q := MustParse(`
PREFIX ex: <http://ex.org/>
SELECT ?a ?c ?w WHERE { ?a ex:p0 ?b . ?b ex:p1 ?c . ?a ex:p2 ?w }`)
	return ds, q
}

// countdownCtx reports itself canceled after its Err method has been
// consulted n times: a deterministic way to cancel "mid-join" at an
// exact poll count, with no goroutines or sleeps.
type countdownCtx struct {
	context.Context
	n atomic.Int64
}

func (c *countdownCtx) Err() error {
	if c.n.Add(-1) < 0 {
		return context.Canceled
	}
	return c.Context.Err()
}

func TestCursorCancelMidJoin(t *testing.T) {
	ds, q := joinFixture()
	ctx := &countdownCtx{Context: context.Background()}
	ctx.n.Store(500) // far fewer polls than the 9000 result rows

	cur, err := EvalCursor(ds, q)
	if err != nil {
		t.Fatal(err)
	}
	rows := 0
	for cur.Next(ctx) {
		rows++
	}
	if rows != 0 {
		// The pipeline tail is a barrier, so the first Next drains the
		// join; cancellation must fire inside that drain.
		t.Fatalf("Next yielded %d rows under a canceled context", rows)
	}
	if !errors.Is(cur.Err(), context.Canceled) {
		t.Fatalf("Err() = %v, want context.Canceled", cur.Err())
	}
	// A canceled cursor stays canceled.
	if cur.Next(context.Background()) {
		t.Fatal("Next succeeded after cancellation")
	}
}

func TestEvalContextCancellation(t *testing.T) {
	ds, q := joinFixture()

	// Pre-canceled context: no work at all.
	pre, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := EvalContext(pre, ds, q); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled EvalContext err = %v", err)
	}

	// Mid-join cancellation surfaces the context error.
	ctx := &countdownCtx{Context: context.Background()}
	ctx.n.Store(1000)
	if _, err := EvalContext(ctx, ds, q); !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-join EvalContext err = %v", err)
	}

	// Concurrent cancellation returns promptly (generous bound: the
	// full drain takes ~15ms, so 5s only catches a hang).
	cctx, ccancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := EvalContext(cctx, ds, q)
		done <- err
	}()
	ccancel()
	select {
	case err := <-done:
		// The race between the final row and the cancel is legitimate;
		// only a hang or a non-context error is a failure.
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("concurrent cancel err = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("EvalContext did not return after cancel")
	}
}

// TestCursorPagedReadIsPrefix pins the paged-read contract: draining k
// rows from a fresh cursor and stopping yields exactly the first k rows
// of the fully materialized result (no ORDER BY, so the canonical order
// is total and deterministic).
func TestCursorPagedReadIsPrefix(t *testing.T) {
	ds, q := joinFixture()
	full, err := Eval(ds, q)
	if err != nil {
		t.Fatal(err)
	}
	if full.Len() != 9000 {
		t.Fatalf("full drain rows = %d", full.Len())
	}
	ctx := context.Background()
	for _, k := range []int{1, 7, 100} {
		cur, err := EvalCursor(ds, q)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < k; i++ {
			if !cur.Next(ctx) {
				t.Fatalf("k=%d: cursor exhausted at row %d: %v", k, i, cur.Err())
			}
			row := cur.Row()
			for col := range cur.Vars() {
				ct, cok := row.Term(col)
				ft, fok := full.TermAt(i, col)
				if cok != fok || ct != ft {
					t.Fatalf("k=%d row %d col %d: cursor=(%v,%v) full=(%v,%v)", k, i, col, ct, cok, ft, fok)
				}
			}
		}
		cur.Close()
		if cur.Next(ctx) {
			t.Fatal("Next succeeded after Close")
		}
		if cur.Err() != nil {
			t.Fatalf("Err after clean partial drain = %v", cur.Err())
		}
	}
}

// TestCursorLimitEqualsFullPrefix: a query-level LIMIT (served by the
// bounded top-k operator) must return exactly the prefix of the
// unlimited result, including with OFFSET and DISTINCT.
func TestCursorLimitEqualsFullPrefix(t *testing.T) {
	checkLimitEqualsFullPrefix(t, joinAuto)
}

// TestParallelLimitEqualsSequentialPage is the same page-vs-full-drain
// equality with every pattern forced through the hash join, whatever
// the cost model would have picked. (The name is pinned by the tier-1
// floor list.)
func TestParallelLimitEqualsSequentialPage(t *testing.T) {
	checkLimitEqualsFullPrefix(t, joinForceHash)
}

func checkLimitEqualsFullPrefix(t *testing.T, join int32) {
	t.Helper()
	ds, base := joinFixture()
	full, err := evalJoin(ds, base, join)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ limit, offset int }{
		{10, 0}, {1, 0}, {25, 13}, {0, 5}, {10, 8995}, {10, 9005},
	} {
		q := MustParse(fmt.Sprintf("%s LIMIT %d OFFSET %d", joinFixtureQuerySrc, tc.limit, tc.offset))
		page, err := evalJoin(ds, q, join)
		if err != nil {
			t.Fatal(err)
		}
		want := full.Len() - tc.offset
		if want < 0 {
			want = 0
		}
		if want > tc.limit {
			want = tc.limit
		}
		if page.Len() != want {
			t.Fatalf("limit=%d offset=%d: rows = %d, want %d", tc.limit, tc.offset, page.Len(), want)
		}
		for i := 0; i < page.Len(); i++ {
			for col := range page.Vars {
				pt, pok := page.TermAt(i, col)
				ft, fok := full.TermAt(tc.offset+i, col)
				if pok != fok || pt != ft {
					t.Fatalf("limit=%d offset=%d row %d: page=(%v,%v) full=(%v,%v)",
						tc.limit, tc.offset, i, pt, pok, ft, fok)
				}
			}
		}
	}
}

const joinFixtureQuerySrc = `
PREFIX ex: <http://ex.org/>
SELECT ?a ?c ?w WHERE { ?a ex:p0 ?b . ?b ex:p1 ?c . ?a ex:p2 ?w }`

// TestOffsetOverflowClamped: an offset near MaxInt must yield an empty
// page (there are never MaxInt rows), not an overflowed top-k capacity
// that silently misbehaves. Regression for the REST paging sweep; the
// HTTP-level test lives in internal/rest.
func TestOffsetOverflowClamped(t *testing.T) {
	ds, q := joinFixture()
	for _, offset := range []int{math.MaxInt, math.MaxInt - 1, math.MaxInt64 - 100} {
		q.Limit, q.Offset = 1, offset
		res, err := Eval(ds, q)
		if err != nil {
			t.Fatalf("offset=%d: %v", offset, err)
		}
		if res.Len() != 0 {
			t.Fatalf("offset=%d: got %d rows, want empty page", offset, res.Len())
		}
	}
	// The boundary that still fits must keep working as a normal page.
	q.Limit, q.Offset = 1, 8999
	res, err := Eval(ds, q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 {
		t.Fatalf("offset=8999 limit=1: got %d rows, want 1", res.Len())
	}
}

// TestLimitPushdownAllocs pins the O(page) cost of a LIMIT over the
// 9k-row join with default settings: the bounded top-k keeps 10 rows, so
// an evaluation allocates its plan (some 15 of the count: every
// evaluation plans), the hash-join build sides and little else. A
// stage that batches the join output ahead of the top-k shows up here
// as hundreds of allocations. Mallocs are read from MemStats rather
// than testing.AllocsPerRun because the latter pins GOMAXPROCS to 1,
// which would hide any stage that only engages with spare cores.
func TestLimitPushdownAllocs(t *testing.T) {
	ds, _ := joinFixture()
	q := MustParse(joinFixtureQuerySrc + " LIMIT 10")
	eval := func() {
		res, err := Eval(ds, q)
		if err != nil {
			t.Fatal(err)
		}
		if res.Len() != 10 {
			t.Fatalf("rows = %d, want 10", res.Len())
		}
	}
	eval() // compile the slot layout, warm the pools
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		eval()
	}
	runtime.ReadMemStats(&after)
	if allocs := (after.Mallocs - before.Mallocs) / runs; allocs > 90 {
		t.Fatalf("LIMIT 10 over the 9k-row join: %d allocs per evaluation, want <= 90", allocs)
	}
}

func TestCursorSolutionsSeq(t *testing.T) {
	ds := rdf.NewDataset()
	ex := func(s string) rdf.Term { return rdf.IRI("http://ex.org/" + s) }
	for i := 0; i < 5; i++ {
		ds.Default().MustAdd(rdf.T(ex(fmt.Sprintf("s%d", i)), ex("p"), rdf.IntLit(int64(i))))
	}
	ctx := context.Background()

	cur, err := RunCursor(ds, `PREFIX ex: <http://ex.org/> SELECT ?s ?v WHERE { ?s ex:p ?v }`)
	if err != nil {
		t.Fatal(err)
	}
	var got []Binding
	for b := range cur.Solutions(ctx) {
		got = append(got, b)
	}
	if cur.Err() != nil {
		t.Fatal(cur.Err())
	}
	if len(got) != 5 {
		t.Fatalf("solutions = %d", len(got))
	}
	// Break mid-iteration: the cursor keeps its position.
	cur2, err := RunCursor(ds, `PREFIX ex: <http://ex.org/> SELECT ?s ?v WHERE { ?s ex:p ?v }`)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for range cur2.Solutions(ctx) {
		n++
		if n == 2 {
			break
		}
	}
	rest := 0
	for range cur2.Solutions(ctx) {
		rest++
	}
	if n != 2 || rest != 3 {
		t.Fatalf("partial = %d, rest = %d", n, rest)
	}
}

func TestCursorAsk(t *testing.T) {
	ds := rdf.NewDataset()
	ds.Default().MustAdd(rdf.T(rdf.IRI("s"), rdf.IRI("p"), rdf.IRI("o")))
	ctx := context.Background()

	cur, err := RunCursor(ds, `ASK { <s> <p> <o> . }`)
	if err != nil {
		t.Fatal(err)
	}
	if cur.Form() != FormAsk {
		t.Fatalf("form = %v", cur.Form())
	}
	if !cur.Next(ctx) {
		t.Fatal("ASK with a witness should yield one row")
	}
	if cur.Next(ctx) {
		t.Fatal("ASK should yield at most one row")
	}
	cur, err = RunCursor(ds, `ASK { <s> <p> <nope> . }`)
	if err != nil {
		t.Fatal(err)
	}
	if cur.Next(ctx) {
		t.Fatal("ASK without a witness should yield no rows")
	}
	if cur.Err() != nil {
		t.Fatal(cur.Err())
	}
}

// TestCursorRowAccessors covers Row's column-level API including
// OPTIONAL misses.
func TestCursorRowAccessors(t *testing.T) {
	ds := rdf.NewDataset()
	ex := func(s string) rdf.Term { return rdf.IRI("http://ex.org/" + s) }
	ds.Default().MustAdd(rdf.T(ex("s0"), ex("p"), rdf.IntLit(1)))
	ds.Default().MustAdd(rdf.T(ex("s1"), ex("p"), rdf.IntLit(2)))
	ds.Default().MustAdd(rdf.T(ex("s1"), ex("q"), rdf.Lit("x")))

	cur, err := RunCursor(ds, `PREFIX ex: <http://ex.org/>
SELECT ?s ?w WHERE { ?s ex:p ?v OPTIONAL { ?s ex:q ?w } }`)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if got := cur.Vars(); len(got) != 2 || got[0] != "s" || got[1] != "w" {
		t.Fatalf("vars = %v", got)
	}
	// Canonical order sorts by ?s: s0 (w unbound) then s1 (w = "x").
	if !cur.Next(ctx) {
		t.Fatal("no first row")
	}
	row := cur.Row()
	if row.Len() != 2 || row.Var(0) != "s" {
		t.Fatalf("row shape: len=%d var0=%q", row.Len(), row.Var(0))
	}
	if s, ok := row.Term(0); !ok || s != ex("s0") {
		t.Fatalf("row0 ?s = %v, %v", s, ok)
	}
	if _, ok := row.Term(1); ok {
		t.Fatal("row0 ?w should be unbound")
	}
	if b := row.Binding(); len(b) != 1 || b["s"] != ex("s0") {
		t.Fatalf("row0 binding = %v", b)
	}
	if !cur.Next(ctx) {
		t.Fatal("no second row")
	}
	if w, ok := cur.Row().Term(1); !ok || w != rdf.Lit("x") {
		t.Fatalf("row1 ?w = %v, %v", w, ok)
	}
	if cur.Next(ctx) {
		t.Fatal("unexpected third row")
	}
}
