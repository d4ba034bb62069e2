package federate

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mdm/internal/relalg"
	"mdm/internal/relalg/relalgtest"
)

// gateSource blocks every fetch until release is closed, counting
// fetches — the instrument for deterministic singleflight tests.
type gateSource struct {
	name    string
	release chan struct{}
	fetches atomic.Int32
	rel     *relalg.Relation
	err     error
}

func newGateSource(name string) *gateSource {
	rel := relalg.NewRelation("a")
	rel.MustAppend(relalg.Row{relalg.Int(42)})
	return &gateSource{name: name, release: make(chan struct{}), rel: rel}
}

func (g *gateSource) Name() string      { return g.name }
func (g *gateSource) Columns() []string { return []string{"a"} }
func (g *gateSource) Fetch(ctx context.Context) (*relalg.Relation, error) {
	g.fetches.Add(1)
	select {
	case <-g.release:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return g.rel, g.err
}

// TestCacheSingleflight: N concurrent Gets for one source share exactly
// one fetch; the dedup counter accounts for every non-leader. Run under
// -race in CI.
func TestCacheSingleflight(t *testing.T) {
	src := newGateSource("shared")
	c := NewCache()
	const n = 8

	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rel, err := c.Get(context.Background(), src, nil, fetchSource)
			if err == nil && rel.Len() != 1 {
				err = errors.New("bad relation")
			}
			errs[i] = err
		}(i)
	}
	// Wait until every goroutine has registered (1 miss + n-1 shared),
	// then release the single fetch.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := c.Stats()
		if st.Misses+st.Shared == n {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines never converged: %+v", c.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	close(src.release)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("get %d: %v", i, err)
		}
	}
	if got := src.fetches.Load(); got != 1 {
		t.Fatalf("fetches = %d, want 1 (singleflight)", got)
	}
	st := c.Stats()
	if st.Misses != 1 || st.Shared != n-1 {
		t.Fatalf("stats = %+v, want 1 miss / %d shared", st, n-1)
	}

	// A completed fetch leaves nothing behind: a later Get refetches.
	if _, err := c.Get(context.Background(), src, nil, fetchSource); err != nil {
		t.Fatal(err)
	}
	if got := src.fetches.Load(); got != 2 {
		t.Fatalf("fetches after the first completed = %d, want 2", got)
	}
}

// TestCacheErrorsNotCached: a failed fetch is surfaced to its waiters
// but not retained; the next Get retries and can succeed.
func TestCacheErrorsNotCached(t *testing.T) {
	src := newGateSource("flaky")
	close(src.release)
	src.err = errors.New("boom")
	c := NewCache()
	ctx := context.Background()
	if _, err := c.Get(ctx, src, nil, fetchSource); err == nil {
		t.Fatal("expected error")
	}
	src.err = nil
	rel, err := c.Get(ctx, src, nil, fetchSource)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 1 {
		t.Fatalf("rows = %d", rel.Len())
	}
	if got := src.fetches.Load(); got != 2 {
		t.Fatalf("fetches = %d, want 2 (error not cached)", got)
	}
}

// TestCacheWaiterCancelDoesNotPoisonFetch: a waiter abandoning its Get
// (client disconnect) gets its own ctx error; the shared fetch keeps
// running and serves the surviving caller.
func TestCacheWaiterCancelDoesNotPoisonFetch(t *testing.T) {
	src := newGateSource("poison")
	c := NewCache()

	type res struct {
		rel *relalg.Relation
		err error
	}
	leader := make(chan res, 1)
	go func() {
		rel, err := c.Get(context.Background(), src, nil, fetchSource)
		leader <- res{rel, err}
	}()
	// Wait for the leader's fetch to start, then join and cancel.
	deadline := time.Now().Add(5 * time.Second)
	for src.fetches.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("leader fetch never started")
		}
		time.Sleep(time.Millisecond)
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Get(canceled, src, nil, fetchSource); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled waiter err = %v, want Canceled", err)
	}
	close(src.release)
	r := <-leader
	if r.err != nil {
		t.Fatalf("leader err = %v (poisoned by canceled waiter?)", r.err)
	}
	if r.rel.Len() != 1 {
		t.Fatalf("leader rows = %d", r.rel.Len())
	}
	if got := src.fetches.Load(); got != 1 {
		t.Fatalf("fetches = %d, want 1", got)
	}
}

// TestCacheKeyedByColumns: Gets for one column list of a source share its
// in-flight fetch; a Get for another list of the same source starts a
// fetch of its own and is never answered from the first. Once complete,
// neither fetch is kept.
func TestCacheKeyedByColumns(t *testing.T) {
	src := newGateSource("cols")
	c := NewCache()
	ctx := context.Background()
	gets := [][]string{{"a"}, {"a"}, nil, {"a"}}
	var wg sync.WaitGroup
	for _, cols := range gets {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.Get(ctx, src, cols, fetchSource); err != nil {
				t.Error(err)
			}
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for c.Stats().Misses+c.Stats().Shared != int64(len(gets)) {
		if time.Now().After(deadline) {
			t.Fatalf("gets never converged: %+v", c.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	close(src.release)
	wg.Wait()
	if st := c.Stats(); st.Misses != 2 || st.Shared != 2 {
		t.Fatalf("stats = %+v, want 2 misses (one per column list) / 2 shared", st)
	}
	if got := src.fetches.Load(); got != 2 {
		t.Fatalf("fetches = %d, want 2", got)
	}
	// Completed: a later Get for either list fetches again.
	for _, cols := range [][]string{{"a"}, nil} {
		if _, err := c.Get(ctx, src, cols, fetchSource); err != nil {
			t.Fatal(err)
		}
	}
	if st := c.Stats(); st.Misses != 4 || src.fetches.Load() != 4 {
		t.Fatalf("stats = %+v, fetches = %d; want 4 misses and 4 fetches", st, src.fetches.Load())
	}
}

// TestEngineSharesInflightFetchAcrossRuns: two concurrent Runs over the
// same wrapper issue one source fetch (the "N concurrent walks, one
// HTTP request" property of the tentpole). The wrapper is every run's
// build side, so each run keys the one shared snapshot's own rows; under
// -race, and by the snapshot equal to a copy taken before the runs, no
// run writes to them.
func TestEngineSharesInflightFetchAcrossRuns(t *testing.T) {
	src := newGateSource("walked")
	src.rel = relalg.NewRelation("a")
	for _, v := range []relalg.Value{relalg.Int(42), relalg.Null(), relalg.Int(7), relalg.Int(42)} {
		src.rel.MustAppend(relalg.Row{v})
	}
	before := make([]relalg.Row, len(src.rel.Rows))
	for i, row := range src.rel.Rows {
		before[i] = row.Clone()
	}
	probe := relalg.NewRelation("a")
	for _, i := range []int64{42, 9, 7} {
		probe.MustAppend(relalg.Row{relalg.Int(i)})
	}
	eng := NewEngine()
	plan := relalg.NewJoin(relalg.NewScan(relalgtest.NewMemSource("probe", probe)), relalg.NewScan(src), [][2]string{{"a", "a"}})
	prog, err := Prepare(plan)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make([]error, 4)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cur, err := eng.RunProgram(context.Background(), prog, RunOpts{Limit: -1, Offset: -1})
			if err == nil {
				var got *relalg.Relation
				if got, err = cur.Materialize(context.Background()); err == nil && got.Len() != 3 {
					err = fmt.Errorf("%d rows, want 3", got.Len())
				}
			}
			errs[i] = err
		}(i)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := eng.cache.Stats()
		if st.Misses+st.Shared == 2*int64(len(errs)) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("runs never converged: %+v", eng.cache.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	close(src.release)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
	if got := src.fetches.Load(); got != 1 {
		t.Fatalf("fetches = %d, want 1 across 4 concurrent walks", got)
	}
	for i, row := range src.rel.Rows {
		if !slices.Equal(row, before[i]) {
			t.Fatalf("snapshot row %d = %#v after the runs, was %#v", i, row, before[i])
		}
	}
}
