package federate

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"mdm/internal/relalg"
	"mdm/internal/relalg/relalgtest"
	"mdm/internal/schema"
	"mdm/internal/wrapper"
)

// chaosSources builds three chaos-wrapped in-memory sources with
// disjoint rows and identical schemas. Same seed, same fetch sequence →
// same injected outcomes.
func chaosSources(seed int64) []*wrapper.Chaos {
	mk := func(name string, base int64, n int) *wrapper.Chaos {
		docs := make([]schema.Doc, n)
		for i := range docs {
			docs[i] = schema.Doc{"id": relalg.Int(base + int64(i)), "val": relalg.Int(int64(i))}
		}
		return wrapper.NewChaos(wrapper.NewMem(name, name+"-src", docs, nil), seed)
	}
	return []*wrapper.Chaos{mk("alpha", 100, 4), mk("beta", 200, 5), mk("gamma", 300, 3)}
}

// unionPlan is the 3-source union walk shape (what the rewriter emits
// for a multi-version source).
func unionPlan(srcs []*wrapper.Chaos) relalg.Plan {
	children := make([]relalg.Plan, len(srcs))
	for i, s := range srcs {
		children[i] = relalg.NewScan(s)
	}
	return relalg.NewUnion(children...)
}

// oracleUnion materializes the union through the reference executor,
// with the named sources replaced by empty relations — the ground truth
// for "correct rows from the surviving fraction".
func oracleUnion(t *testing.T, srcs []*wrapper.Chaos, missing map[string]bool) *relalg.Relation {
	t.Helper()
	children := make([]relalg.Plan, len(srcs))
	for i, s := range srcs {
		rel, err := s.Wrapper.Fetch(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if missing[s.Name()] {
			rel = relalg.NewRelation(rel.Cols...)
		}
		children[i] = relalg.NewScan(relalgtest.NewMemSource(s.Name(), rel))
	}
	want, err := relalgtest.Execute(context.Background(), relalg.NewUnion(children...))
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// resilientEngine is an engine with instant (but still bounded-count)
// retries so fault tests run fast.
func resilientEngine(retries, threshold int, cooldown time.Duration) *Engine {
	eng := NewEngine()
	eng.Retry = RetryPolicy{Max: retries, sleep: func(context.Context, time.Duration) error { return nil }}
	eng.Breakers = NewBreakerSet(threshold, cooldown)
	return eng
}

// TestChaosPartialOutageAnnotated: with 1 of 3 sources down, partial
// mode streams the two healthy sources' rows — oracle-equal on the
// surviving fraction — and annotates the missing source with its error
// class; the same engine in strict mode fails the query with the root
// cause instead.
func TestChaosPartialOutageAnnotated(t *testing.T) {
	srcs := chaosSources(1)
	srcs[1].Down(nil) // beta: persistent 503
	eng := resilientEngine(1, 100, time.Hour)
	plan := unionPlan(srcs)
	ctx := context.Background()

	cur, err := eng.RunWith(ctx, plan, RunOpts{Limit: -1, Offset: -1, Partial: PartialOn})
	if err != nil {
		t.Fatalf("partial run failed outright: %v", err)
	}
	if !cur.Partial() {
		t.Fatal("cursor not marked partial")
	}
	missing := cur.Missing()
	if len(missing) != 1 || missing[0].Source != "beta" || missing[0].Class != ClassHTTP5xx {
		t.Fatalf("missing = %+v, want beta/http_5xx", missing)
	}
	if len(cur.StaleSources()) != 0 {
		t.Fatalf("stale = %v, want none (serve-stale off)", cur.StaleSources())
	}
	got, err := cur.Materialize(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want := oracleUnion(t, srcs, map[string]bool{"beta": true})
	if !want.Equal(got) {
		t.Fatalf("partial rows differ from oracle:\nwant:\n%s\ngot:\n%s", want.Table(), got.Table())
	}

	// Strict mode: the same outage fails the whole query.
	_, err = eng.RunWith(ctx, plan, RunOpts{Limit: -1, Offset: -1, Partial: PartialOff})
	var st *wrapper.StatusError
	if !errors.As(err, &st) || st.Code != 503 {
		t.Fatalf("strict err = %v, want the injected 503", err)
	}
}

// TestChaosBreakerStopsFetches: repeated queries against a down source
// trip its breaker after exactly threshold failed fetch attempts; from
// then on queries fail fast without issuing fetches (the fetch-count
// assertion) and the missing annotation switches to breaker_open.
func TestChaosBreakerStopsFetches(t *testing.T) {
	srcs := chaosSources(2)
	srcs[2].Down(nil) // gamma
	const threshold = 3
	eng := resilientEngine(0, threshold, time.Hour)
	plan := unionPlan(srcs)
	ctx := context.Background()

	var last *Cursor
	for i := 0; i < 8; i++ {
		cur, err := eng.RunWith(ctx, plan, RunOpts{Limit: -1, Offset: -1, Partial: PartialOn})
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if _, err := cur.Materialize(ctx); err != nil {
			t.Fatalf("query %d drain: %v", i, err)
		}
		last = cur
	}
	if got := srcs[2].Fetches(); got != threshold {
		t.Fatalf("fetches against down source = %d, want %d (breaker must stop them)", got, threshold)
	}
	missing := last.Missing()
	if len(missing) != 1 || missing[0].Class != ClassBreakerOpen {
		t.Fatalf("missing = %+v, want gamma/breaker_open", missing)
	}
	if got := eng.Breakers.For("gamma").State(); got != StateOpen {
		t.Fatalf("breaker state = %v, want open", got)
	}
	st := eng.Breakers.Stats()
	if st.Opened != 1 || st.FastFails < 5 {
		t.Fatalf("breaker stats = %+v, want 1 opened and >=5 fast fails", st)
	}
	// Healthy siblings never tripped and were fetched every query
	// (dedup-only cache, sequential queries).
	if got := eng.Breakers.For("alpha").State(); got != StateClosed {
		t.Fatalf("alpha breaker = %v, want closed", got)
	}
}

// TestChaosBreakerRecoversViaProbe: after the cooldown one probe goes
// through; the source having healed, the probe closes the breaker and
// full results resume.
func TestChaosBreakerRecoversViaProbe(t *testing.T) {
	srcs := chaosSources(3)
	srcs[0].Down(nil)
	eng := resilientEngine(0, 1, time.Hour)
	clock := time.Unix(2000, 0)
	var mu sync.Mutex
	eng.Breakers.now = func() time.Time { mu.Lock(); defer mu.Unlock(); return clock }
	plan := unionPlan(srcs)
	ctx := context.Background()
	run := func() *Cursor {
		t.Helper()
		cur, err := eng.RunWith(ctx, plan, RunOpts{Limit: -1, Offset: -1, Partial: PartialOn})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cur.Materialize(ctx); err != nil {
			t.Fatal(err)
		}
		return cur
	}
	run() // trips the breaker (threshold 1)
	if got := eng.Breakers.For("alpha").State(); got != StateOpen {
		t.Fatalf("state = %v, want open", got)
	}
	srcs[0].Heal()
	cur := run() // still inside cooldown: fail fast, no fetch
	if m := cur.Missing(); len(m) != 1 || m[0].Class != ClassBreakerOpen {
		t.Fatalf("missing during cooldown = %+v", m)
	}
	mu.Lock()
	clock = clock.Add(2 * time.Hour)
	mu.Unlock()
	cur = run() // probe succeeds, breaker closes, full rows
	if cur.Partial() {
		t.Fatalf("result still partial after recovery: %+v", cur.Missing())
	}
	if got := eng.Breakers.For("alpha").State(); got != StateClosed {
		t.Fatalf("state after probe = %v, want closed", got)
	}
}

// TestChaosRetryRecoversFlakes: a transient double-flake recovers
// within the retry budget — the query succeeds completely, taking
// exactly the scripted number of attempts.
func TestChaosRetryRecoversFlakes(t *testing.T) {
	srcs := chaosSources(4)
	srcs[0].FailNext(2, nil)
	eng := resilientEngine(2, 100, time.Hour)
	ctx := context.Background()
	cur, err := eng.RunWith(ctx, unionPlan(srcs), RunOpts{Limit: -1, Offset: -1, Partial: PartialOff})
	if err != nil {
		t.Fatalf("strict run with recoverable flakes: %v", err)
	}
	got, err := cur.Materialize(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want := oracleUnion(t, srcs, nil)
	if !want.Equal(got) {
		t.Fatalf("rows differ from oracle after retry recovery")
	}
	if n := srcs[0].Fetches(); n != 3 {
		t.Fatalf("fetches = %d, want 3 (2 flakes + success)", n)
	}
	if cur.Partial() {
		t.Fatal("recovered result must not be partial")
	}
}

// TestChaosServeStaleFallback: with serve-stale on, a source that dies
// after one good fetch keeps answering from its last good snapshot,
// reported as stale (not missing) — the full row set stays available.
func TestChaosServeStaleFallback(t *testing.T) {
	srcs := chaosSources(5)
	eng := resilientEngine(0, 100, time.Hour)
	eng.PartialResults = true
	eng.ServeStale = true
	plan := unionPlan(srcs)
	ctx := context.Background()

	cur, err := eng.Run(ctx, plan) // healthy: populates the last-good store
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cur.Materialize(ctx); err != nil {
		t.Fatal(err)
	}

	srcs[1].Down(nil)
	cur, err = eng.Run(ctx, plan)
	if err != nil {
		t.Fatalf("serve-stale run: %v", err)
	}
	if !cur.Partial() {
		t.Fatal("stale substitution must mark the result partial")
	}
	if st := cur.StaleSources(); len(st) != 1 || st[0] != "beta" {
		t.Fatalf("stale = %v, want [beta]", st)
	}
	if len(cur.Missing()) != 0 {
		t.Fatalf("missing = %+v, want none (served stale instead)", cur.Missing())
	}
	got, err := cur.Materialize(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want := oracleUnion(t, srcs, nil) // data is static: stale == fresh
	if !want.Equal(got) {
		t.Fatal("stale-substituted rows differ from oracle")
	}

	// Forget drops the fallback: the source goes missing again.
	eng.Forget("beta")
	cur, err = eng.Run(ctx, plan)
	if err != nil {
		t.Fatal(err)
	}
	if m := cur.Missing(); len(m) != 1 || m[0].Source != "beta" {
		t.Fatalf("missing after Forget = %+v, want beta", m)
	}
}

// TestChaosStaleSnapshotMustFitTheRequest: the last good snapshot of a
// source that then dies stands in only for the columns it was fetched
// for. A walk that reads more of the source than the one that left it
// gets the source reported missing, not a snapshot short of columns; a
// walk that reads the same columns is served stale; Forget drops every
// width.
func TestChaosStaleSnapshotMustFitTheRequest(t *testing.T) {
	srcs := chaosSources(6)
	beta := srcs[1]
	eng := resilientEngine(0, 100, time.Hour)
	eng.PartialResults = true
	eng.ServeStale = true
	ctx := context.Background()
	narrow := relalg.NewProject(relalg.NewScan(beta), "id")
	whole := relalg.NewScan(beta)

	run := func(plan relalg.Plan) *Cursor {
		t.Helper()
		cur, err := eng.Run(ctx, plan)
		if err != nil {
			t.Fatal(err)
		}
		return cur
	}
	if got, err := run(narrow).Materialize(ctx); err != nil || len(got.Rows) != 5 {
		t.Fatalf("healthy narrow walk: %v rows, err %v", got, err)
	}
	beta.Down(nil)

	cur := run(whole)
	if m := cur.Missing(); len(m) != 1 || m[0].Source != "beta" || len(cur.StaleSources()) != 0 {
		t.Fatalf("wider walk: missing %+v stale %v, want beta missing (its last good snapshot has one column)", m, cur.StaleSources())
	}
	if got, err := cur.Materialize(ctx); err != nil || len(got.Rows) != 0 {
		t.Fatalf("wider walk streamed %v, err %v; want no rows", got, err)
	}

	cur = run(narrow)
	if st := cur.StaleSources(); len(st) != 1 || st[0] != "beta" {
		t.Fatalf("same-width walk: stale %v missing %+v, want beta served stale", st, cur.Missing())
	}
	if got, err := cur.Materialize(ctx); err != nil || len(got.Rows) != 5 || len(got.Cols) != 1 {
		t.Fatalf("stale narrow walk: %v, err %v", got, err)
	}

	eng.Forget("beta")
	if m := run(narrow).Missing(); len(m) != 1 {
		t.Fatalf("missing after Forget = %+v, want beta", m)
	}
}

// TestChaosSoakMixedQueries drives batches of concurrent mixed
// partial/strict queries against seeded-flaky sources (run under -race
// in CI's soak job) and asserts the degradation invariant on every
// outcome: a successful answer is either complete and oracle-equal, or
// correctly annotated and oracle-equal on the surviving fraction;
// strict queries never return partial rows.
func TestChaosSoakMixedQueries(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			srcs := chaosSources(seed)
			for i, s := range srcs {
				s.Flake(0.3, nil).WithLatency(time.Duration(i) * time.Millisecond)
			}
			// Tiny cooldown: breakers trip and recover within the soak.
			eng := resilientEngine(1, 3, time.Millisecond)
			plan := unionPlan(srcs)
			full := oracleUnion(t, srcs, nil)

			const rounds, width = 10, 4
			for round := 0; round < rounds; round++ {
				var wg sync.WaitGroup
				for q := 0; q < width; q++ {
					wg.Add(1)
					partial := (round+q)%2 == 0
					go func() {
						defer wg.Done()
						ctx := context.Background()
						mode := PartialOff
						if partial {
							mode = PartialOn
						}
						cur, err := eng.RunWith(ctx, plan, RunOpts{Limit: -1, Offset: -1, Partial: mode})
						if err != nil {
							if partial {
								t.Errorf("partial query failed outright: %v", err)
							}
							// Strict: failing is a legal outcome under flakes.
							return
						}
						got, err := cur.Materialize(ctx)
						if err != nil {
							t.Errorf("drain: %v", err)
							return
						}
						if !partial && cur.Partial() {
							t.Errorf("strict query returned partial rows: %+v", cur.Missing())
							return
						}
						missing := map[string]bool{}
						for _, m := range cur.Missing() {
							missing[m.Source] = true
						}
						want := full
						if len(missing) > 0 {
							want = oracleUnion(t, srcs, missing)
						}
						if !want.Equal(got) {
							t.Errorf("rows differ from oracle (missing=%v)", missing)
						}
					}()
				}
				wg.Wait()
			}
		})
	}
}
