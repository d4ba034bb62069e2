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
func resilientEngine(retries int) *Engine {
	eng := NewEngine()
	eng.retries = retries
	eng.sleep = func(context.Context, time.Duration) error { return nil }
	return eng
}

// TestChaosPartialOutageAnnotated: with 1 of 3 sources down, partial
// mode streams the two healthy sources' rows — oracle-equal on the
// surviving fraction — and annotates the missing source with its error
// class; the same engine in strict mode fails the query with the root
// cause instead.
func TestChaosPartialOutageAnnotated(t *testing.T) {
	srcs := chaosSources(1)
	srcs[1].Down(nil)         // beta: persistent 503
	eng := resilientEngine(1) // four strikes on beta: below the breaker threshold
	plan := unionPlan(srcs)
	ctx := context.Background()

	cur, err := eng.RunWith(ctx, plan, RunOpts{Limit: -1, Offset: -1, Partial: true})
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
	got, err := cur.Materialize(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want := oracleUnion(t, srcs, map[string]bool{"beta": true})
	if !want.Equal(got) {
		t.Fatalf("partial rows differ from oracle:\nwant:\n%s\ngot:\n%s", want.Table(), got.Table())
	}

	// Strict mode: the same outage fails the whole query.
	_, err = eng.RunWith(ctx, plan, RunOpts{Limit: -1, Offset: -1})
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
	const threshold = breakerThreshold
	eng := resilientEngine(0)
	before := readTransitions()
	plan := unionPlan(srcs)
	ctx := context.Background()

	var last *Cursor
	for i := 0; i < threshold+5; i++ {
		cur, err := eng.RunWith(ctx, plan, RunOpts{Limit: -1, Offset: -1, Partial: true})
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
	if got := eng.breakers.For("gamma").State(); got != StateOpen {
		t.Fatalf("breaker state = %v, want open", got)
	}
	st := readTransitions().since(before)
	if st.opened != 1 || st.fastFails < 5 {
		t.Fatalf("breaker transitions = %+v, want 1 opened and >=5 fast fails", st)
	}
	// Healthy siblings never tripped and were fetched every query
	// (a completed fetch is not kept, queries are sequential).
	if got := eng.breakers.For("alpha").State(); got != StateClosed {
		t.Fatalf("alpha breaker = %v, want closed", got)
	}
}

// TestChaosBreakerRecoversViaProbe: after the cooldown one probe goes
// through; the source having healed, the probe closes the breaker and
// full results resume.
func TestChaosBreakerRecoversViaProbe(t *testing.T) {
	srcs := chaosSources(3)
	srcs[0].Down(nil)
	eng := resilientEngine(0)
	clock := time.Unix(2000, 0)
	var mu sync.Mutex
	eng.breakers.now = func() time.Time { mu.Lock(); defer mu.Unlock(); return clock }
	plan := unionPlan(srcs)
	ctx := context.Background()
	run := func() *Cursor {
		t.Helper()
		cur, err := eng.RunWith(ctx, plan, RunOpts{Limit: -1, Offset: -1, Partial: true})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cur.Materialize(ctx); err != nil {
			t.Fatal(err)
		}
		return cur
	}
	for i := 0; i < breakerThreshold; i++ {
		run() // the last one trips the breaker
	}
	if got := eng.breakers.For("alpha").State(); got != StateOpen {
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
	if got := eng.breakers.For("alpha").State(); got != StateClosed {
		t.Fatalf("state after probe = %v, want closed", got)
	}
}

// TestChaosRetryRecoversFlakes: a transient double-flake recovers
// within the retry budget — the query succeeds completely, taking
// exactly the scripted number of attempts.
func TestChaosRetryRecoversFlakes(t *testing.T) {
	srcs := chaosSources(4)
	srcs[0].FailNext(2, nil)
	eng := resilientEngine(2)
	ctx := context.Background()
	cur, err := eng.RunWith(ctx, unionPlan(srcs), RunOpts{Limit: -1, Offset: -1})
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
			// A clock 10 000× the wall's: the cooldown lasts a
			// millisecond, so breakers trip and recover within the soak.
			eng := resilientEngine(1)
			start := time.Now()
			eng.breakers.now = func() time.Time { return start.Add(time.Since(start) * 10000) }
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
						cur, err := eng.RunWith(ctx, plan, RunOpts{Limit: -1, Offset: -1, Partial: partial})
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
