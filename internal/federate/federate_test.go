package federate

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mdm/internal/relalg"
	"mdm/internal/relalg/relalgtest"
	"mdm/internal/schema"
	"mdm/internal/wrapper"
)

// sleepSource is a RowSource with injected latency; it honors ctx
// cancellation during the sleep (like a real HTTP fetch would).
type sleepSource struct {
	name    string
	delay   time.Duration
	rel     *relalg.Relation
	fetches atomic.Int32
	// canceled is closed when a fetch observed ctx cancellation.
	canceled   chan struct{}
	cancelOnce sync.Once
}

func newSleepSource(name string, delay time.Duration, rel *relalg.Relation) *sleepSource {
	return &sleepSource{name: name, delay: delay, rel: rel, canceled: make(chan struct{})}
}

func (s *sleepSource) Name() string      { return s.name }
func (s *sleepSource) Columns() []string { return s.rel.Cols }

func (s *sleepSource) Fetch(ctx context.Context) (*relalg.Relation, error) {
	s.fetches.Add(1)
	t := time.NewTimer(s.delay)
	defer t.Stop()
	select {
	case <-t.C:
		return s.rel, nil
	case <-ctx.Done():
		s.cancelOnce.Do(func() { close(s.canceled) })
		return nil, ctx.Err()
	}
}

func rel2(col1, col2 string, pairs ...[2]int64) *relalg.Relation {
	rel := relalg.NewRelation(col1, col2)
	for _, p := range pairs {
		rel.MustAppend(relalg.Row{relalg.Int(p[0]), relalg.Int(p[1])})
	}
	return rel
}

// TestJoinScattersBothSidesConcurrently is the regression test for the
// sequential-fetch behavior of Join.Execute: a two-wrapper join run
// through the engine must have both HTTP fetches in flight at once.
// Each blocking source releases only when BOTH have arrived, so a
// sequential executor would stall until the in-handler timeout and
// fail; the scatter phase completes immediately.
func TestJoinScattersBothSidesConcurrently(t *testing.T) {
	var armed atomic.Bool
	var arrived atomic.Int32
	barrier := make(chan struct{})
	payload := map[string][]byte{
		"/players": []byte(`[{"id":1,"teamId":10},{"id":2,"teamId":11}]`),
		"/teams":   []byte(`[{"teamId":10,"tname":5},{"teamId":11,"tname":6}]`),
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if armed.Load() {
			if arrived.Add(1) == 2 {
				close(barrier)
			}
			select {
			case <-barrier:
			case <-time.After(5 * time.Second):
				http.Error(w, "sequential fetch: barrier never released", http.StatusInternalServerError)
				return
			}
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(payload[r.URL.Path])
	}))
	defer srv.Close()

	ctx := context.Background()
	w1, err := wrapper.NewHTTP(ctx, "w1", "players-api", srv.URL+"/players", wrapper.WithFormat(schema.FormatJSON))
	if err != nil {
		t.Fatal(err)
	}
	w2, err := wrapper.NewHTTP(ctx, "w2", "teams-api", srv.URL+"/teams", wrapper.WithFormat(schema.FormatJSON))
	if err != nil {
		t.Fatal(err)
	}
	armed.Store(true)

	plan := relalg.NewJoin(relalg.NewScan(w1), relalg.NewScan(w2), [][2]string{{"teamId", "teamId"}})
	eng := NewEngine()
	eng.SourceTimeout = 10 * time.Second
	runCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	cur, err := eng.Run(runCtx, plan)
	if err != nil {
		t.Fatalf("concurrent scatter failed: %v", err)
	}
	got, err := cur.Materialize(runCtx)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 {
		t.Fatalf("rows = %d, want 2:\n%s", got.Len(), got.Table())
	}
}

// TestWalkFederationSpeedup pins the scatter win the benchmark
// (BenchmarkWalkFederation) tracks: over three latency-injected
// wrappers, federated execution must be at least 2x faster than the
// sequential materializing path (ideal: 3 x latency vs 1 x latency).
func TestWalkFederationSpeedup(t *testing.T) {
	const latency = 60 * time.Millisecond
	players := newSleepSource("players", latency, rel2("pid", "tid", [2]int64{1, 10}, [2]int64{2, 10}, [2]int64{3, 11}))
	teams := newSleepSource("teams", latency, rel2("tid", "lid", [2]int64{10, 100}, [2]int64{11, 100}))
	leagues := newSleepSource("leagues", latency, rel2("lid", "rank", [2]int64{100, 1}))
	plan := relalg.NewJoin(
		relalg.NewJoin(relalg.NewScan(players), relalg.NewScan(teams), [][2]string{{"tid", "tid"}}),
		relalg.NewScan(leagues), [][2]string{{"lid", "lid"}})

	ctx := context.Background()
	start := time.Now()
	want, err := relalgtest.Execute(ctx, plan)
	if err != nil {
		t.Fatal(err)
	}
	seq := time.Since(start)

	eng := NewEngine()
	start = time.Now()
	cur, err := eng.Run(ctx, plan)
	if err != nil {
		t.Fatal(err)
	}
	got, err := cur.Materialize(ctx)
	if err != nil {
		t.Fatal(err)
	}
	fed := time.Since(start)

	if !want.Equal(got) {
		t.Fatalf("results differ:\nseq:\n%s\nfed:\n%s", want.Table(), got.Table())
	}
	if got.Len() != 3 {
		t.Fatalf("rows = %d", got.Len())
	}
	if fed*2 > seq {
		t.Errorf("federated %v not ≥2x faster than sequential %v", fed, seq)
	}
}

// TestScatterFirstErrorCancelsSiblings: one failing source aborts the
// scatter — Run reports the root cause, not the induced cancellation,
// far inside the blocked sibling's hour. The sibling's wait is what the
// scatter cancels; its fill is shared and detached, so SourceTimeout is
// what ends it.
func TestScatterFirstErrorCancelsSiblings(t *testing.T) {
	sentinel := errors.New("source exploded")
	slow := newSleepSource("slow", time.Hour, rel2("a", "b"))
	bad := &failSource{name: "bad", cols: []string{"a", "b"}, err: sentinel}
	plan := relalg.NewJoin(relalg.NewScan(bad), relalg.NewScan(slow), [][2]string{{"a", "a"}})

	eng := NewEngine()
	eng.SourceTimeout = 50 * time.Millisecond
	eng.retries = 0 // timeouts are retryable; keep the sibling's fill single-attempt
	start := time.Now()
	_, err := eng.Run(context.Background(), plan)
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want %v", err, sentinel)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("scatter took %v; sibling not canceled", d)
	}
	// The sibling either never fetched (the failure won the race) or
	// its fetch ends at the source timeout.
	if slow.fetches.Load() > 0 {
		select {
		case <-slow.canceled:
		case <-time.After(5 * time.Second):
			t.Fatal("slow source's fill outlived SourceTimeout")
		}
	}
}

// TestScatterSourceTimeout: a hung source trips the per-source deadline
// and surfaces context.DeadlineExceeded (what the REST layer maps to
// 504), through the cache-owned fetch path.
func TestScatterSourceTimeout(t *testing.T) {
	slow := newSleepSource("slow", time.Hour, rel2("a", "b"))
	eng := NewEngine()
	eng.SourceTimeout = 30 * time.Millisecond
	eng.retries = 0 // timeouts are retryable; keep the test single-attempt
	_, err := eng.Run(context.Background(), relalg.NewScan(slow))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
}

// TestScatterCallerCancel: a canceled caller (client disconnect)
// surfaces context.Canceled (the REST layer's 499) even while the
// cache-owned fetch is still in flight.
func TestScatterCallerCancel(t *testing.T) {
	slow := newSleepSource("slow", time.Hour, rel2("a", "b"))
	eng := NewEngine()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	_, err := eng.Run(ctx, relalg.NewScan(slow))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled", err)
	}
}

// TestCursorCancelMidDrain: cancellation between Next calls stops the
// drain with ctx's error.
func TestCursorCancelMidDrain(t *testing.T) {
	rel := relalg.NewRelation("a")
	for i := 0; i < 100; i++ {
		rel.MustAppend(relalg.Row{relalg.Int(int64(i))})
	}
	eng := NewEngine()
	ctx, cancel := context.WithCancel(context.Background())
	cur, err := eng.Run(ctx, relalg.NewScan(relalgtest.NewMemSource("m", rel)))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if !cur.Next(ctx) {
			t.Fatalf("premature end at row %d: %v", i, cur.Err())
		}
	}
	cancel()
	if cur.Next(ctx) {
		t.Fatal("Next succeeded after cancel")
	}
	if !errors.Is(cur.Err(), context.Canceled) {
		t.Fatalf("Err = %v, want Canceled", cur.Err())
	}
}

// failSource errors on every fetch.
type failSource struct {
	name string
	cols []string
	err  error
}

func (f *failSource) Name() string      { return f.name }
func (f *failSource) Columns() []string { return f.cols }
func (f *failSource) Fetch(context.Context) (*relalg.Relation, error) {
	return nil, f.err
}

// TestScatterSchemaGuard: a source misreporting its schema fails the
// run loudly (the Scan.Execute guard, applied at fetch time, by name:
// rows are consumed by position, so the right number of wrong columns
// would corrupt a join silently). It is a fault of the request's shape,
// not of the source's health: one attempt per run, and a threshold's
// worth of runs leaves the breaker closed.
func TestScatterSchemaGuard(t *testing.T) {
	for _, tc := range []struct {
		name     string
		returned []string
		plan     func(relalg.RowSource) relalg.Plan
		want     string
	}{
		{"arity", []string{"a"}, func(s relalg.RowSource) relalg.Plan { return relalg.NewScan(s) },
			"returned 1 columns, declared 2"},
		{"swapped names", []string{"b", "a"}, func(s relalg.RowSource) relalg.Plan { return relalg.NewScan(s) },
			"returned columns [b a], declared [a b]"},
		// Asked for [b]: [b] or [a b] would do, one other column does not.
		{"neither shape", []string{"a"}, func(s relalg.RowSource) relalg.Plan { return relalg.NewProject(relalg.NewScan(s), "b") },
			"returned 1 columns, declared 2"},
	} {
		lying := &lyingSource{returned: tc.returned}
		eng := NewEngine()
		for i := 0; i < breakerThreshold; i++ {
			_, err := eng.Run(context.Background(), tc.plan(lying))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("%s: err = %v, want the schema guard (%s)", tc.name, err, tc.want)
			}
			if !errors.Is(err, errSchema) || Classify(err) != ClassSchema {
				t.Errorf("%s: class = %s, want %s", tc.name, Classify(err), ClassSchema)
			}
		}
		if n := lying.fetches.Load(); n != breakerThreshold {
			t.Errorf("%s: fetches = %d, want %d (one per run: not retried)", tc.name, n, breakerThreshold)
		}
		if st := eng.breakers.For("liar").State(); st != StateClosed {
			t.Errorf("%s: breaker %s after a schema fault, want closed", tc.name, st)
		}
	}
}

type lyingSource struct {
	returned []string
	fetches  atomic.Int32
}

func (l *lyingSource) Name() string      { return "liar" }
func (l *lyingSource) Columns() []string { return []string{"a", "b"} }
func (l *lyingSource) Fetch(context.Context) (*relalg.Relation, error) {
	l.fetches.Add(1)
	return relalg.NewRelation(l.returned...), nil
}

// TestDemand pins what a scatter asks of a source: the list of its one
// projection as written, the union of several in source column order,
// and everything ("*") when a scan stands bare, the union is the whole
// signature, or the projection keeps nothing.
func TestDemand(t *testing.T) {
	s := relalg.NewScan(relalgtest.NewMemSource("s", relalg.NewRelation("a", "b", "c", "d")))
	o := relalg.NewScan(relalgtest.NewMemSource("o", relalg.NewRelation("k")))
	pi := func(cols ...string) relalg.Plan { return relalg.NewProject(s, cols...) }
	for _, tc := range []struct {
		plan relalg.Plan
		want string
	}{
		{s, "*"},
		{pi("c", "a"), "c,a"},
		{relalg.NewDistinct(relalg.NewRename(pi("c", "a"), [][2]string{{"a", "x"}})), "c,a"},
		{relalg.NewUnion(pi("c", "a"), pi("c", "a")), "c,a"},
		{relalg.NewUnion(pi("c", "a"), pi("a", "c")), "a,c"},
		{relalg.NewJoin(pi("d"), relalg.NewUnion(pi("b", "a"), o), nil), "a,b,d"},
		{relalg.NewJoin(pi("a", "b"), pi("c", "d"), nil), "*"},
		{relalg.NewJoin(pi("a"), relalg.NewDistinct(s), nil), "*"},
		{relalg.NewJoin(relalg.NewDistinct(s), pi("a"), nil), "*"},
		{relalg.NewProject(relalg.NewDistinct(s), "a"), "*"},
		{relalg.NewProject(relalg.NewJoin(s, o, nil), "a"), "*"},
		{pi(), "*"},
	} {
		want := demand{srcs: map[string]relalg.RowSource{}}
		want.collect(tc.plan)
		got := "*"
		if cols, narrowed := want.cols["s"]; narrowed {
			got = strings.Join(cols, ",")
		}
		if _, seen := want.srcs["s"]; !seen || got != tc.want {
			t.Errorf("%s: asks s for %s, want %s", relalg.Algebra(tc.plan), got, tc.want)
		}
	}
}

// TestRunPageBounds: limit 0 produces an empty cursor without touching
// the pipeline; offset past the end drains empty.
func TestRunPageBounds(t *testing.T) {
	rel := rel2("a", "b", [2]int64{1, 2}, [2]int64{3, 4})
	plan := relalg.NewScan(relalgtest.NewMemSource("m", rel))
	eng := NewEngine()
	ctx := context.Background()
	for _, tc := range []struct {
		limit, offset, want int
	}{
		{0, 0, 0}, {1, 0, 1}, {-1, 1, 1}, {5, 5, 0}, {-1, -1, 2},
	} {
		cur, err := eng.RunWith(ctx, plan, RunOpts{Limit: tc.limit, Offset: tc.offset})
		if err != nil {
			t.Fatal(err)
		}
		got, err := cur.Materialize(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if got.Len() != tc.want {
			t.Errorf("limit=%d offset=%d: rows = %d, want %d", tc.limit, tc.offset, got.Len(), tc.want)
		}
	}
}

// TestScatterParallelismBounded: with more sources than the fan-out,
// exactly fanout fetches overlap at the peak.
func TestScatterParallelismBounded(t *testing.T) {
	var inflight, peak atomic.Int32
	mk := func(i int) relalg.RowSource {
		return &gaugeSource{name: fmt.Sprintf("g%d", i), inflight: &inflight, peak: &peak}
	}
	plans := make([]relalg.Plan, fanout+4)
	for i := range plans {
		plans[i] = relalg.NewProject(relalg.NewScan(mk(i)), "a")
	}
	// Union of projections keeps every source in one plan.
	plan := relalg.NewUnion(plans...)
	eng := NewEngine()
	cur, err := eng.Run(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cur.Materialize(context.Background()); err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p != fanout {
		t.Fatalf("peak concurrent fetches = %d, want %d", p, fanout)
	}
}

type gaugeSource struct {
	name           string
	inflight, peak *atomic.Int32
}

func (g *gaugeSource) Name() string      { return g.name }
func (g *gaugeSource) Columns() []string { return []string{"a"} }
func (g *gaugeSource) Fetch(context.Context) (*relalg.Relation, error) {
	cur := g.inflight.Add(1)
	for {
		p := g.peak.Load()
		if cur <= p || g.peak.CompareAndSwap(p, cur) {
			break
		}
	}
	time.Sleep(50 * time.Millisecond) // long enough for every worker to arrive
	g.inflight.Add(-1)
	rel := relalg.NewRelation("a")
	rel.MustAppend(relalg.Row{relalg.Int(1)})
	return rel, nil
}
