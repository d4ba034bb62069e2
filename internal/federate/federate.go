// Package federate executes optimized relalg plans the way a mediator
// over remote sources has to: source access is concurrent, result
// delivery is streamed.
//
// The materializing reference executor (relalgtest.Execute) walks the
// operator tree depth-first, so a plan over N wrappers pays the *sum* of
// the source fetch latencies and every operator materializes its full
// intermediate relation. This package prepares a plan once into a
// Program (program.go) — what to ask of each source, every column index,
// which joins share a build side — that its caller keeps for the plan's
// next run (the rewriter's memo holds each walk's), and splits each run
// into three phases:
//
//  1. SCATTER — the program's sources, the Scan leaves of the plan
//     deduplicated by source name, are fetched concurrently with
//     bounded parallelism. A source read only under projections is asked
//     for the columns they keep and nothing else (demand), so its
//     snapshot is as wide as the plan, not as wide as its signature. The
//     first fetch error cancels the remaining fetches; a per-source
//     deadline bounds each one.
//  2. SHARED FETCHES — every fetch goes through a Cache keyed by wrapper
//     identity and requested columns: concurrent walks reading the same
//     columns of a source share one in-flight fetch (singleflight), and a
//     completed fetch leaves nothing behind (cache.go).
//  3. STREAMING OPERATORS — the program binds to a tree of pull-based
//     iterators over the snapshots (iter.go): Project/Rename/Union/
//     Distinct stream row by row, and Join is a probe-side hash join
//     whose build side is an intrusive-chain table over the (already
//     fetched) right input, built once per run for every join that
//     builds on the same side. No operator materializes its output, so
//     memory beyond the source snapshots and build tables is O(page).
//
// Results are delivered through a Cursor (cursor.go) mirroring
// sparql.Cursor: Next(ctx)/Row()/Err()/Close(), with LIMIT/OFFSET
// applied inside the pipeline so a page costs O(sources + page) instead
// of O(result).
//
// Row order is deterministic and identical to relalgtest.Execute's
// (the oracle the equivalence harness pins): scans stream snapshot
// order, joins emit left-row order with build-side matches in build
// order, unions concatenate children in order. Paged reads are
// therefore prefixes/slices of the full drain for unchanged snapshots.
package federate

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"mdm/internal/obs"
	"mdm/internal/relalg"
)

// Engine runs relalg plans federated under one fixed policy: fan-out
// (below), retries (retry.go) and circuit breakers (breaker.go) are
// package constants, whose reasons docs/ARCHITECTURE.md "Federation
// resilience" gives. The zero value is not usable; use NewEngine.
type Engine struct {
	// SourceTimeout bounds each source fetch attempt; set it before the
	// engine serves queries. How slow a deployment's sources are is a
	// deployment fact, so it is the one setting. Fetches are detached
	// from every caller's context, so 0 leaves only the fill's hard
	// ceiling (cache.go maxFill).
	SourceTimeout time.Duration

	cache    *Cache
	breakers *BreakerSet
	// retries and sleep are the retry ladder's extra rungs and its
	// backoff sleep: the policy's in NewEngine, changed only by this
	// package's tests to compress time.
	retries int
	sleep   func(ctx context.Context, d time.Duration) error
}

// fanout bounds the concurrent source fetches of one scatter phase.
// DefaultSourceTimeout keeps a hung source from holding its fill until
// the ceiling.
const (
	fanout               = 8
	DefaultSourceTimeout = 30 * time.Second
)

// NewEngine returns an engine with the default per-source timeout.
func NewEngine() *Engine {
	return &Engine{
		SourceTimeout: DefaultSourceTimeout,
		cache:         NewCache(),
		breakers:      NewBreakerSet(),
		retries:       retries,
		sleep:         sleepCtx,
	}
}

// SourceError describes one source that contributed no rows to a
// partial result.
type SourceError struct {
	// Source is the wrapper name.
	Source string `json:"source"`
	// Class is the failure's ErrClass (the REST annotation contract).
	Class ErrClass `json:"class"`
	// Err is the underlying fetch error (not serialized).
	Err error `json:"-"`
}

// RunOpts parameterizes RunProgram: limit < 0 unbounded, limit 0 a
// legitimate empty page, offset <= 0 no skip. Partial degrades instead
// of failing: healthy sources stream and failed ones are annotated on
// the cursor; without it the first source error fails the query.
type RunOpts struct {
	Limit   int
	Offset  int
	Partial bool
}

// Run prepares a plan and runs it unbounded and strict: see RunProgram.
func (e *Engine) Run(ctx context.Context, plan relalg.Plan) (*Cursor, error) {
	return e.RunWith(ctx, plan, RunOpts{Limit: -1, Offset: -1})
}

// RunWith prepares a plan and runs it with opts, for a caller that holds
// a bare plan; one that runs a plan again keeps its Program instead.
func (e *Engine) RunWith(ctx context.Context, plan relalg.Plan, opts RunOpts) (*Cursor, error) {
	prog, err := Prepare(plan)
	if err != nil {
		return nil, err
	}
	return e.RunProgram(ctx, prog, opts)
}

// RunProgram starts federated execution of a prepared plan: it scatters
// the source fetches, then returns a cursor streaming the plan's rows. It
// blocks until every source snapshot is available (or one fetch fails);
// the operator pipeline itself does no source I/O. opts pushes a page
// bound into the pipeline (a satisfied limit stops all upstream work) and
// sets the degradation mode. In partial mode the returned cursor may
// carry degradation annotations — check Cursor.Partial/Missing; in strict
// mode a source failure is returned here, before any row streams.
func (e *Engine) RunProgram(ctx context.Context, prog *Program, opts RunOpts) (*Cursor, error) {
	tr := obs.FromContext(ctx)
	snaps, missing, err := e.scatter(ctx, tr, prog, opts.Partial)
	if err != nil {
		return nil, err
	}
	it, err := prog.bind(snaps)
	if err != nil {
		return nil, err
	}
	if opts.Limit == 0 {
		it = emptyIter{}
	} else if opts.Offset > 0 || opts.Limit > 0 {
		it = &pageIter{src: it, skip: max(opts.Offset, 0), limit: opts.Limit}
	}
	return &Cursor{cols: prog.cols, it: it, tr: tr, missing: missing}, nil
}

// Forget drops the circuit breaker record the engine holds for a wrapper
// name — the only per-source state that outlives a fetch. Call it when a
// wrapper is re-registered or removed: the name may now denote a
// different source, so yesterday's failure history must not outlive it.
func (e *Engine) Forget(name string) { e.breakers.Reset(name) }

// scatter fetches the sources of a program concurrently, at most fanout
// at a time, into snapshots in prog.srcs order.
//
// In strict mode the first error cancels the outstanding fetches and is
// returned; sibling errors caused by that cancellation are dropped, so
// the caller sees the root cause (a canceled client maps to
// context.Canceled, a timed-out source to context.DeadlineExceeded).
//
// In partial mode source failures don't cancel anything: a failed
// source contributes an empty relation, reported in the missing list
// with the failure's class. Only the caller's own context terminates
// the whole scatter. The missing list is sorted by source name so
// annotations are deterministic.
func (e *Engine) scatter(ctx context.Context, tr *obs.Trace, prog *Program, partial bool) (snaps []*relalg.Relation, missing []SourceError, err error) {
	obsScatters.Inc()
	obsScatterFanout.Observe(float64(len(prog.srcs)))
	scatterT0 := time.Now()
	defer func() {
		d := time.Since(scatterT0)
		obsScatterDur.Observe(d.Seconds())
		tr.StageDur("scatter", d)
	}()

	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	run := &scatterRun{e: e, ctx: ctx, cancel: cancel, tr: tr, partial: partial}

	sem := make(chan struct{}, fanout)
	run.snaps = make([]*relalg.Relation, len(prog.srcs))
	for _, s := range prog.srcs {
		run.wg.Add(1)
		go func() {
			defer run.wg.Done()
			select {
			case sem <- struct{}{}:
				defer func() { <-sem }()
			case <-sctx.Done():
				return
			}
			run.fetch(sctx, s)
		}()
	}
	run.wg.Wait()
	if len(run.missing) > 0 {
		obsPartialDegradations.Inc()
	}
	if run.firstErr != nil {
		return nil, nil, run.firstErr
	}
	// A canceled caller can make workers exit before fetching (and
	// before any fetch records an error); surface the cancellation
	// instead of an incomplete snapshot set.
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	sort.Slice(run.missing, func(i, j int) bool { return run.missing[i].Source < run.missing[j].Source })
	return run.snaps, run.missing, nil
}

// scatterRun is what the workers of one scatter share: one object, so a
// worker's closure holds a pointer rather than a dozen captured
// variables each moved to the heap on its own.
type scatterRun struct {
	e       *Engine
	ctx     context.Context // the caller's, under the scatter's cancelable one
	cancel  context.CancelFunc
	tr      *obs.Trace
	partial bool
	wg      sync.WaitGroup

	mu       sync.Mutex // guards the fields below
	firstErr error
	snaps    []*relalg.Relation
	missing  []SourceError
}

// fetch obtains the snapshot of one source through the shared fetches of
// the cache, and files the outcome: the snapshot, or in strict mode the
// run's first error, or in partial mode an empty stand-in with its
// annotation.
func (r *scatterRun) fetch(sctx context.Context, s *sourceFetch) {
	e, tr, src, cols := r.e, r.tr, s.src, s.cols
	name := src.Name()
	fetchT0 := time.Now()
	rel, err := e.cache.get(sctx, s.key, src, cols, e.fetchResilient)
	span := obs.SourceSpan{Source: name, Dur: time.Since(fetchT0)}
	if tr != nil {
		span.Declared = len(src.Columns())
		span.Cols = span.Declared
		if cols != nil {
			span.Cols = len(cols)
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if err == nil {
		r.snaps[s.i] = rel
		// What came back, which a source that ignores the request makes
		// wider than what was asked.
		span.Rows, span.Cols, span.Outcome = len(rel.Rows), len(rel.Cols), "ok"
		tr.AddSource(span)
		return
	}
	if !r.partial {
		if r.firstErr == nil {
			r.firstErr = err
			r.cancel()
		}
		span.Outcome = "error:" + string(Classify(err))
		tr.AddSource(span)
		return
	}
	class := Classify(err)
	if class == ClassCanceled && r.ctx.Err() != nil {
		// The caller is gone; the post-wait ctx check surfaces it. Not a
		// source fault, so nothing to annotate.
		return
	}
	// The empty stand-in has the shape the fetch would have had.
	if cols == nil {
		cols = src.Columns()
	}
	r.snaps[s.i] = relalg.NewRelation(cols...)
	r.missing = append(r.missing, SourceError{Source: name, Class: class, Err: err})
	obsMissing.With(name, string(class)).Inc()
	span.Outcome = "missing:" + string(class)
	tr.AddSource(span)
}

// fetchResilient is one source fetch with the resilience layer applied:
// breaker check, per-attempt timeout, classify, retry with jittered
// backoff. It is the Cache's FetchFunc, so the whole sequence runs once
// per singleflight fill — N concurrent walks waiting on a flaky source
// share one retry ladder, and exactly one goroutine records breaker
// outcomes per fill (N waiters don't multiply a single failure into N
// breaker strikes).
func (e *Engine) fetchResilient(ctx context.Context, src relalg.RowSource) (*relalg.Relation, error) {
	br := e.breakers.For(src.Name())
	var lastErr error
	for attempt := 0; attempt <= e.retries; attempt++ {
		if attempt > 0 {
			obsRetries.Inc()
			if err := e.sleep(ctx, backoff(attempt-1)); err != nil {
				// The fill (or caller) died mid-backoff. Surface the
				// context error so Classify sees a cancellation, not the
				// prior attempt's (retryable, usually network) failure —
				// callers must not count a canceled walk as a source
				// fault. Keep the last fetch error as detail.
				if lastErr != nil {
					return nil, fmt.Errorf("federate: source %s: %w (last attempt: %v)",
						src.Name(), err, lastErr)
				}
				return nil, err
			}
		}
		if err := br.Allow(); err != nil {
			obsFetchAttempts.With(string(ClassBreakerOpen)).Inc()
			if lastErr != nil {
				// The breaker tripped mid-ladder (this ladder's own
				// strikes, or concurrent fills against the same dead
				// source); surface the real fetch error, not the
				// suppression.
				return nil, lastErr
			}
			return nil, fmt.Errorf("federate: source %s: %w", src.Name(), err)
		}
		rel, err := e.fetchOnce(ctx, src)
		class := Classify(err)
		if err == nil {
			obsFetchOK.Inc()
		} else {
			obsFetchAttempts.With(string(class)).Inc()
		}
		switch {
		case err == nil:
			br.RecordSuccess()
		case class.sourceFault():
			br.RecordFailure()
			// Cancellations and request-shaped errors (4xx, schema,
			// payload cap) neither trip nor reset the breaker.
		}
		if err == nil {
			return rel, nil
		}
		lastErr = err
		if !class.Retryable() {
			return nil, err
		}
	}
	return nil, lastErr
}

// fetchOnce is a single schema-checked fetch attempt under the
// per-source timeout.
func (e *Engine) fetchOnce(ctx context.Context, src relalg.RowSource) (*relalg.Relation, error) {
	if e.SourceTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, e.SourceTimeout)
		defer cancel()
	}
	return fetchSource(ctx, src)
}

// fetchSource fetches and schema-checks one source. Rows are consumed by
// position, so the snapshot's columns must be, by name and in order,
// either the ones the fetch context asked for or the declared signature
// — a source is free to ignore the request, and bind projects what it
// returns. Anything else is a misreporting source, which fails loudly
// rather than corrupting downstream column arithmetic.
func fetchSource(ctx context.Context, src relalg.RowSource) (*relalg.Relation, error) {
	rel, err := src.Fetch(ctx)
	if err != nil {
		return nil, fmt.Errorf("federate: source %s: %w", src.Name(), err)
	}
	if want := relalg.ColumnsFrom(ctx); want != nil && slices.Equal(rel.Cols, want) {
		return rel, nil
	}
	declared := src.Columns()
	if len(rel.Cols) != len(declared) {
		return nil, fmt.Errorf("federate: source %s returned %d columns, declared %d: %w",
			src.Name(), len(rel.Cols), len(declared), errSchema)
	}
	if !slices.Equal(rel.Cols, declared) {
		return nil, fmt.Errorf("federate: source %s returned columns %v, declared %v: %w",
			src.Name(), rel.Cols, declared, errSchema)
	}
	return rel, nil
}
