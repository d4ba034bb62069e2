// Package federate executes optimized relalg plans the way a mediator
// over remote sources has to: source access is concurrent, result
// delivery is streamed.
//
// The materializing executor (relalg.Plan.Execute) walks the operator
// tree depth-first, so a plan over N wrappers pays the *sum* of the
// source fetch latencies and every operator materializes its full
// intermediate relation. This package splits execution into three
// phases:
//
//  1. SCATTER — all Scan leaves of the plan are discovered up front,
//     deduplicated by source name, and fetched concurrently with
//     bounded parallelism. The first fetch error cancels the remaining
//     fetches; a per-source deadline bounds each one.
//  2. SNAPSHOT CACHE — fetches go through an optional Cache keyed by
//     wrapper identity: concurrent walks hitting the same source share
//     one in-flight fetch (singleflight), and with a TTL configured,
//     completed snapshots are reused across walks (cache.go).
//  3. STREAMING OPERATORS — the plan compiles to a tree of pull-based
//     iterators over the snapshots (iter.go): Select/Project/Rename/
//     Limit/Union/Distinct stream row by row, and Join is a probe-side
//     hash join whose build side is an intrusive-chain table over the
//     (already fetched) right input. No operator materializes its
//     output, so memory beyond the source snapshots is O(page).
//
// Results are delivered through a Cursor (cursor.go) mirroring
// sparql.Cursor: Next(ctx)/Row()/Err()/Close(), with LIMIT/OFFSET
// applied inside the pipeline so a page costs O(sources + page) instead
// of O(result).
//
// Row order is deterministic and identical to relalg.Plan.Execute's
// (the oracle the equivalence harness pins): scans stream snapshot
// order, joins emit left-row order with build-side matches in build
// order, unions concatenate children in order. Paged reads are
// therefore prefixes/slices of the full drain for unchanged snapshots.
package federate

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"mdm/internal/obs"
	"mdm/internal/relalg"
)

// Engine runs relalg plans federated. The zero value is not usable; use
// NewEngine. Fields are read at Run time and must be configured before
// the engine serves concurrent queries.
type Engine struct {
	// Parallel bounds the number of concurrent source fetches per
	// scatter phase.
	Parallel int
	// SourceTimeout bounds each individual source fetch attempt. For
	// direct (cache-less) fetches, 0 means no bound beyond the caller's
	// context; cache-owned fetches are detached from every caller's
	// context and always bounded end to end by a hard ceiling (see
	// cache.go maxFill) so a hung source cannot wedge its cache entry
	// forever.
	SourceTimeout time.Duration
	// Cache is the shared source-snapshot cache. Nil disables both
	// snapshot reuse and singleflight dedup (every Run fetches its own
	// snapshots).
	Cache *Cache
	// Retry governs per-source fetch retries (retry.go). The zero value
	// disables retrying; NewEngine installs DefaultRetryPolicy. Retries
	// happen inside the cache's singleflight fill, so concurrent walks
	// waiting on one flaky source share a single retry sequence.
	Retry RetryPolicy
	// Breakers holds the per-source circuit breakers (breaker.go). Nil
	// disables breaking; NewEngine installs a default set. An open
	// breaker fails a source fast without issuing a fetch.
	Breakers *BreakerSet
	// PartialResults is the default degradation mode: when true, a
	// failed source no longer fails the query — its rows are omitted
	// (or served stale, see ServeStale) and the cursor reports it via
	// Missing/StaleSources. Per-query override: RunOpts.Partial.
	PartialResults bool
	// ServeStale, in partial mode, substitutes the last successfully
	// fetched snapshot for a broken source instead of dropping its rows,
	// reporting the source via Cursor.StaleSources. The last-good store
	// is only populated while ServeStale is on.
	ServeStale bool

	staleMu sync.Mutex
	stale   map[string]*relalg.Relation // last good snapshot per source
}

// Default engine knobs. DefaultParallel bounds the scatter fan-out;
// DefaultSourceTimeout keeps a hung source from wedging cache-owned
// fetches forever.
const (
	DefaultParallel      = 8
	DefaultSourceTimeout = 30 * time.Second
)

// NewEngine returns an engine with default fan-out, a default per-source
// timeout, a dedup-only cache (TTL 0: concurrent walks share one fetch,
// completed snapshots are not reused), default retries, and default
// circuit breakers. Degradation (PartialResults, ServeStale) is off.
func NewEngine() *Engine {
	return &Engine{
		Parallel:      DefaultParallel,
		SourceTimeout: DefaultSourceTimeout,
		Cache:         NewCache(0),
		Retry:         DefaultRetryPolicy(),
		Breakers:      NewBreakerSet(0, 0),
	}
}

// SourceError describes one source that contributed no (or stale) rows
// to a partial result.
type SourceError struct {
	// Source is the wrapper name.
	Source string `json:"source"`
	// Class is the failure's ErrClass (the REST annotation contract).
	Class ErrClass `json:"class"`
	// Err is the underlying fetch error (not serialized).
	Err error `json:"-"`
}

// PartialMode selects a query's degradation behavior.
type PartialMode int

const (
	// PartialDefault defers to Engine.PartialResults.
	PartialDefault PartialMode = iota
	// PartialOff forces strict mode: the first source error fails the
	// query (PR 5 semantics).
	PartialOff
	// PartialOn forces degradation: healthy sources stream, failed ones
	// are annotated on the cursor.
	PartialOn
)

// RunOpts parameterizes RunWith: limit < 0 unbounded, limit 0 a
// legitimate empty page, offset <= 0 no skip.
type RunOpts struct {
	Limit   int
	Offset  int
	Partial PartialMode
}

// Run starts federated execution of a plan: it scatters the source
// fetches, then returns a cursor streaming the plan's rows. Run blocks
// until every source snapshot is available (or one fetch fails); the
// operator pipeline itself does no source I/O.
func (e *Engine) Run(ctx context.Context, plan relalg.Plan) (*Cursor, error) {
	return e.RunWith(ctx, plan, RunOpts{Limit: -1, Offset: -1})
}

// RunWith is Run with per-query options: a page bound pushed into the
// pipeline (a satisfied limit stops all upstream work) and the
// degradation mode. In partial mode the returned cursor may carry
// degradation annotations — check Cursor.Partial/Missing/StaleSources;
// in strict mode a source failure is returned here, before any row
// streams.
func (e *Engine) RunWith(ctx context.Context, plan relalg.Plan, opts RunOpts) (*Cursor, error) {
	partial := e.PartialResults
	switch opts.Partial {
	case PartialOn:
		partial = true
	case PartialOff:
		partial = false
	}
	tr := obs.FromContext(ctx)
	snaps, missing, staleSrc, err := e.scatter(ctx, tr, plan, partial)
	if err != nil {
		return nil, err
	}
	it, err := compile(plan, snaps)
	if err != nil {
		return nil, err
	}
	if opts.Limit == 0 {
		it = emptyIter{}
	} else if opts.Offset > 0 || opts.Limit > 0 {
		it = &pageIter{src: it, skip: max(opts.Offset, 0), limit: opts.Limit}
	}
	return &Cursor{cols: plan.Columns(), it: it, tr: tr, missing: missing, staleSrc: staleSrc}, nil
}

// Forget drops all per-source state the engine holds for a wrapper
// name: the cached snapshot, the circuit breaker record, and the
// serve-stale fallback. Call it when a wrapper is re-registered or
// removed — the name may now denote a different source, so yesterday's
// snapshot and failure history must not outlive it.
func (e *Engine) Forget(name string) {
	if e.Cache != nil {
		e.Cache.Invalidate(name)
	}
	if e.Breakers != nil {
		e.Breakers.Reset(name)
	}
	e.staleMu.Lock()
	delete(e.stale, name)
	e.staleMu.Unlock()
}

// rememberStale records a source's last good snapshot for serve-stale
// fallback.
func (e *Engine) rememberStale(name string, rel *relalg.Relation) {
	e.staleMu.Lock()
	if e.stale == nil {
		e.stale = map[string]*relalg.Relation{}
	}
	e.stale[name] = rel
	e.staleMu.Unlock()
}

// lastGood returns the serve-stale fallback snapshot for a source, or
// nil.
func (e *Engine) lastGood(name string) *relalg.Relation {
	e.staleMu.Lock()
	defer e.staleMu.Unlock()
	return e.stale[name]
}

// collectScans gathers the plan's Scan leaves, deduplicated by source
// name (wrapper names are globally unique in the registry, and the
// rewriter reuses one wrapper across CQ branches of a union).
func collectScans(p relalg.Plan, dst map[string]relalg.RowSource) {
	if s, ok := p.(*relalg.Scan); ok {
		if _, dup := dst[s.Src.Name()]; !dup {
			dst[s.Src.Name()] = s.Src
		}
		return
	}
	for _, c := range p.Children() {
		collectScans(c, dst)
	}
}

// scatter fetches every distinct source of the plan concurrently with
// bounded parallelism.
//
// In strict mode the first error cancels the outstanding fetches and is
// returned; sibling errors caused by that cancellation are dropped, so
// the caller sees the root cause (a canceled client maps to
// context.Canceled, a timed-out source to context.DeadlineExceeded).
//
// In partial mode source failures don't cancel anything: a failed
// source contributes its last good snapshot (ServeStale, reported in
// the stale list) or an empty relation (reported in the missing list,
// with the failure's class). Only the caller's own context terminates
// the whole scatter. Both report lists are sorted by source name so
// annotations are deterministic.
func (e *Engine) scatter(ctx context.Context, tr *obs.Trace, plan relalg.Plan, partial bool) (snaps map[string]*relalg.Relation, missing []SourceError, staleSrc []string, err error) {
	sources := map[string]relalg.RowSource{}
	collectScans(plan, sources)
	names := make([]string, 0, len(sources))
	for n := range sources {
		names = append(names, n)
	}
	sort.Strings(names) // deterministic fan-out order

	obsScatters.Inc()
	obsScatterFanout.Observe(float64(len(names)))
	scatterT0 := time.Now()
	defer func() {
		d := time.Since(scatterT0)
		obsScatterDur.Observe(d.Seconds())
		tr.StageDur("scatter", d)
	}()

	sctx, cancel := context.WithCancel(ctx)
	defer cancel()

	parallel := e.Parallel
	if parallel <= 0 {
		parallel = DefaultParallel
	}
	var (
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
		sem      = make(chan struct{}, parallel)
	)
	snaps = make(map[string]*relalg.Relation, len(sources))
	for _, name := range names {
		src := sources[name]
		wg.Add(1)
		go func() {
			defer wg.Done()
			select {
			case sem <- struct{}{}:
				defer func() { <-sem }()
			case <-sctx.Done():
				return
			}
			fetchT0 := time.Now()
			rel, err := e.fetch(sctx, src)
			fetchDur := time.Since(fetchT0)
			mu.Lock()
			defer mu.Unlock()
			if err == nil {
				snaps[src.Name()] = rel
				if e.ServeStale {
					e.rememberStale(src.Name(), rel)
				}
				tr.AddSource(obs.SourceSpan{Source: src.Name(), Rows: len(rel.Rows), Dur: fetchDur, Outcome: "ok"})
				return
			}
			if !partial {
				if firstErr == nil {
					firstErr = err
					cancel()
				}
				tr.AddSource(obs.SourceSpan{Source: src.Name(), Dur: fetchDur, Outcome: "error:" + string(Classify(err))})
				return
			}
			class := Classify(err)
			if class == ClassCanceled && ctx.Err() != nil {
				// The caller is gone; the post-wait ctx check surfaces
				// it. Not a source fault, so nothing to annotate.
				return
			}
			if e.ServeStale {
				if old := e.lastGood(src.Name()); old != nil {
					snaps[src.Name()] = old
					staleSrc = append(staleSrc, src.Name())
					obsStaleServed.With(src.Name()).Inc()
					tr.AddSource(obs.SourceSpan{Source: src.Name(), Rows: len(old.Rows), Dur: fetchDur, Outcome: "stale"})
					return
				}
			}
			snaps[src.Name()] = relalg.NewRelation(src.Columns()...)
			missing = append(missing, SourceError{Source: src.Name(), Class: class, Err: err})
			obsMissing.With(src.Name(), string(class)).Inc()
			tr.AddSource(obs.SourceSpan{Source: src.Name(), Dur: fetchDur, Outcome: "missing:" + string(class)})
		}()
	}
	wg.Wait()
	if len(missing)+len(staleSrc) > 0 {
		obsPartialDegradations.Inc()
	}
	if firstErr != nil {
		return nil, nil, nil, firstErr
	}
	// A canceled caller can make workers exit before fetching (and
	// before any fetch records an error); surface the cancellation
	// instead of an incomplete snapshot set.
	if err := ctx.Err(); err != nil {
		return nil, nil, nil, err
	}
	sort.Slice(missing, func(i, j int) bool { return missing[i].Source < missing[j].Source })
	sort.Strings(staleSrc)
	return snaps, missing, staleSrc, nil
}

// fetch obtains one source snapshot, through the cache when configured.
func (e *Engine) fetch(ctx context.Context, src relalg.RowSource) (*relalg.Relation, error) {
	if e.Cache != nil {
		return e.Cache.Get(ctx, src, e.fetchResilient)
	}
	return e.fetchResilient(ctx, src)
}

// fetchResilient is one source fetch with the resilience layer applied:
// breaker check, per-attempt timeout, classify, retry with jittered
// backoff. It is the Cache's FetchFunc, so when the cache is on the
// whole sequence runs once per singleflight fill — N concurrent walks
// waiting on a flaky source share one retry ladder, and exactly one
// goroutine records breaker outcomes per fill (N waiters don't multiply
// a single failure into N breaker strikes).
func (e *Engine) fetchResilient(ctx context.Context, src relalg.RowSource) (*relalg.Relation, error) {
	var br *Breaker
	if e.Breakers != nil {
		br = e.Breakers.For(src.Name())
	}
	attempts := 1 + e.Retry.Max
	if attempts < 1 {
		attempts = 1
	}
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			obsRetries.Inc()
			if err := e.Retry.wait(ctx, attempt-1); err != nil {
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
		if br != nil {
			if err := br.Allow(); err != nil {
				obsFetchAttempts.With(string(ClassBreakerOpen)).Inc()
				if lastErr != nil {
					// The breaker tripped mid-ladder (concurrent fills
					// against the same dead source); surface the real
					// fetch error, not the suppression.
					return nil, lastErr
				}
				return nil, fmt.Errorf("federate: source %s: %w", src.Name(), err)
			}
		}
		rel, err := e.fetchOnce(ctx, src)
		class := Classify(err)
		if err == nil {
			obsFetchOK.Inc()
		} else {
			obsFetchAttempts.With(string(class)).Inc()
		}
		if br != nil {
			switch {
			case err == nil:
				br.RecordSuccess()
			case class.sourceFault():
				br.RecordFailure()
				// Cancellations and request-shaped errors (4xx, schema,
				// payload cap) neither trip nor reset the breaker.
			}
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

// fetchSource fetches and schema-checks one source (the same guard
// relalg.Scan.Execute applies, so a misreporting source fails loudly
// rather than corrupting downstream column arithmetic).
func fetchSource(ctx context.Context, src relalg.RowSource) (*relalg.Relation, error) {
	rel, err := src.Fetch(ctx)
	if err != nil {
		return nil, fmt.Errorf("federate: source %s: %w", src.Name(), err)
	}
	if len(rel.Cols) != len(src.Columns()) {
		return nil, fmt.Errorf("federate: source %s returned %d columns, declared %d: %w",
			src.Name(), len(rel.Cols), len(src.Columns()), errSchema)
	}
	return rel, nil
}
