package federate

import (
	"context"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mdm/internal/relalg"
)

// Cache shares in-flight source fetches (singleflight), keyed by wrapper
// identity (the RowSource name, globally unique in the wrapper registry)
// and the column list the snapshot was asked for: a snapshot is as wide
// as the plan that fetched it, so a narrow one must never answer a wider
// request. Concurrent Gets for the same columns of the same source share
// one fetch, so N walks hitting the same HTTP wrapper issue one request.
// The fetch is owned by the cache (detached from any caller's context,
// bounded by maxFill): a caller that disconnects abandons its wait
// without poisoning the shared fetch.
//
// A completed fetch leaves nothing behind — its entry is removed once its
// waiters can read the outcome, so the next Get fetches again and data
// freshness is that of a direct fetch. Errors are therefore never kept
// either.
type Cache struct {
	mu      sync.Mutex
	entries map[snapKey]*cacheEntry // in-flight fills only

	misses, shared atomic.Int64
}

// snapKey names one snapshot: the source's name, then each column asked
// of it, in request order, behind a NUL; the name alone is the whole
// signature. Two orders of one column set are two keys, as their
// snapshots' rows differ. One string keeps a map slot as small as it was
// under the name alone — the map churns an entry per fetch.
type snapKey string

func keyOf(name string, cols []string) snapKey {
	if cols == nil {
		return snapKey(name)
	}
	n := len(name)
	for _, c := range cols {
		n += 1 + len(c)
	}
	var b strings.Builder
	b.Grow(n)
	b.WriteString(name)
	for _, c := range cols {
		b.WriteByte(0)
		b.WriteString(c)
	}
	return snapKey(b.String())
}

// cacheEntry is one in-flight fill. ready is closed once rel/err are
// final; waiters select on it against their own context.
type cacheEntry struct {
	ready chan struct{}
	rel   *relalg.Relation
	err   error
}

// NewCache returns an empty cache.
func NewCache() *Cache {
	return &Cache{entries: map[snapKey]*cacheEntry{}}
}

// FetchFunc obtains one source snapshot. The cache calls it exactly
// once per fill (singleflight), so putting retries and breaker checks
// inside it — as Engine.fetchResilient does — dedupes the whole retry
// sequence across concurrent walks, not just the individual attempts.
type FetchFunc func(ctx context.Context, src relalg.RowSource) (*relalg.Relation, error)

// Get returns the snapshot of src's cols (nil: every column), joining the
// fill in flight for them or starting one via fetch; the fill context
// carries the request (relalg.WithColumns). ctx cancels only this
// caller's wait — the shared fetch keeps running for other waiters — so a
// dropped client surfaces ctx.Err() without failing its neighbors.
func (c *Cache) Get(ctx context.Context, src relalg.RowSource, cols []string, fetch FetchFunc) (*relalg.Relation, error) {
	return c.get(ctx, keyOf(src.Name(), cols), src, cols, fetch)
}

// get is Get under the snapshot's key, which a program derives once
// (sourceFetch.key) rather than once per fetch.
func (c *Cache) get(ctx context.Context, key snapKey, src relalg.RowSource, cols []string, fetch FetchFunc) (*relalg.Relation, error) {
	c.mu.Lock()
	ent, inflight := c.entries[key]
	if !inflight {
		ent = &cacheEntry{ready: make(chan struct{})}
		c.entries[key] = ent
	}
	c.mu.Unlock()
	if inflight {
		c.shared.Add(1)
		obsCacheShared.Inc()
	} else {
		c.misses.Add(1)
		obsCacheMisses.Inc()
		go c.fill(key, src, cols, ent, fetch)
	}
	select {
	case <-ent.ready:
		return ent.rel, ent.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// maxFill bounds a cache-owned fetch end to end, including any retries
// and backoff the FetchFunc performs. Detached fetches ride no caller's
// context, so an unbounded one that hangs would wedge its entry (and
// every future Get for that source) until process restart; a generous
// hard ceiling is safer than none.
const maxFill = 5 * time.Minute

// fill performs the cache-owned fetch for one entry. It runs detached
// from every caller so an abandoned wait cannot cancel a shared fetch;
// maxFill is the only bound (the FetchFunc applies any per-attempt
// timeout itself).
func (c *Cache) fill(key snapKey, src relalg.RowSource, cols []string, ent *cacheEntry, fetch FetchFunc) {
	fctx, cancel := context.WithTimeout(context.Background(), maxFill)
	defer cancel()
	if cols != nil {
		fctx = relalg.WithColumns(fctx, cols)
	}
	ent.rel, ent.err = fetch(fctx, src)
	c.mu.Lock()
	delete(c.entries, key)
	c.mu.Unlock()
	close(ent.ready)
}

// Stats is a point-in-time counter snapshot.
type Stats struct {
	// Misses counts Gets that started a fetch.
	Misses int64
	// Shared counts Gets that joined an in-flight fetch.
	Shared int64
}

// Stats returns this cache's counters.
func (c *Cache) Stats() Stats {
	return Stats{Misses: c.misses.Load(), Shared: c.shared.Load()}
}
