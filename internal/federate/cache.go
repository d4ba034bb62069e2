package federate

import (
	"context"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mdm/internal/relalg"
)

// Cache is a source-snapshot cache keyed by wrapper identity (the
// RowSource name, globally unique in the wrapper registry) and the
// column list the snapshot was asked for: a snapshot is as wide as the
// plan that fetched it, so a narrow one must never answer a wider
// request. It provides two things:
//
//   - SINGLEFLIGHT: concurrent Gets for the same columns of the same
//     source share one in-flight fetch, so N walks hitting the same HTTP
//     wrapper issue one request. The fetch is owned by the cache
//     (detached from any caller's context, bounded by the fetch
//     timeout): a caller that disconnects abandons its wait without
//     poisoning the shared fetch.
//   - TTL REUSE: with ttl > 0, a completed snapshot answers Gets until
//     it expires. With ttl == 0 the cache is dedup-only — completed
//     entries are dropped immediately, so data freshness is exactly
//     that of direct fetches (modulo sharing an in-flight fetch).
//
// Fetch errors are never cached; the failed entry is removed after its
// waiters have been notified, so the next Get retries.
type Cache struct {
	ttl time.Duration
	now func() time.Time // injectable for TTL tests

	mu      sync.Mutex
	entries map[snapKey]*cacheEntry

	hits, misses, shared, expired atomic.Int64
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

// source returns the source name the key was made for.
func (k snapKey) source() string {
	name, _, _ := strings.Cut(string(k), "\x00")
	return name
}

// cacheEntry is one snapshot's slot. ready is closed once rel/err/expires
// are final; waiters select on it against their own context.
type cacheEntry struct {
	ready   chan struct{}
	rel     *relalg.Relation
	err     error
	expires time.Time
}

// NewCache returns a cache with the given snapshot TTL. ttl 0 gives a
// dedup-only cache (no reuse after a fetch completes).
func NewCache(ttl time.Duration) *Cache {
	return &Cache{ttl: ttl, now: time.Now, entries: map[snapKey]*cacheEntry{}}
}

// TTL returns the configured snapshot lifetime.
func (c *Cache) TTL() time.Duration { return c.ttl }

// FetchFunc obtains one source snapshot. The cache calls it exactly
// once per fill (singleflight), so putting retries and breaker checks
// inside it — as Engine.fetchResilient does — dedupes the whole retry
// sequence across concurrent walks, not just the individual attempts.
type FetchFunc func(ctx context.Context, src relalg.RowSource) (*relalg.Relation, error)

// Get returns the snapshot of src's cols (nil: every column), fetching it
// via fetch (nil means a plain schema-checked fetch) on a miss; the fill
// context carries the request (relalg.WithColumns). Concurrent Gets for
// the same columns of the same source share one fetch. ctx cancels only
// this caller's wait — the shared fetch keeps running for other waiters
// — so a dropped client surfaces ctx.Err() without failing its neighbors.
func (c *Cache) Get(ctx context.Context, src relalg.RowSource, cols []string, fetch FetchFunc) (*relalg.Relation, error) {
	key := keyOf(src.Name(), cols)
	c.mu.Lock()
	ent := c.entries[key]
	if ent != nil {
		select {
		case <-ent.ready:
			if ent.err == nil && c.now().Before(ent.expires) {
				c.mu.Unlock()
				c.hits.Add(1)
				obsCacheHits.Inc()
				return ent.rel, nil
			}
			// Expired (or a failed entry that lost the delete race):
			// fall through to a fresh fetch.
			c.expired.Add(1)
			obsCacheExpired.Inc()
		default:
			// In flight: join the leader's fetch.
			c.mu.Unlock()
			c.shared.Add(1)
			obsCacheShared.Inc()
			select {
			case <-ent.ready:
				return ent.rel, ent.err
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
	}
	ent = &cacheEntry{ready: make(chan struct{})}
	c.entries[key] = ent
	c.mu.Unlock()
	c.misses.Add(1)
	obsCacheMisses.Inc()

	go c.fill(key, src, cols, ent, fetch)
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
	if fetch == nil {
		fetch = fetchSource
	}
	fctx, cancel := context.WithTimeout(context.Background(), maxFill)
	defer cancel()
	if cols != nil {
		fctx = relalg.WithColumns(fctx, cols)
	}
	rel, err := fetch(fctx, src)
	c.mu.Lock()
	ent.rel, ent.err = rel, err
	ent.expires = c.now().Add(c.ttl)
	if err != nil || c.ttl <= 0 {
		// Failures are not cached, and a TTL-less cache keeps no
		// completed entries. Guard against a newer entry having already
		// replaced this one.
		if c.entries[key] == ent {
			delete(c.entries, key)
		}
	}
	close(ent.ready)
	c.mu.Unlock()
}

// Invalidate drops the cached snapshots of a source name, of every
// width. It does not interrupt an in-flight fetch; callers racing one may
// still be served its result. Use it after re-registering or mutating a
// wrapper so the next walk refetches.
func (c *Cache) Invalidate(name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for key, ent := range c.entries {
		if key.source() != name {
			continue
		}
		select {
		case <-ent.ready:
			delete(c.entries, key)
		default:
			// In flight: leave it; the waiters own it.
		}
	}
}

// Stats is a point-in-time counter snapshot.
type Stats struct {
	// Hits counts Gets answered by a live completed snapshot.
	Hits int64
	// Misses counts Gets that started a fetch.
	Misses int64
	// Shared counts Gets that joined an in-flight fetch.
	Shared int64
	// Expired counts Gets that found a dead entry and refetched.
	Expired int64
}

// Stats returns this cache's counters.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:    c.hits.Load(),
		Misses:  c.misses.Load(),
		Shared:  c.shared.Load(),
		Expired: c.expired.Load(),
	}
}
