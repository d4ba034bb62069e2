package federate

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"mdm/internal/obs"
)

// ErrBreakerOpen is returned (wrapped with the source name) when a
// fetch is suppressed because the source's circuit breaker is open.
// The REST layer maps it to 503.
var ErrBreakerOpen = errors.New("circuit breaker open")

// BreakerState is a circuit breaker's position.
type BreakerState int32

// Breaker states: Closed (healthy, fetches flow), Open (failing,
// fetches fail fast), HalfOpen (cooldown elapsed, one probe in flight).
const (
	StateClosed BreakerState = iota
	StateOpen
	StateHalfOpen
)

// String renders the state for States and logs.
func (s BreakerState) String() string {
	switch s {
	case StateOpen:
		return "open"
	case StateHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// Breaker is a per-source circuit breaker: Threshold consecutive
// source-fault failures trip it open; while open every Allow fails fast
// (no fetch is issued, so a dead source costs nothing per query); after
// Cooldown one probe is let through half-open — its success closes the
// breaker, its failure re-opens it for another cooldown. Concurrent
// callers during half-open fail fast rather than piling onto the probe.
type Breaker struct {
	mu       sync.Mutex
	state    BreakerState
	failures int       // consecutive source-fault failures while closed
	openedAt time.Time // when the breaker last tripped
	probing  bool      // a half-open probe is outstanding

	threshold int
	cooldown  time.Duration
	now       func() time.Time
	set       *BreakerSet // owning set, for transition counters
	gauge     *obs.Gauge  // this source's mdm_federate_breaker_state series
}

// State returns the breaker's current position (open is reported as
// half-open-eligible only once a caller observes the elapsed cooldown
// via Allow).
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Allow reports whether a fetch attempt may proceed. nil means go (and,
// in half-open, claims the probe slot); ErrBreakerOpen means fail fast.
func (b *Breaker) Allow() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case StateClosed:
		return nil
	case StateOpen:
		if b.now().Sub(b.openedAt) < b.cooldown {
			b.countFastFail()
			return ErrBreakerOpen
		}
		b.setState(StateHalfOpen)
		b.probing = true
		obsBreakerHalfOpened.Inc()
		b.set.halfOpened.Add(1)
		return nil
	default: // StateHalfOpen
		if b.probing {
			b.countFastFail()
			return ErrBreakerOpen
		}
		b.probing = true
		return nil
	}
}

func (b *Breaker) countFastFail() {
	obsBreakerFastFails.Inc()
	b.set.fastFails.Add(1)
}

// setState moves the breaker and its exported gauge; callers hold b.mu.
func (b *Breaker) setState(st BreakerState) {
	b.state = st
	b.gauge.Set(float64(st))
}

// RecordSuccess reports a successful fetch attempt: it resets the
// consecutive-failure count and closes a half-open breaker.
func (b *Breaker) RecordSuccess() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case StateClosed:
		b.failures = 0
	case StateHalfOpen:
		b.setState(StateClosed)
		b.failures = 0
		b.probing = false
		obsBreakerClosed.Inc()
		b.set.closed.Add(1)
	}
	// A success recorded while Open predates the trip; ignore it — the
	// half-open probe decides recovery.
}

// RecordFailure reports a failed source-fault fetch attempt (callers
// filter by ErrClass.sourceFault, so cancellations and 4xxs never trip
// a breaker). It advances Closed toward Open and re-opens a failed
// half-open probe.
func (b *Breaker) RecordFailure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case StateClosed:
		b.failures++
		if b.failures >= b.threshold {
			b.trip()
		}
	case StateHalfOpen:
		b.probing = false
		b.trip()
	}
}

// trip moves to Open; callers hold b.mu.
func (b *Breaker) trip() {
	b.setState(StateOpen)
	b.openedAt = b.now()
	b.failures = 0
	obsBreakerOpened.Inc()
	b.set.opened.Add(1)
}

// reset returns the breaker to a fresh Closed state.
func (b *Breaker) reset() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.setState(StateClosed)
	b.failures = 0
	b.probing = false
}

// Default breaker knobs: DefaultBreakerThreshold consecutive
// source-fault failures trip a source's breaker; DefaultBreakerCooldown
// is how long it fails fast before probing.
const (
	DefaultBreakerThreshold = 5
	DefaultBreakerCooldown  = 10 * time.Second
)

// BreakerSet manages one Breaker per source name, created lazily on
// first use so the set covers whatever sources the plans mention.
type BreakerSet struct {
	threshold int
	cooldown  time.Duration
	now       func() time.Time // injectable for tests

	mu sync.Mutex
	m  map[string]*Breaker

	opened, halfOpened, closed, fastFails atomic.Int64
}

// NewBreakerSet returns a set tripping each source after threshold
// consecutive source-fault failures and probing after cooldown.
// Non-positive arguments take the defaults.
func NewBreakerSet(threshold int, cooldown time.Duration) *BreakerSet {
	if threshold <= 0 {
		threshold = DefaultBreakerThreshold
	}
	if cooldown <= 0 {
		cooldown = DefaultBreakerCooldown
	}
	return &BreakerSet{threshold: threshold, cooldown: cooldown, now: time.Now, m: map[string]*Breaker{}}
}

// For returns (creating if needed) the breaker for a source name.
func (s *BreakerSet) For(name string) *Breaker {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.m[name]
	if !ok {
		b = &Breaker{
			threshold: s.threshold, cooldown: s.cooldown, now: func() time.Time { return s.now() },
			set: s, gauge: obsBreakerState.With(name),
		}
		// An earlier set may have left this source's series elsewhere.
		b.gauge.Set(float64(StateClosed))
		s.m[name] = b
	}
	return b
}

// Reset returns a source's breaker to Closed (wrapper re-registration:
// the new wrapper deserves a fresh record).
func (s *BreakerSet) Reset(name string) {
	s.mu.Lock()
	b := s.m[name]
	s.mu.Unlock()
	if b != nil {
		b.reset()
	}
}

// States snapshots every known source's breaker state (this set only;
// the process-wide view is the mdm_federate_breaker_state gauge).
func (s *BreakerSet) States() map[string]string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]string, len(s.m))
	for name, b := range s.m {
		out[name] = b.State().String()
	}
	return out
}

// BreakerStats is a point-in-time transition-counter snapshot.
type BreakerStats struct {
	// Opened counts closed/half-open → open transitions.
	Opened int64
	// HalfOpened counts open → half-open transitions.
	HalfOpened int64
	// Closed counts half-open → closed recoveries.
	Closed int64
	// FastFails counts fetches suppressed by an open breaker.
	FastFails int64
}

// Stats returns this set's transition counters.
func (s *BreakerSet) Stats() BreakerStats {
	return BreakerStats{
		Opened:     s.opened.Load(),
		HalfOpened: s.halfOpened.Load(),
		Closed:     s.closed.Load(),
		FastFails:  s.fastFails.Load(),
	}
}
