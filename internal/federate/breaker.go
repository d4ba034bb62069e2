package federate

import (
	"errors"
	"sync"
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

// String renders the state for logs.
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

// The breaker policy: breakerThreshold consecutive source-fault failures
// trip a source's breaker; breakerCooldown is how long it fails fast
// before probing.
const (
	breakerThreshold = 5
	breakerCooldown  = 10 * time.Second
)

// Breaker is a per-source circuit breaker: breakerThreshold consecutive
// source-fault failures trip it open; while open every Allow fails fast
// (no fetch is issued, so a dead source costs nothing per query); after
// breakerCooldown one probe is let through half-open — its success
// closes the breaker, its failure re-opens it for another cooldown.
// Concurrent callers during half-open fail fast rather than piling onto
// the probe.
type Breaker struct {
	mu       sync.Mutex
	state    BreakerState
	failures int       // consecutive source-fault failures while closed
	openedAt time.Time // when the breaker last tripped
	probing  bool      // a half-open probe is outstanding

	now   func() time.Time
	gauge *obs.Gauge // this source's mdm_federate_breaker_state series
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
		if b.now().Sub(b.openedAt) < breakerCooldown {
			obsBreakerFastFails.Inc()
			return ErrBreakerOpen
		}
		b.setState(StateHalfOpen)
		b.probing = true
		obsBreakerHalfOpened.Inc()
		return nil
	default: // StateHalfOpen
		if b.probing {
			obsBreakerFastFails.Inc()
			return ErrBreakerOpen
		}
		b.probing = true
		return nil
	}
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
		if b.failures >= breakerThreshold {
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
}

// reset returns the breaker to a fresh Closed state.
func (b *Breaker) reset() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.setState(StateClosed)
	b.failures = 0
	b.probing = false
}

// BreakerSet manages one Breaker per source name, created lazily on
// first use so the set covers whatever sources the plans mention.
type BreakerSet struct {
	now func() time.Time // the breakers' clock; tests compress it

	mu sync.Mutex
	m  map[string]*Breaker
}

// NewBreakerSet returns an empty set on the wall clock.
func NewBreakerSet() *BreakerSet {
	return &BreakerSet{now: time.Now, m: map[string]*Breaker{}}
}

// For returns (creating if needed) the breaker for a source name.
func (s *BreakerSet) For(name string) *Breaker {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.m[name]
	if !ok {
		b = &Breaker{now: func() time.Time { return s.now() }, gauge: obsBreakerState.With(name)}
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
