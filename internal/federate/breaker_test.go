package federate

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// testBreakerSet returns a set with an injected clock.
func testBreakerSet() (*BreakerSet, func(time.Duration)) {
	s := NewBreakerSet()
	var mu sync.Mutex
	now := time.Unix(1000, 0)
	s.now = func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	advance := func(d time.Duration) { mu.Lock(); now = now.Add(d); mu.Unlock() }
	return s, advance
}

// trip records the failures that open a closed breaker.
func trip(b *Breaker) {
	for i := 0; i < breakerThreshold; i++ {
		b.RecordFailure()
	}
}

// transitions reads the process-wide mdm_federate_breaker_* counters;
// a test asserts on the difference across what it does.
type transitions struct{ opened, halfOpened, closed, fastFails float64 }

func readTransitions() transitions {
	return transitions{obsBreakerOpened.Value(), obsBreakerHalfOpened.Value(),
		obsBreakerClosed.Value(), obsBreakerFastFails.Value()}
}

func (t transitions) since(before transitions) transitions {
	return transitions{t.opened - before.opened, t.halfOpened - before.halfOpened,
		t.closed - before.closed, t.fastFails - before.fastFails}
}

// wantGauge asserts the exported mdm_federate_breaker_state series of a
// source follows its breaker.
func wantGauge(t *testing.T, source string, want BreakerState) {
	t.Helper()
	if got := obsBreakerState.With(source).Value(); got != float64(want) {
		t.Fatalf("mdm_federate_breaker_state{source=%q} = %v, want %v (%d)", source, got, want, want)
	}
}

// TestBreakerThresholdTrip: the breaker stays closed through
// threshold-1 consecutive failures, trips on the threshold-th, and a
// success in between resets the count.
func TestBreakerThresholdTrip(t *testing.T) {
	s, _ := testBreakerSet()
	before := readTransitions()
	b := s.For("src")
	for i := 0; i < breakerThreshold-1; i++ {
		b.RecordFailure()
		if got := b.State(); got != StateClosed {
			t.Fatalf("state after %d failures = %v, want closed", i+1, got)
		}
	}
	// A success wipes the consecutive count.
	b.RecordSuccess()
	for i := 0; i < breakerThreshold-1; i++ {
		b.RecordFailure()
	}
	if got := b.State(); got != StateClosed {
		t.Fatalf("state after success+%d failures = %v, want closed", breakerThreshold-1, got)
	}
	b.RecordFailure()
	if got := b.State(); got != StateOpen {
		t.Fatalf("state after threshold = %v, want open", got)
	}
	if err := b.Allow(); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("Allow while open = %v, want ErrBreakerOpen", err)
	}
	if d := readTransitions().since(before); d.opened != 1 || d.fastFails != 1 {
		t.Fatalf("transitions = %+v, want 1 opened / 1 fast fail", d)
	}
}

// TestBreakerHalfOpenProbeSuccess: after the cooldown one caller gets
// the probe slot, concurrent callers keep failing fast, and the probe's
// success closes the breaker.
func TestBreakerHalfOpenProbeSuccess(t *testing.T) {
	s, advance := testBreakerSet()
	before := readTransitions()
	b := s.For("src")
	wantGauge(t, "src", StateClosed)
	trip(b)
	if got := b.State(); got != StateOpen {
		t.Fatalf("state = %v, want open", got)
	}
	wantGauge(t, "src", StateOpen)
	advance(breakerCooldown - time.Second)
	if err := b.Allow(); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("Allow inside cooldown = %v, want ErrBreakerOpen", err)
	}
	advance(2 * time.Second)
	if err := b.Allow(); err != nil {
		t.Fatalf("probe Allow = %v, want nil", err)
	}
	if got := b.State(); got != StateHalfOpen {
		t.Fatalf("state = %v, want half-open", got)
	}
	wantGauge(t, "src", StateHalfOpen)
	// The probe is out; everyone else fails fast.
	if err := b.Allow(); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("concurrent Allow during probe = %v, want ErrBreakerOpen", err)
	}
	b.RecordSuccess()
	if got := b.State(); got != StateClosed {
		t.Fatalf("state after probe success = %v, want closed", got)
	}
	wantGauge(t, "src", StateClosed)
	if err := b.Allow(); err != nil {
		t.Fatalf("Allow after recovery = %v", err)
	}
	if d := readTransitions().since(before); d.opened != 1 || d.halfOpened != 1 || d.closed != 1 {
		t.Fatalf("transitions = %+v, want 1 opened / 1 half-opened / 1 closed", d)
	}
}

// TestBreakerHalfOpenProbeFailure: a failed probe re-opens the breaker
// for another full cooldown.
func TestBreakerHalfOpenProbeFailure(t *testing.T) {
	s, advance := testBreakerSet()
	before := readTransitions()
	b := s.For("src")
	trip(b)
	advance(breakerCooldown + time.Second)
	if err := b.Allow(); err != nil {
		t.Fatalf("probe Allow = %v", err)
	}
	b.RecordFailure()
	if got := b.State(); got != StateOpen {
		t.Fatalf("state after probe failure = %v, want open", got)
	}
	wantGauge(t, "src", StateOpen)
	// The cooldown restarts from the re-trip.
	advance(breakerCooldown - time.Second)
	if err := b.Allow(); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("Allow inside second cooldown = %v, want ErrBreakerOpen", err)
	}
	advance(2 * time.Second)
	if err := b.Allow(); err != nil {
		t.Fatalf("second probe Allow = %v", err)
	}
	if d := readTransitions().since(before); d.opened != 2 {
		t.Fatalf("opened = %v, want 2", d.opened)
	}
}

// TestBreakerConcurrentCallersDuringOpen: every caller racing an open
// breaker fails fast (no probe slots before the cooldown), and the
// suppressions are counted. Run under -race in CI.
func TestBreakerConcurrentCallersDuringOpen(t *testing.T) {
	s, _ := testBreakerSet()
	before := readTransitions()
	b := s.For("src")
	trip(b)
	const n = 16
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = b.Allow()
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, ErrBreakerOpen) {
			t.Fatalf("caller %d: err = %v, want ErrBreakerOpen", i, err)
		}
	}
	if d := readTransitions().since(before); d.fastFails != n {
		t.Fatalf("fast fails = %v, want %d", d.fastFails, n)
	}
}

// TestBreakerSetResetAndStates: Reset returns a tripped source to
// closed (the wrapper re-registration hook) and creates nothing for a
// source it never saw.
func TestBreakerSetResetAndStates(t *testing.T) {
	s, _ := testBreakerSet()
	trip(s.For("down"))
	wantGauge(t, "down", StateOpen)
	s.Reset("down")
	if st := s.For("down").State(); st != StateClosed {
		t.Fatalf("state after Reset = %v, want closed", st)
	}
	wantGauge(t, "down", StateClosed)
	if err := s.For("down").Allow(); err != nil {
		t.Fatalf("Allow after Reset = %v", err)
	}
	s.Reset("never-seen") // must not create or panic
	if _, ok := s.m["never-seen"]; ok {
		t.Fatal("Reset created a breaker")
	}
}

// TestBreakerOpenRecordsIgnored: outcomes recorded while open (stragglers
// from fetches that started before the trip) neither close nor re-trip.
func TestBreakerOpenRecordsIgnored(t *testing.T) {
	s, _ := testBreakerSet()
	before := readTransitions()
	b := s.For("src")
	trip(b)
	b.RecordSuccess()
	b.RecordFailure()
	if got := b.State(); got != StateOpen {
		t.Fatalf("state = %v, want open (records while open ignored)", got)
	}
	if d := readTransitions().since(before); d.opened != 1 {
		t.Fatalf("opened = %v, want 1", d.opened)
	}
}
