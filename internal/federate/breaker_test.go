package federate

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// testBreakerSet returns a set with an injected clock.
func testBreakerSet(threshold int, cooldown time.Duration) (*BreakerSet, func(time.Duration)) {
	s := NewBreakerSet(threshold, cooldown)
	var mu sync.Mutex
	now := time.Unix(1000, 0)
	s.now = func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	advance := func(d time.Duration) { mu.Lock(); now = now.Add(d); mu.Unlock() }
	return s, advance
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
	s, _ := testBreakerSet(3, time.Minute)
	b := s.For("src")
	for i := 0; i < 2; i++ {
		b.RecordFailure()
		if got := b.State(); got != StateClosed {
			t.Fatalf("state after %d failures = %v, want closed", i+1, got)
		}
	}
	// A success wipes the consecutive count.
	b.RecordSuccess()
	for i := 0; i < 2; i++ {
		b.RecordFailure()
	}
	if got := b.State(); got != StateClosed {
		t.Fatalf("state after success+2 failures = %v, want closed", got)
	}
	b.RecordFailure()
	if got := b.State(); got != StateOpen {
		t.Fatalf("state after threshold = %v, want open", got)
	}
	if err := b.Allow(); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("Allow while open = %v, want ErrBreakerOpen", err)
	}
	if st := s.Stats(); st.Opened != 1 || st.FastFails != 1 {
		t.Fatalf("stats = %+v, want 1 opened / 1 fast fail", st)
	}
}

// TestBreakerHalfOpenProbeSuccess: after the cooldown one caller gets
// the probe slot, concurrent callers keep failing fast, and the probe's
// success closes the breaker.
func TestBreakerHalfOpenProbeSuccess(t *testing.T) {
	s, advance := testBreakerSet(1, time.Minute)
	b := s.For("src")
	wantGauge(t, "src", StateClosed)
	b.RecordFailure()
	if got := b.State(); got != StateOpen {
		t.Fatalf("state = %v, want open", got)
	}
	wantGauge(t, "src", StateOpen)
	advance(59 * time.Second)
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
	st := s.Stats()
	if st.Opened != 1 || st.HalfOpened != 1 || st.Closed != 1 {
		t.Fatalf("stats = %+v, want 1 opened / 1 half-opened / 1 closed", st)
	}
}

// TestBreakerHalfOpenProbeFailure: a failed probe re-opens the breaker
// for another full cooldown.
func TestBreakerHalfOpenProbeFailure(t *testing.T) {
	s, advance := testBreakerSet(1, time.Minute)
	b := s.For("src")
	b.RecordFailure()
	advance(61 * time.Second)
	if err := b.Allow(); err != nil {
		t.Fatalf("probe Allow = %v", err)
	}
	b.RecordFailure()
	if got := b.State(); got != StateOpen {
		t.Fatalf("state after probe failure = %v, want open", got)
	}
	wantGauge(t, "src", StateOpen)
	// The cooldown restarts from the re-trip.
	advance(59 * time.Second)
	if err := b.Allow(); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("Allow inside second cooldown = %v, want ErrBreakerOpen", err)
	}
	advance(2 * time.Second)
	if err := b.Allow(); err != nil {
		t.Fatalf("second probe Allow = %v", err)
	}
	if st := s.Stats(); st.Opened != 2 {
		t.Fatalf("opened = %d, want 2", st.Opened)
	}
}

// TestBreakerConcurrentCallersDuringOpen: every caller racing an open
// breaker fails fast (no probe slots before the cooldown), and the
// suppressions are counted. Run under -race in CI.
func TestBreakerConcurrentCallersDuringOpen(t *testing.T) {
	s, _ := testBreakerSet(1, time.Hour)
	b := s.For("src")
	b.RecordFailure()
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
	if st := s.Stats(); st.FastFails != n {
		t.Fatalf("fast fails = %d, want %d", st.FastFails, n)
	}
}

// TestBreakerSetResetAndStates: Reset returns a tripped source to
// closed (the wrapper re-registration hook) and States snapshots every
// known breaker.
func TestBreakerSetResetAndStates(t *testing.T) {
	s, _ := testBreakerSet(1, time.Hour)
	s.For("up").RecordSuccess()
	s.For("down").RecordFailure()
	want := map[string]string{"up": "closed", "down": "open"}
	got := s.States()
	if len(got) != len(want) || got["up"] != want["up"] || got["down"] != want["down"] {
		t.Fatalf("states = %v, want %v", got, want)
	}
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
	if _, ok := s.States()["never-seen"]; ok {
		t.Fatal("Reset created a breaker")
	}
}

// TestBreakerOpenRecordsIgnored: outcomes recorded while open (stragglers
// from fetches that started before the trip) neither close nor re-trip.
func TestBreakerOpenRecordsIgnored(t *testing.T) {
	s, _ := testBreakerSet(1, time.Hour)
	b := s.For("src")
	b.RecordFailure()
	b.RecordSuccess()
	b.RecordFailure()
	if got := b.State(); got != StateOpen {
		t.Fatalf("state = %v, want open (records while open ignored)", got)
	}
	if st := s.Stats(); st.Opened != 1 {
		t.Fatalf("opened = %d, want 1", st.Opened)
	}
}
