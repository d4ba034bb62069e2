package federate

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"mdm/internal/relalg"
	"mdm/internal/wrapper"
)

// fakeNetErr implements net.Error.
type fakeNetErr struct{ timeout bool }

func (e *fakeNetErr) Error() string   { return "fake net error" }
func (e *fakeNetErr) Timeout() bool   { return e.timeout }
func (e *fakeNetErr) Temporary() bool { return false }

// TestClassify pins the error-class table of the REST annotation
// contract, including the wrapped forms fetchSource produces.
func TestClassify(t *testing.T) {
	wrap := func(err error) error { return fmt.Errorf("federate: source w: %w", err) }
	for _, tc := range []struct {
		name string
		err  error
		want ErrClass
	}{
		{"nil", nil, ""},
		{"canceled", context.Canceled, ClassCanceled},
		{"canceled wrapped", wrap(context.Canceled), ClassCanceled},
		{"deadline", context.DeadlineExceeded, ClassTimeout},
		{"deadline wrapped", wrap(context.DeadlineExceeded), ClassTimeout},
		{"payload cap", wrap(wrapper.ErrPayloadTooLarge), ClassPayloadTooLarge},
		{"schema guard", wrap(errSchema), ClassSchema},
		{"breaker", wrap(ErrBreakerOpen), ClassBreakerOpen},
		{"http 500", wrap(&wrapper.StatusError{URL: "u", Code: 500}), ClassHTTP5xx},
		{"http 503", wrap(&wrapper.StatusError{URL: "u", Code: 503}), ClassHTTP5xx},
		{"http 429", wrap(&wrapper.StatusError{URL: "u", Code: 429}), ClassRateLimited},
		{"http 404", wrap(&wrapper.StatusError{URL: "u", Code: 404}), ClassHTTP4xx},
		{"http 422", wrap(&wrapper.StatusError{URL: "u", Code: 422}), ClassHTTP4xx},
		{"net timeout", wrap(&fakeNetErr{timeout: true}), ClassTimeout},
		{"net refused", wrap(&fakeNetErr{}), ClassNetwork},
		{"opaque", wrap(errors.New("boom")), ClassOther},
	} {
		if got := Classify(tc.err); got != tc.want {
			t.Errorf("%s: Classify = %q, want %q", tc.name, got, tc.want)
		}
	}
}

// TestRetryableSet pins which classes get retried and which are
// terminal — and that exactly the retryable set indicts the source for
// breaker purposes.
func TestRetryableSet(t *testing.T) {
	retryable := map[ErrClass]bool{
		ClassTimeout: true, ClassNetwork: true, ClassHTTP5xx: true, ClassRateLimited: true,
	}
	all := []ErrClass{
		ClassCanceled, ClassTimeout, ClassNetwork, ClassHTTP5xx, ClassRateLimited,
		ClassHTTP4xx, ClassPayloadTooLarge, ClassSchema, ClassBreakerOpen, ClassOther,
	}
	for _, c := range all {
		if got := c.Retryable(); got != retryable[c] {
			t.Errorf("%s.Retryable = %v, want %v", c, got, retryable[c])
		}
		if got := c.sourceFault(); got != retryable[c] {
			t.Errorf("%s.sourceFault = %v, want %v", c, got, retryable[c])
		}
	}
}

// TestBackoffJitterBounds: each backoff lands in the equal-jitter
// window [d/2, d] for the exponentially grown, ceiling-capped d.
func TestBackoffJitterBounds(t *testing.T) {
	for attempt := 0; attempt < 10; attempt++ {
		d := retryBase << attempt
		if d <= 0 || d > retryCeil {
			d = retryCeil
		}
		for i := 0; i < 50; i++ {
			got := backoff(attempt)
			if got < d/2 || got > d {
				t.Fatalf("attempt %d: backoff = %v, want in [%v, %v]", attempt, got, d/2, d)
			}
		}
	}
}

// seqSource fails with scripted errors, then serves rel forever.
type seqSource struct {
	name    string
	errs    []error
	rel     *relalg.Relation
	fetches atomic.Int32
}

func (s *seqSource) Name() string      { return s.name }
func (s *seqSource) Columns() []string { return s.rel.Cols }
func (s *seqSource) Fetch(context.Context) (*relalg.Relation, error) {
	n := int(s.fetches.Add(1))
	if n <= len(s.errs) {
		return nil, s.errs[n-1]
	}
	return s.rel, nil
}

func instantSleep(record *[]time.Duration) func(context.Context, time.Duration) error {
	return func(_ context.Context, d time.Duration) error {
		if record != nil {
			*record = append(*record, d)
		}
		return nil
	}
}

// TestEngineRetriesTransient: two 503s then success recovers within the
// retry budget, waiting a jittered backoff before each retry.
func TestEngineRetriesTransient(t *testing.T) {
	rel := relalg.NewRelation("a")
	rel.MustAppend(relalg.Row{relalg.Int(7)})
	flaky := &seqSource{name: "flaky", rel: rel, errs: []error{
		&wrapper.StatusError{URL: "u", Code: 503},
		&wrapper.StatusError{URL: "u", Code: 503},
	}}
	eng := NewEngine()
	var delays []time.Duration
	eng.sleep = instantSleep(&delays)

	cur, err := eng.Run(context.Background(), relalg.NewScan(flaky))
	if err != nil {
		t.Fatalf("run after transient flakes: %v", err)
	}
	got, err := cur.Materialize(context.Background())
	if err != nil || got.Len() != 1 {
		t.Fatalf("rows = %v, err = %v", got, err)
	}
	if n := flaky.fetches.Load(); n != 3 {
		t.Fatalf("fetches = %d, want 3 (1 + 2 retries)", n)
	}
	if len(delays) != 2 {
		t.Fatalf("backoffs = %d, want 2", len(delays))
	}
	for i, d := range delays {
		win := retryBase << i
		if d < win/2 || d > win {
			t.Fatalf("backoff %d = %v, want in [%v, %v]", i, d, win/2, win)
		}
	}
}

// TestEngineRetryBudgetExhausted: a source that stays down surfaces the
// last real error after 1+retries attempts.
func TestEngineRetryBudgetExhausted(t *testing.T) {
	down := &seqSource{name: "down", rel: relalg.NewRelation("a"), errs: []error{
		&wrapper.StatusError{URL: "u", Code: 503},
		&wrapper.StatusError{URL: "u", Code: 503},
		&wrapper.StatusError{URL: "u", Code: 503},
	}}
	eng := NewEngine()
	eng.sleep = instantSleep(nil)
	_, err := eng.Run(context.Background(), relalg.NewScan(down))
	var st *wrapper.StatusError
	if !errors.As(err, &st) || st.Code != 503 {
		t.Fatalf("err = %v, want the 503", err)
	}
	if n := down.fetches.Load(); n != 3 {
		t.Fatalf("fetches = %d, want 3", n)
	}
}

// TestEngineCancelDuringBackoff: canceling the caller's context while
// the retry ladder sleeps must abort the wait immediately — well under
// the backoff — and surface an error that classifies as a cancellation,
// not as the prior attempt's network/5xx failure.
func TestEngineCancelDuringBackoff(t *testing.T) {
	down := &seqSource{name: "down", rel: relalg.NewRelation("a"), errs: []error{
		&wrapper.StatusError{URL: "u", Code: 503},
		&wrapper.StatusError{URL: "u", Code: 503},
	}}
	eng := NewEngine()
	// The real sleep, stretched to a 30s backoff that only a prompt ctx
	// abort can get us out of within the test timeout.
	eng.sleep = func(ctx context.Context, _ time.Duration) error { return sleepCtx(ctx, 30*time.Second) }

	ctx, cancel := context.WithCancel(context.Background())
	timer := time.AfterFunc(20*time.Millisecond, cancel)
	defer timer.Stop()
	defer cancel()

	start := time.Now()
	_, err := eng.Run(ctx, relalg.NewScan(down))
	elapsed := time.Since(start)

	if elapsed > 5*time.Second {
		t.Fatalf("cancel mid-backoff took %v, want well under the 30s backoff", elapsed)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled in the chain", err)
	}
	if got := Classify(err); got != ClassCanceled {
		t.Fatalf("Classify(%v) = %q, want %q", err, got, ClassCanceled)
	}
	if n := down.fetches.Load(); n != 1 {
		t.Fatalf("fetches = %d, want 1 (canceled before the retry fired)", n)
	}
}

// TestEngineTerminalErrorsNotRetried: 4xx, payload-cap and schema
// failures fail on the first attempt — retrying cannot fix the request.
func TestEngineTerminalErrorsNotRetried(t *testing.T) {
	for _, tc := range []struct {
		name string
		err  error
	}{
		{"http 404", &wrapper.StatusError{URL: "u", Code: 404}},
		{"payload cap", wrapper.ErrPayloadTooLarge},
		{"opaque", errors.New("boom")},
	} {
		src := &seqSource{name: "t", rel: relalg.NewRelation("a"), errs: []error{tc.err, tc.err, tc.err}}
		eng := NewEngine()
		eng.sleep = instantSleep(nil)
		_, err := eng.Run(context.Background(), relalg.NewScan(src))
		if !errors.Is(err, tc.err) {
			t.Fatalf("%s: err = %v, want %v", tc.name, err, tc.err)
		}
		if n := src.fetches.Load(); n != 1 {
			t.Fatalf("%s: fetches = %d, want 1 (terminal)", tc.name, n)
		}
	}
}
