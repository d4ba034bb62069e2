package federate

import (
	"context"
	"errors"
	"math/rand"
	"net"
	"time"

	"mdm/internal/wrapper"
)

// ErrClass buckets a source-fetch failure for two consumers: the retry
// loop (is another attempt worth the wait?) and the partial-results
// annotation (why is this source missing?). The classes and their
// retryability are part of the REST contract — see the error-class
// table in docs/ARCHITECTURE.md.
type ErrClass string

// Error classes. Retryable: timeout, network, http_5xx, rate_limited.
// Terminal: everything else — a canceled caller is gone, a 4xx or
// schema error will fail identically on every attempt, and an open
// breaker exists precisely to suppress attempts.
const (
	// ClassCanceled: the caller's context was canceled (client gone).
	ClassCanceled ErrClass = "canceled"
	// ClassTimeout: a fetch deadline expired (per-source or caller).
	ClassTimeout ErrClass = "timeout"
	// ClassNetwork: transport-level failure (refused, reset, DNS).
	ClassNetwork ErrClass = "network"
	// ClassHTTP5xx: the source answered with a 5xx.
	ClassHTTP5xx ErrClass = "http_5xx"
	// ClassRateLimited: the source answered 429.
	ClassRateLimited ErrClass = "rate_limited"
	// ClassHTTP4xx: the source answered with a non-429 4xx.
	ClassHTTP4xx ErrClass = "http_4xx"
	// ClassPayloadTooLarge: the payload exceeded the wrapper read cap.
	ClassPayloadTooLarge ErrClass = "payload_too_large"
	// ClassSchema: the source's rows contradict its declared schema.
	ClassSchema ErrClass = "schema"
	// ClassBreakerOpen: the fetch was suppressed by an open breaker.
	ClassBreakerOpen ErrClass = "breaker_open"
	// ClassOther: any unrecognized failure; treated as terminal.
	ClassOther ErrClass = "error"
)

// Retryable reports whether another fetch attempt could plausibly
// succeed.
func (c ErrClass) Retryable() bool {
	switch c {
	case ClassTimeout, ClassNetwork, ClassHTTP5xx, ClassRateLimited:
		return true
	}
	return false
}

// sourceFault reports whether the failure indicts the source (and so
// should count toward its circuit breaker). Caller-side cancellation
// and request-shaped errors (4xx, payload cap, schema drift) do not:
// the source is reachable, the request is the problem.
func (c ErrClass) sourceFault() bool { return c.Retryable() }

// errSchema tags the column-count guard failure so Classify can
// distinguish it from arbitrary wrapper errors.
var errSchema = errors.New("schema mismatch")

// Classify maps a source-fetch error to its class. Context errors are
// checked before transport errors because an *url.Error produced by a
// canceled HTTP request both wraps the context error and implements
// net.Error.
func Classify(err error) ErrClass {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, ErrBreakerOpen):
		return ClassBreakerOpen
	case errors.Is(err, context.Canceled):
		return ClassCanceled
	case errors.Is(err, context.DeadlineExceeded):
		return ClassTimeout
	case errors.Is(err, wrapper.ErrPayloadTooLarge):
		return ClassPayloadTooLarge
	case errors.Is(err, errSchema):
		return ClassSchema
	}
	var st *wrapper.StatusError
	if errors.As(err, &st) {
		switch {
		case st.Code >= 500:
			return ClassHTTP5xx
		case st.Code == 429:
			return ClassRateLimited
		case st.Code >= 400:
			return ClassHTTP4xx
		}
		return ClassOther
	}
	var ne net.Error
	if errors.As(err, &ne) {
		if ne.Timeout() {
			return ClassTimeout
		}
		return ClassNetwork
	}
	return ClassOther
}

// The retry policy. Only errors whose class is Retryable are retried,
// up to retries times after the first attempt; each retry waits a
// jittered exponential backoff from retryBase, capped at retryCeil.
// Retries run inside the cache's singleflight fill, so N concurrent
// walks waiting on one flaky source share one retry sequence rather than
// issuing N of them.
const (
	retries             = 2
	retryBase           = 50 * time.Millisecond
	retryCeil           = 2 * time.Second
	maxBackoffDoublings = 16 // beyond this the ceiling always applies
)

// backoff returns the jittered delay before retry number attempt
// (0-based): equal jitter over an exponentially growing window,
// delay ∈ [base·2ᵃ/2, base·2ᵃ], capped at retryCeil. Jitter decorrelates
// the retry storms of concurrent queries hitting one recovering source.
func backoff(attempt int) time.Duration {
	d := retryCeil
	if attempt < maxBackoffDoublings {
		if grown := retryBase << attempt; grown < retryCeil {
			d = grown
		}
	}
	return d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
}

// sleepCtx sleeps d, aborting early when ctx dies: the engine's backoff
// sleep.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
