package obs

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"strconv"
	"sync"
	"time"
)

// Trace is one query's execution record: ordered coarse stages
// (parse/plan/execute), per-operator spans, and per-source federation
// spans. A Trace travels in the request context (WithTrace) and every
// layer that finds one attaches what it knows; nil receivers are safe
// on every method so call sites need no guards.
//
// Concurrency: all mutating methods take the trace mutex, because the
// federation scatter records source spans from worker goroutines. The
// fields of a *Span, however, are owned by the single goroutine
// driving the cursor pipeline (spans are only mutated from traceIter
// wrappers on the drain goroutine) and are read by Report after the
// drain completes.
type Trace struct {
	// Detail enables per-operator span wrapping in the SPARQL engine.
	// Off (the slow-query-log default) a Trace costs one nil-check at
	// operator construction; on (EXPLAIN) every operator is wrapped.
	Detail bool

	mu      sync.Mutex
	start   time.Time
	plan    string
	attrs   map[string]string
	stages  []Stage
	ops     []*Span
	keyed   map[any]*Span
	sources []SourceSpan
}

// Stage is one coarse phase of the query lifecycle.
type Stage struct {
	Name string
	Dur  time.Duration
}

// Span is one operator's aggregate record. Durations are inclusive of
// children (EXPLAIN ANALYZE semantics): an operator's time includes
// the time spent pulling from its input, so the outermost operator's
// time approximates the whole drain. Sub-chains that are instantiated
// per input row (OPTIONAL/UNION/GRAPH bodies) share one memoized Span,
// with Calls counting next() invocations across all instantiations.
type Span struct {
	Name     string
	Strategy string
	Calls    int64
	RowsOut  int64
	Dur      time.Duration
	in       *Span // span of the operator feeding this one, if known
}

// SetInput links src as this span's row source so Report can derive
// rows_in without the engine threading extra state.
func (s *Span) SetInput(src *Span) {
	if s != nil {
		s.in = src
	}
}

// SourceSpan is one federated source fetch within the scatter.
type SourceSpan struct {
	Source string
	Rows   int
	// Cols is how many columns the fetch was for (of an "ok" fetch, how
	// many came back), Declared how many the source's signature has: a
	// narrowed fetch reads Cols < Declared.
	Cols, Declared int
	Dur            time.Duration
	Outcome        string // ok | missing:<class> | error:<class>
}

// NewTrace starts a trace clocked from now.
func NewTrace() *Trace {
	return &Trace{start: time.Now(), keyed: make(map[any]*Span), attrs: make(map[string]string)}
}

type traceKey struct{}

// WithTrace attaches t to the context.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, traceKey{}, t)
}

// FromContext returns the context's trace, or nil.
func FromContext(ctx context.Context) *Trace {
	t, _ := ctx.Value(traceKey{}).(*Trace)
	return t
}

// StageDur records one completed stage.
func (t *Trace) StageDur(name string, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.stages = append(t.stages, Stage{Name: name, Dur: d})
	t.mu.Unlock()
}

// Operator returns the span memoized under key, creating it on first
// use. Keys are plan-node pointers, so the per-row re-instantiation of
// an OPTIONAL body aggregates into one span instead of one per row.
func (t *Trace) Operator(key any, name, strategy string) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if s, ok := t.keyed[key]; ok {
		return s
	}
	s := &Span{Name: name, Strategy: strategy}
	t.keyed[key] = s
	t.ops = append(t.ops, s)
	return s
}

// AddSource records one federated source fetch.
func (t *Trace) AddSource(s SourceSpan) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.sources = append(t.sources, s)
	t.mu.Unlock()
}

// SetPlan records the planner's one-line plan summary.
func (t *Trace) SetPlan(p string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.plan = p
	t.mu.Unlock()
}

// SetAttr records a freeform key/value annotation (rewrite_cache: hit,
// partial: true, ...).
func (t *Trace) SetAttr(k, v string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.attrs[k] = v
	t.mu.Unlock()
}

// Attrs returns a copy of the recorded annotations, nil when there are
// none.
func (t *Trace) Attrs() map[string]string {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.attrsLocked()
}

func (t *Trace) attrsLocked() map[string]string {
	if len(t.attrs) == 0 {
		return nil
	}
	m := make(map[string]string, len(t.attrs))
	for k, v := range t.attrs {
		m[k] = v
	}
	return m
}

// Plan returns the recorded plan summary.
func (t *Trace) Plan() string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.plan
}

// Stages returns a name→milliseconds map of the recorded stages.
func (t *Trace) Stages() map[string]float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	m := make(map[string]float64, len(t.stages))
	for _, s := range t.stages {
		m[s.Name] += ms(s.Dur)
	}
	return m
}

// Report is the JSON shape served by ?explain=1 and mdmctl explain. See
// docs/OBSERVABILITY.md for the schema.
type Report struct {
	DurationMS float64           `json:"duration_ms"`
	Plan       string            `json:"plan,omitempty"`
	Attrs      map[string]string `json:"attrs,omitempty"`
	Stages     []StageReport     `json:"stages"`
	Operators  []OpReport        `json:"operators,omitempty"`
	Sources    []SourceReport    `json:"sources,omitempty"`
}

type StageReport struct {
	Name   string  `json:"name"`
	TimeMS float64 `json:"time_ms"`
}

type OpReport struct {
	Op       string  `json:"op"`
	Strategy string  `json:"strategy,omitempty"`
	Calls    int64   `json:"calls"`
	RowsIn   int64   `json:"rows_in"`
	RowsOut  int64   `json:"rows_out"`
	TimeMS   float64 `json:"time_ms"` // inclusive of input operators
}

type SourceReport struct {
	Source  string  `json:"source"`
	Rows    int     `json:"rows"`
	Columns string  `json:"columns"` // fetched/declared, "2/7"
	TimeMS  float64 `json:"time_ms"`
	Outcome string  `json:"outcome"`
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// Report snapshots the trace. Safe to call once the drain goroutine is
// done; duration is measured from NewTrace to now.
func (t *Trace) Report() *Report {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	r := &Report{DurationMS: ms(time.Since(t.start))}
	r.Plan = t.plan
	r.Attrs = t.attrsLocked()
	r.Stages = make([]StageReport, 0, len(t.stages))
	for _, s := range t.stages {
		r.Stages = append(r.Stages, StageReport{Name: s.Name, TimeMS: ms(s.Dur)})
	}
	for _, op := range t.ops {
		or := OpReport{
			Op: op.Name, Strategy: op.Strategy, Calls: op.Calls,
			RowsOut: op.RowsOut, TimeMS: ms(op.Dur),
		}
		if op.in != nil {
			or.RowsIn = op.in.RowsOut
		}
		r.Operators = append(r.Operators, or)
	}
	r.Sources = t.sourcesLocked()
	return r
}

// Sources returns one report per recorded source fetch, in the order
// the fetches finished.
func (t *Trace) Sources() []SourceReport {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.sourcesLocked()
}

func (t *Trace) sourcesLocked() []SourceReport {
	var out []SourceReport
	for _, s := range t.sources {
		out = append(out, SourceReport{Source: s.Source, Rows: s.Rows,
			Columns: strconv.Itoa(s.Cols) + "/" + strconv.Itoa(s.Declared), TimeMS: ms(s.Dur), Outcome: s.Outcome})
	}
	return out
}

// QueryHash returns the truncated SHA-256 of a query text — the stable
// identifier slow-query log lines carry instead of the raw query.
func QueryHash(q string) string {
	sum := sha256.Sum256([]byte(q))
	return hex.EncodeToString(sum[:8])
}
