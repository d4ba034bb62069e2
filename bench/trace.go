package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mdm"
	"mdm/internal/relalg"
	"mdm/internal/wrapper"
)

// span is one timed interval at a layer boundary. Spans of one op share
// op_id; parent names the span that caused this one. Times are
// nanoseconds since the tracer was created.
type span struct {
	Name    string `json:"name"`
	OpID    int    `json:"op_id"`
	Class   string `json:"class"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  string `json:"parent"`
	Rows    int    `json:"rows,omitempty"` // rows fetched, drained or emitted
	N       int    `json:"n,omitempty"`    // conjunctive queries in the rewriting
	probe   bool   // recorded by a layer probe, not in line with a request
}

// tracer records spans from outside the program: around the client's
// request, around rest.Server (middleware), around every wrapper's Fetch
// (decorator), and around the direct layer calls of the probes. The
// traced pass is single-client, so "the current op" is process-wide.
type tracer struct {
	t0 time.Time

	cur      atomic.Int64 // op id of the request in flight
	curClass atomic.Pointer[string]
	// probing says the spans being recorded come from a layer probe;
	// wrapper fetches are then caused by federate.run rather than by the
	// REST handler. It only changes when nothing is in flight.
	probing bool

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// settle collects garbage before a traced request and before the probes
// that follow it. An op and its probes allocate about as much as the
// small live heap lets the collector wait for, so left alone every GC
// cycle falls into the same span of every op and that span pays for the
// others' garbage. After settle a span pays only for the cycles its own
// allocation triggers; what the collector costs a request overall is in
// go.gc_* and in the end-to-end numbers, not in the spans.
func settle() { runtime.GC() }

func (t *tracer) fetchParent() string {
	if t.probing {
		return "federate.run"
	}
	return "rest.handler"
}

func (t *tracer) begin(opID int, class string) {
	t.cur.Store(int64(opID))
	t.curClass.Store(&class)
}

// record adds s (its name, parent and counts set by the caller) as a span
// of the op currently in flight, from start to end.
func (t *tracer) record(s span, start, end time.Time) {
	s.OpID = int(t.cur.Load())
	if c := t.curClass.Load(); c != nil {
		s.Class = *c
	}
	s.StartNs, s.EndNs = int64(start.Sub(t.t0)), int64(end.Sub(t.t0))
	s.probe = t.probing
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// take returns the recorded spans and clears the tracer.
func (t *tracer) take() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.spans
	t.spans = nil
	return out
}

// middleware records a rest.handler span around the REST server.
func (t *tracer) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		next.ServeHTTP(w, r)
		t.record(span{Name: "rest.handler", Parent: "client.request"}, start, time.Now())
	})
}

// tracedWrapper decorates a wrapper so that every Fetch leaves a span
// carrying the number of rows fetched.
type tracedWrapper struct {
	wrapper.Wrapper
	t *tracer
}

func (w *tracedWrapper) Fetch(ctx context.Context) (*relalg.Relation, error) {
	start := time.Now()
	rel, err := w.Wrapper.Fetch(ctx)
	rows := 0
	if rel != nil {
		rows = len(rel.Rows)
	}
	w.t.record(span{Name: "wrapper.fetch", Parent: w.t.fetchParent(), Rows: rows}, start, time.Now())
	return rel, err
}

func (t *tracer) wrap(w wrapper.Wrapper) wrapper.Wrapper {
	if _, done := w.(*tracedWrapper); done {
		return w
	}
	return &tracedWrapper{Wrapper: w, t: t}
}

// decorate re-registers every wrapper of sys behind a tracedWrapper,
// source by source so that release order (which the release manager
// reads to find a version's predecessor) is preserved.
func (t *tracer) decorate(sys *mdm.System) error {
	reg := sys.Wrappers()
	for _, src := range reg.Sources() {
		ws := reg.BySource(src)
		for _, w := range ws {
			reg.Remove(w.Name())
		}
		for _, w := range ws {
			if err := reg.Register(t.wrap(w)); err != nil {
				return err
			}
		}
	}
	return nil
}

// --- span arithmetic ---

// covered is the total length of the union of the given intervals
// clipped to [lo, hi]: how much of a parent span its children cover.
func covered(children []span, lo, hi int64) int64 {
	sort.Slice(children, func(i, j int) bool { return children[i].StartNs < children[j].StartNs })
	var total int64
	end := lo
	for _, c := range children {
		s, e := max(c.StartNs, end), min(c.EndNs, hi)
		if e > s {
			total += e - s
			end = e
		}
	}
	return total
}

// --- /metrics scraping ---

// scrape reads GET /metrics into a map from series (name plus label
// set, as rendered) to value.
func (e *env) scrape() (map[string]float64, error) {
	resp, err := e.client.Get(e.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	return parseMetrics(resp.Body)
}

func parseMetrics(r io.Reader) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// counterDeltas subtracts two scrapes, keeping the series that moved and
// are counters (histogram buckets are dropped to keep trace files small).
func counterDeltas(before, after map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for k, v := range after {
		if d := v - before[k]; d != 0 && !strings.Contains(k, "_bucket{") {
			out[k] = d
		}
	}
	return out
}

// sumPrefix adds up every series whose name (before any label set)
// equals name.
func sumPrefix(m map[string]float64, name string) float64 {
	var s float64
	for k, v := range m {
		if k == name || strings.HasPrefix(k, name+"{") {
			s += v
		}
	}
	return s
}
