// Package obs is the dependency-free observability layer: a Prometheus
// text-format metrics registry (counters, gauges, histograms with
// bounded label cardinality), a per-query Trace carried through
// context, and a structured slow-query log.
//
// The registry is write-optimized for instrumentation sites: resolving
// a labeled series (With) takes one mutex-guarded map lookup and is
// meant to be hoisted out of hot loops; updating a resolved series is
// a single atomic CAS. Rendering (WritePrometheus) walks everything
// under the registry lock, which is fine at scrape frequency.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// DefaultMaxSeries bounds the number of label combinations one family
// will intern. Past the cap, new combinations collapse into a single
// reserved series whose every label value is "_overflow", so an
// unbounded label (a user-supplied source name, say) cannot grow the
// scrape without bound.
const DefaultMaxSeries = 256

// overflowValue is the label value of the cardinality-cap sink series.
const overflowValue = "_overflow"

// DefBuckets are the default latency buckets (seconds), spanning
// sub-millisecond index probes to multi-second federated scatters.
var DefBuckets = []float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

// Default is the process-wide registry served at GET /metrics.
// Instrumented packages register their families here at init.
var Default = NewRegistry()

type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) promType() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// Registry holds metric families keyed by name. Registration panics on
// an invalid or duplicate name: both are programming errors, and
// catching them at init (rather than serving a corrupt scrape) is what
// tools/metricslint runs the binary for.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry. Tests use private registries
// so golden scrapes are not polluted by process-global counters.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

type family struct {
	name    string
	help    string
	kind    kind
	labels  []string
	buckets []float64 // histogram upper bounds, +Inf implicit

	mu       sync.Mutex
	series   map[string]*series
	order    []*series
	max      int
	overflow *series
}

// series is one label combination's values. Counter/gauge values live
// in bits as math.Float64bits; histograms keep per-bucket (not
// cumulative) counts plus a bits-encoded sum.
type series struct {
	lvs     []string
	bits    atomic.Uint64
	bcounts []atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64
}

func addFloat(bits *atomic.Uint64, d float64) {
	for {
		o := bits.Load()
		n := math.Float64bits(math.Float64frombits(o) + d)
		if bits.CompareAndSwap(o, n) {
			return
		}
	}
}

var (
	nameRe  = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelRe = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

func (r *Registry) register(name, help string, k kind, labels []string, buckets []float64) *family {
	if !nameRe.MatchString(name) {
		panic("obs: invalid metric name " + strconv.Quote(name))
	}
	for _, l := range labels {
		if !labelRe.MatchString(l) || strings.HasPrefix(l, "__") {
			panic("obs: invalid label name " + strconv.Quote(l) + " on " + name)
		}
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic("obs: histogram buckets not strictly increasing on " + name)
		}
	}
	f := &family{
		name: name, help: help, kind: k, labels: labels,
		buckets: buckets,
		series:  make(map[string]*series), max: DefaultMaxSeries,
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.families[name]; dup {
		panic("obs: metric registered twice: " + name)
	}
	r.families[name] = f
	return f
}

func (f *family) with(lvs []string) *series {
	if len(lvs) != len(f.labels) {
		panic(fmt.Sprintf("obs: %s wants %d label values, got %d", f.name, len(f.labels), len(lvs)))
	}
	key := strings.Join(lvs, "\x00")
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[key]; ok {
		return s
	}
	if len(f.series) >= f.max {
		if f.overflow == nil {
			ovs := make([]string, len(f.labels))
			for i := range ovs {
				ovs[i] = overflowValue
			}
			f.overflow = f.newSeries(ovs)
			f.order = append(f.order, f.overflow)
		}
		return f.overflow
	}
	s := f.newSeries(append([]string(nil), lvs...))
	f.series[key] = s
	f.order = append(f.order, s)
	return s
}

func (f *family) newSeries(lvs []string) *series {
	s := &series{lvs: lvs}
	if f.kind == kindHistogram {
		s.bcounts = make([]atomic.Uint64, len(f.buckets))
	}
	return s
}

// Counter is a monotonically increasing series.
type Counter struct{ s *series }

func (c *Counter) Inc()          { addFloat(&c.s.bits, 1) }
func (c *Counter) Add(d float64) { addFloat(&c.s.bits, d) }

// Value returns the current count. Intended for tests.
func (c *Counter) Value() float64 { return math.Float64frombits(c.s.bits.Load()) }

// Gauge is a series that can go up and down.
type Gauge struct{ s *series }

func (g *Gauge) Set(v float64)  { g.s.bits.Store(math.Float64bits(v)) }
func (g *Gauge) Add(d float64)  { addFloat(&g.s.bits, d) }
func (g *Gauge) Inc()           { g.Add(1) }
func (g *Gauge) Dec()           { g.Add(-1) }
func (g *Gauge) Value() float64 { return math.Float64frombits(g.s.bits.Load()) }

// Histogram accumulates observations into fixed buckets.
type Histogram struct {
	f *family
	s *series
}

func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.f.buckets, v)
	if i < len(h.s.bcounts) {
		h.s.bcounts[i].Add(1)
	}
	h.s.count.Add(1)
	addFloat(&h.s.sumBits, v)
}

// Count returns the total number of observations. Intended for tests.
func (h *Histogram) Count() uint64 { return h.s.count.Load() }

// CounterVec / GaugeVec / HistogramVec are labeled families; With
// interns one label combination and returns its series.
type CounterVec struct{ f *family }

func (v *CounterVec) With(lvs ...string) *Counter { return &Counter{v.f.with(lvs)} }

type GaugeVec struct{ f *family }

func (v *GaugeVec) With(lvs ...string) *Gauge { return &Gauge{v.f.with(lvs)} }

type HistogramVec struct{ f *family }

func (v *HistogramVec) With(lvs ...string) *Histogram {
	return &Histogram{f: v.f, s: v.f.with(lvs)}
}

// NewCounter registers an unlabeled counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	f := r.register(name, help, kindCounter, nil, nil)
	return &Counter{f.with(nil)}
}

// NewCounterVec registers a labeled counter family.
func (r *Registry) NewCounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{r.register(name, help, kindCounter, labels, nil)}
}

// NewGauge registers an unlabeled gauge.
func (r *Registry) NewGauge(name, help string) *Gauge {
	f := r.register(name, help, kindGauge, nil, nil)
	return &Gauge{f.with(nil)}
}

// NewGaugeVec registers a labeled gauge family.
func (r *Registry) NewGaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{r.register(name, help, kindGauge, labels, nil)}
}

// NewHistogram registers an unlabeled histogram with the given upper
// bounds (+Inf is implicit). Pass DefBuckets for latencies.
func (r *Registry) NewHistogram(name, help string, buckets []float64) *Histogram {
	f := r.register(name, help, kindHistogram, nil, buckets)
	return &Histogram{f: f, s: f.with(nil)}
}

// NewHistogramVec registers a labeled histogram family.
func (r *Registry) NewHistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	return &HistogramVec{r.register(name, help, kindHistogram, labels, buckets)}
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
var helpEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`)

// labelString renders {a="x",b="y"} for the series, folding in an
// extra le pair for histogram buckets; "" when there are no pairs.
func labelString(names, values []string, extraName, extraValue string) string {
	if len(names) == 0 && extraName == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(labelEscaper.Replace(values[i]))
		b.WriteByte('"')
	}
	if extraName != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraName)
		b.WriteString(`="`)
		b.WriteString(extraValue)
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// WritePrometheus renders every family in text exposition format
// (version 0.0.4), families and series in deterministic sorted order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	fams := make(map[string]*family, len(r.families))
	for n, f := range r.families {
		names = append(names, n)
		fams[n] = f
	}
	r.mu.Unlock()
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		f := fams[n]
		b.Reset()
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", f.name, helpEscaper.Replace(f.help), f.name, f.kind.promType())
		f.mu.Lock()
		order := append([]*series(nil), f.order...)
		f.mu.Unlock()
		sort.Slice(order, func(i, j int) bool {
			return strings.Join(order[i].lvs, "\x00") < strings.Join(order[j].lvs, "\x00")
		})
		for _, s := range order {
			if f.kind == kindHistogram {
				cum := uint64(0)
				for i := range f.buckets {
					cum += s.bcounts[i].Load()
					fmt.Fprintf(&b, "%s_bucket%s %d\n", f.name,
						labelString(f.labels, s.lvs, "le", formatFloat(f.buckets[i])), cum)
				}
				fmt.Fprintf(&b, "%s_bucket%s %d\n", f.name,
					labelString(f.labels, s.lvs, "le", "+Inf"), s.count.Load())
				fmt.Fprintf(&b, "%s_sum%s %s\n", f.name, labelString(f.labels, s.lvs, "", ""),
					formatFloat(math.Float64frombits(s.sumBits.Load())))
				fmt.Fprintf(&b, "%s_count%s %d\n", f.name, labelString(f.labels, s.lvs, "", ""), s.count.Load())
			} else {
				fmt.Fprintf(&b, "%s%s %s\n", f.name, labelString(f.labels, s.lvs, "", ""),
					formatFloat(math.Float64frombits(s.bits.Load())))
			}
		}
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}

// Handler serves the registry in Prometheus text format.
func Handler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}

// Lint checks every registered family against the repo's Prometheus
// naming conventions and returns one message per violation. Duplicate
// registration is not checked here because register panics on it —
// running the importing binary (tools/metricslint) is the check.
func (r *Registry) Lint() []string {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	var out []string
	for _, f := range fams {
		bad := func(msg string) { out = append(out, f.name+": "+msg) }
		if !strings.HasPrefix(f.name, "mdm_") {
			bad(`missing "mdm_" namespace prefix`)
		}
		if strings.ToLower(f.name) != f.name {
			bad("name contains uppercase letters")
		}
		isCounter := f.kind == kindCounter
		if isCounter && !strings.HasSuffix(f.name, "_total") {
			bad(`counter must end in "_total"`)
		}
		if !isCounter && strings.HasSuffix(f.name, "_total") {
			bad(`only counters may end in "_total"`)
		}
		if f.kind == kindHistogram {
			unit := false
			for _, suf := range []string{"_seconds", "_bytes", "_rows", "_sources"} {
				if strings.HasSuffix(f.name, suf) {
					unit = true
					break
				}
			}
			if !unit {
				bad(`histogram must carry a base-unit suffix (_seconds, _bytes, _rows or _sources)`)
			}
		}
		if f.help == "" {
			bad("missing help text")
		}
		for _, l := range f.labels {
			if strings.ToLower(l) != l {
				bad("label " + l + " contains uppercase letters")
			}
			if l == "le" || l == "quantile" {
				bad("label " + l + " is reserved")
			}
		}
	}
	return out
}
