package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

// TestConcurrentUpdates hammers one counter, gauge, and histogram from
// many goroutines; run under -race this is the data-race check, and
// the final values pin that no CAS update is lost.
func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("mdm_test_ops_total", "ops")
	g := r.NewGauge("mdm_test_inflight", "inflight")
	h := r.NewHistogram("mdm_test_latency_seconds", "latency", []float64{0.01, 0.1, 1})
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				g.Inc()
				g.Dec()
				h.Observe(float64(i%3) * 0.05)
			}
		}(w)
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Errorf("counter = %v, want %d", got, workers*per)
	}
	if got := g.Value(); got != 0 {
		t.Errorf("gauge = %v, want 0", got)
	}
	if got := h.Count(); got != workers*per {
		t.Errorf("histogram count = %d, want %d", got, workers*per)
	}
}

func TestCardinalityCap(t *testing.T) {
	r := NewRegistry()
	v := r.NewCounterVec("mdm_test_sources_total", "per source", "source")
	v.f.max = 4
	for i := 0; i < 10; i++ {
		v.With(string(rune('a' + i))).Inc()
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, `mdm_test_sources_total{source="_overflow"} 6`) {
		t.Errorf("overflow series missing or wrong:\n%s", out)
	}
	if strings.Contains(out, `source="e"`) {
		t.Errorf("series beyond the cap was interned:\n%s", out)
	}
	// The overflow sink is shared: a repeat lookup of a capped-out
	// combination lands on the same series.
	v.With("zzz").Add(2)
	if got := v.With("yyy").Value(); got != 8 {
		t.Errorf("overflow series = %v, want 8", got)
	}
}

// TestWritePrometheusGolden pins the exact text exposition output for
// one family of each kind.
func TestWritePrometheusGolden(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounterVec("mdm_g_requests_total", "requests", "endpoint", "class")
	c.With("/api/sparql", "2xx").Add(3)
	c.With("/api/query", "5xx").Inc()
	g := r.NewGauge("mdm_g_inflight", `in-flight "live" requests`)
	g.Set(2)
	h := r.NewHistogram("mdm_g_latency_seconds", "latency", []float64{0.1, 0.5})
	h.Observe(0.05)
	h.Observe(0.05)
	h.Observe(0.3)
	h.Observe(7)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP mdm_g_inflight in-flight "live" requests
# TYPE mdm_g_inflight gauge
mdm_g_inflight 2
# HELP mdm_g_latency_seconds latency
# TYPE mdm_g_latency_seconds histogram
mdm_g_latency_seconds_bucket{le="0.1"} 2
mdm_g_latency_seconds_bucket{le="0.5"} 3
mdm_g_latency_seconds_bucket{le="+Inf"} 4
mdm_g_latency_seconds_sum 7.4
mdm_g_latency_seconds_count 4
# HELP mdm_g_requests_total requests
# TYPE mdm_g_requests_total counter
mdm_g_requests_total{endpoint="/api/query",class="5xx"} 1
mdm_g_requests_total{endpoint="/api/sparql",class="2xx"} 3
`
	if b.String() != want {
		t.Errorf("golden mismatch:\n got:\n%s\nwant:\n%s", b.String(), want)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	v := r.NewCounterVec("mdm_esc_total", "escapes", "src")
	v.With("a\"b\\c\nd").Inc()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if want := `mdm_esc_total{src="a\"b\\c\nd"} 1`; !strings.Contains(b.String(), want) {
		t.Errorf("escaped series missing, got:\n%s", b.String())
	}
}

func TestHistogramBucketEdges(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("mdm_edge_seconds", "edges", []float64{1, 2})
	h.Observe(1) // le="1" is inclusive
	h.Observe(2)
	h.Observe(math.Inf(1))
	var b strings.Builder
	r.WritePrometheus(&b)
	for _, want := range []string{
		`mdm_edge_seconds_bucket{le="1"} 1`,
		`mdm_edge_seconds_bucket{le="2"} 2`,
		`mdm_edge_seconds_bucket{le="+Inf"} 3`,
	} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("missing %q in:\n%s", want, b.String())
		}
	}
}

func TestRegisterPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	r := NewRegistry()
	r.NewCounter("mdm_dup_total", "x")
	mustPanic("duplicate", func() { r.NewCounter("mdm_dup_total", "x") })
	mustPanic("bad name", func() { r.NewCounter("mdm bad", "x") })
	mustPanic("bad label", func() { r.NewCounterVec("mdm_l_total", "x", "0bad") })
	mustPanic("reserved label prefix", func() { r.NewCounterVec("mdm_l2_total", "x", "__name") })
	mustPanic("bad buckets", func() { r.NewHistogram("mdm_b_seconds", "x", []float64{1, 1}) })
	mustPanic("label arity", func() {
		v := r.NewCounterVec("mdm_arity_total", "x", "a", "b")
		v.With("only-one")
	})
}

func TestLint(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("bad_prefix_total", "x")           // missing mdm_
	r.NewCounter("mdm_noSuffix", "x")               // counter without _total + uppercase
	r.NewGauge("mdm_gauge_total", "x")              // gauge with _total
	r.NewHistogram("mdm_hist", "x", []float64{1})   // histogram without unit
	r.NewCounterVec("mdm_ok_total", "", "le")       // reserved label + empty help
	r.NewHistogram("mdm_fine_seconds", "fine", nil) // clean
	got := r.Lint()
	wantSubstrings := []string{
		`bad_prefix_total: missing "mdm_" namespace prefix`,
		`mdm_noSuffix: counter must end in "_total"`,
		`mdm_noSuffix: name contains uppercase letters`,
		`mdm_gauge_total: only counters may end in "_total"`,
		`mdm_hist: histogram must carry a base-unit suffix`,
		`mdm_ok_total: label le is reserved`,
		`mdm_ok_total: missing help text`,
	}
	joined := strings.Join(got, "\n")
	for _, w := range wantSubstrings {
		if !strings.Contains(joined, w) {
			t.Errorf("lint missing %q in:\n%s", w, joined)
		}
	}
	for _, v := range got {
		if strings.HasPrefix(v, "mdm_fine_seconds") {
			t.Errorf("clean metric flagged: %s", v)
		}
	}
}

// TestDefaultRegistryLint keeps the process-global registry clean: any
// package this test binary links that registers a nonconforming name
// fails here as well as in tools/metricslint.
func TestDefaultRegistryLint(t *testing.T) {
	if v := Default.Lint(); len(v) > 0 {
		t.Errorf("default registry lint violations:\n%s", strings.Join(v, "\n"))
	}
}
