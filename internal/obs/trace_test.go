package obs

import (
	"context"
	"encoding/json"
	"sync"
	"testing"
	"time"
)

func TestTraceContextRoundTrip(t *testing.T) {
	if got := FromContext(context.Background()); got != nil {
		t.Fatalf("empty context yielded a trace: %v", got)
	}
	tr := NewTrace()
	ctx := WithTrace(context.Background(), tr)
	if got := FromContext(ctx); got != tr {
		t.Fatalf("FromContext = %v, want %v", got, tr)
	}
}

func TestNilTraceIsInert(t *testing.T) {
	var tr *Trace
	tr.StageDur("parse", time.Millisecond)
	tr.SetPlan("x")
	tr.SetAttr("k", "v")
	tr.AddSource(SourceSpan{Source: "s"})
	if sp := tr.Operator("k", "scan", ""); sp != nil {
		t.Errorf("nil trace returned a span")
	}
	sp := (*Span)(nil)
	sp.SetInput(nil)
	if r := tr.Report(); r != nil {
		t.Errorf("nil trace produced a report")
	}
	if tr.Stages() != nil || tr.Plan() != "" {
		t.Errorf("nil trace leaked state")
	}
}

func TestOperatorMemoization(t *testing.T) {
	tr := NewTrace()
	type node struct{ id int }
	k := &node{1}
	a := tr.Operator(k, "hash-join", "hash")
	b := tr.Operator(k, "hash-join", "hash")
	if a != b {
		t.Fatalf("same key produced distinct spans")
	}
	other := tr.Operator(&node{2}, "scan", "")
	if other == a {
		t.Fatalf("distinct keys shared a span")
	}
	a.Calls = 7
	a.RowsOut = 40
	other.RowsOut = 11
	a.SetInput(other)
	rep := tr.Report()
	if len(rep.Operators) != 2 {
		t.Fatalf("operators = %d, want 2", len(rep.Operators))
	}
	if rep.Operators[0].Op != "hash-join" || rep.Operators[0].RowsIn != 11 || rep.Operators[0].RowsOut != 40 {
		t.Errorf("operator report wrong: %+v", rep.Operators[0])
	}
}

func TestReportShape(t *testing.T) {
	tr := NewTrace()
	tr.StageDur("parse", 2*time.Millisecond)
	tr.StageDur("plan", time.Millisecond)
	tr.SetPlan("hash-join(t1,t2)")
	tr.SetAttr("rewrite_cache", "miss")
	tr.AddSource(SourceSpan{Source: "players", Rows: 10, Cols: 2, Declared: 7, Dur: 3 * time.Millisecond, Outcome: "ok"})
	raw, err := json.Marshal(tr.Report())
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"duration_ms", "plan", "attrs", "stages", "sources"} {
		if _, ok := m[k]; !ok {
			t.Errorf("report JSON missing %q: %s", k, raw)
		}
	}
	stages := m["stages"].([]any)
	if len(stages) != 2 {
		t.Fatalf("stages = %d, want 2", len(stages))
	}
	if name := stages[0].(map[string]any)["name"]; name != "parse" {
		t.Errorf("first stage = %v, want parse", name)
	}
	if got := tr.Stages()["parse"]; got != 2 {
		t.Errorf("Stages()[parse] = %v, want 2", got)
	}
	if got := m["sources"].([]any)[0].(map[string]any)["columns"]; got != "2/7" {
		t.Errorf("source columns = %v, want 2/7 (fetched/declared)", got)
	}
}

// TestTraceConcurrentSources mirrors the federation scatter: source
// spans recorded from many goroutines while stages tick on the driver.
func TestTraceConcurrentSources(t *testing.T) {
	tr := NewTrace()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tr.AddSource(SourceSpan{Source: "s", Rows: i, Outcome: "ok"})
		}(i)
	}
	tr.StageDur("scatter", time.Millisecond)
	wg.Wait()
	if got := len(tr.Report().Sources); got != 16 {
		t.Errorf("sources = %d, want 16", got)
	}
}

func TestQueryHash(t *testing.T) {
	a, b := QueryHash("SELECT * WHERE { ?s ?p ?o }"), QueryHash("SELECT * WHERE { ?s ?p ?o }")
	if a != b {
		t.Errorf("hash not stable: %s vs %s", a, b)
	}
	if len(a) != 16 {
		t.Errorf("hash length = %d, want 16", len(a))
	}
	if a == QueryHash("ASK { ?s ?p ?o }") {
		t.Errorf("distinct queries collided")
	}
}
