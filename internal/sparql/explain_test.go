package sparql

import (
	"context"
	"testing"

	"mdm/internal/obs"
)

// Coverage for the EXPLAIN trace path: per-operator spans with rows and
// timings, plan-summary annotations, and the zero-wrapping guarantee
// when no trace rides the evaluation.

func drainTraced(t *testing.T, q *Query, tr *obs.Trace) int64 {
	t.Helper()
	ds, _ := joinFixture()
	cur, err := EvalCursorTrace(ds, q, tr)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	for cur.Next(context.Background()) {
	}
	if err := cur.Err(); err != nil {
		t.Fatal(err)
	}
	return cur.Rows()
}

// TestExplainSequentialOperators: the nested/hash operator chain shows
// up span-per-operator with rows_in linked from each span's source, and
// the plan stage is timed.
func TestExplainSequentialOperators(t *testing.T) {
	_, q := joinFixture()
	tr := obs.NewTrace()
	tr.Detail = true
	rows := drainTraced(t, q, tr)
	rep := tr.Report()
	if len(rep.Operators) < 2 {
		t.Fatalf("expected an operator chain, got %+v", rep.Operators)
	}
	last := rep.Operators[len(rep.Operators)-1]
	if last.RowsOut != rows {
		t.Errorf("outermost operator rows_out = %d, want %d", last.RowsOut, rows)
	}
	linked := false
	for _, op := range rep.Operators {
		if op.RowsIn > 0 {
			linked = true
		}
	}
	if !linked {
		t.Errorf("no operator recorded rows_in; spans not linked: %+v", rep.Operators)
	}
	hasPlanStage := false
	for _, s := range rep.Stages {
		if s.Name == "plan" {
			hasPlanStage = true
		}
	}
	if !hasPlanStage {
		t.Errorf("no plan stage in %+v", rep.Stages)
	}
}

// TestExplainOptionalAggregatesSpans: an OPTIONAL body instantiated per
// input row must aggregate into one span keyed by plan node, not one
// span per row.
func TestExplainOptionalAggregatesSpans(t *testing.T) {
	ds, _ := joinFixture()
	q := MustParse(`
PREFIX ex: <http://ex.org/>
SELECT ?a ?w WHERE { ?a ex:p0 ?b . OPTIONAL { ?a ex:p2 ?w } }`)
	tr := obs.NewTrace()
	tr.Detail = true
	cur, err := EvalCursorTrace(ds, q, tr)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	n := 0
	for cur.Next(context.Background()) {
		n++
	}
	if n == 0 {
		t.Fatal("no rows")
	}
	rep := tr.Report()
	optionals := 0
	for _, op := range rep.Operators {
		if op.Op == "optional" {
			optionals++
		}
	}
	if optionals != 1 {
		t.Errorf("optional spans = %d, want 1 (per-row instantiations must memoize)", optionals)
	}
	if len(rep.Operators) > 16 {
		t.Errorf("operator list exploded: %d spans", len(rep.Operators))
	}
}

// TestUntracedPathUnwrapped: without a trace (or without Detail) the
// pipeline must contain no traceIter wrappers.
func TestUntracedPathUnwrapped(t *testing.T) {
	ds, q := joinFixture()
	for _, tr := range []*obs.Trace{nil, obs.NewTrace()} {
		cur, err := EvalCursorTrace(ds, q, tr)
		if err != nil {
			t.Fatal(err)
		}
		if _, wrapped := cur.it.(*traceIter); wrapped {
			t.Errorf("trace=%v: pipeline tail is a traceIter", tr != nil)
		}
		cur.Close()
	}
}

// TestPlanSummaryShape sanity-checks the plan summary string a traced
// evaluation records.
func TestPlanSummaryShape(t *testing.T) {
	ds, q := joinFixture()
	tr := obs.NewTrace()
	if _, err := EvalCursorTrace(ds, q, tr); err != nil {
		t.Fatal(err)
	}
	if got := tr.Plan(); got == "" || got == "empty" {
		t.Fatalf("plan summary = %q", got)
	}
}
