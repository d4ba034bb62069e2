package federate

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"mdm/internal/obs"
	"mdm/internal/relalg"
	"mdm/internal/relalg/relalgtest"
	"mdm/internal/schema"
	"mdm/internal/wrapper"
)

// Coverage for the observability hooks: missing sources counted per
// (source, class) in the Prometheus registry (they were previously
// visible only in response bodies), scatter traces carrying per-source
// spans, and degradation counters.

// partialRun runs a whole plan in partial mode.
var partialRun = RunOpts{Limit: -1, Offset: -1, Partial: true}

func TestMissingCountedPerSourceAndClass(t *testing.T) {
	before := obsMissing.With("m-timeout-src", string(ClassTimeout)).Value()
	beforeDegraded := obsPartialDegradations.Value()

	good := relalg.NewScan(relalgtest.NewMemSource("m-good-src", rel2("a", "b", [2]int64{1, 2})))
	bad := relalg.NewScan(&failSource{name: "m-timeout-src", cols: []string{"b", "c"},
		err: context.DeadlineExceeded})
	eng := NewEngine()
	cur, err := eng.RunWith(context.Background(), relalg.NewJoin(good, bad, [][2]string{{"b", "b"}}), partialRun)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	missing := cur.Missing()
	if len(missing) != 1 || missing[0].Source != "m-timeout-src" || missing[0].Class != ClassTimeout {
		t.Fatalf("Missing() = %+v, want one timeout for m-timeout-src", missing)
	}
	if got := obsMissing.With("m-timeout-src", string(ClassTimeout)).Value(); got != before+1 {
		t.Errorf("mdm_federate_missing_total{m-timeout-src,timeout} = %v, want %v", got, before+1)
	}
	if got := obsPartialDegradations.Value(); got != beforeDegraded+1 {
		t.Errorf("partial degradations = %v, want %v", got, beforeDegraded+1)
	}
}

func TestScatterTraceSpans(t *testing.T) {
	good := relalg.NewScan(relalgtest.NewMemSource("t-ok-src", rel2("a", "b", [2]int64{1, 2}, [2]int64{3, 4})))
	bad := relalg.NewScan(&failSource{name: "t-bad-src", cols: []string{"b", "c"},
		err: errors.New("boom")})
	eng := NewEngine()
	tr := obs.NewTrace()
	ctx := obs.WithTrace(context.Background(), tr)
	cur, err := eng.RunWith(ctx, relalg.NewJoin(good, bad, [][2]string{{"b", "b"}}), partialRun)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	rep := tr.Report()
	if len(rep.Sources) != 2 {
		t.Fatalf("source spans = %d, want 2: %+v", len(rep.Sources), rep.Sources)
	}
	byName := map[string]obs.SourceReport{}
	for _, s := range rep.Sources {
		byName[s.Source] = s
	}
	if ok := byName["t-ok-src"]; ok.Outcome != "ok" || ok.Rows != 2 {
		t.Errorf("ok span = %+v", ok)
	}
	if bad := byName["t-bad-src"]; bad.Outcome != "missing:error" {
		t.Errorf("bad span outcome = %q, want missing:error", bad.Outcome)
	}
	hasScatterStage := false
	for _, s := range rep.Stages {
		if s.Name == "scatter" {
			hasScatterStage = true
		}
	}
	if !hasScatterStage {
		t.Errorf("no scatter stage recorded: %+v", rep.Stages)
	}
}

// TestSourceSpanColumns: a source span says how wide the fetch was next
// to how wide the source is — what came back for a fetch that succeeded
// (a source that ignores the request reads full width), what was asked
// for one that did not.
func TestSourceSpanColumns(t *testing.T) {
	doc := schema.Doc{"a": relalg.Int(1), "b": relalg.Int(2), "c": relalg.Int(3)}
	honours := wrapper.NewMem("t-honours", "s", []schema.Doc{doc}, nil)
	ignores := relalgtest.NewMemSource("t-ignores", relalg.NewRelation("a", "b", "c"))
	fails := &failSource{name: "t-fails", cols: []string{"a", "b"}, err: errors.New("boom")}
	var branches []relalg.Plan
	for _, src := range []relalg.RowSource{honours, ignores, fails} {
		branches = append(branches, relalg.NewProject(relalg.NewScan(src), "a"))
	}
	eng := NewEngine()
	tr := obs.NewTrace()
	cur, err := eng.RunWith(obs.WithTrace(context.Background(), tr), relalg.NewUnion(branches...), partialRun)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	got := map[string]string{}
	for _, s := range tr.Sources() {
		got[s.Source] = s.Columns
	}
	want := map[string]string{"t-honours": "1/3", "t-ignores": "3/3", "t-fails": "1/2"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("source span columns = %v, want %v", got, want)
	}
}

func TestFetchOutcomeCounters(t *testing.T) {
	beforeOK := obsFetchOK.Value()
	beforeErr := obsFetchAttempts.With(string(ClassOther)).Value()
	good := relalg.NewScan(relalgtest.NewMemSource("c-ok-src", rel2("a", "b", [2]int64{1, 2})))
	eng := NewEngine()
	if cur, err := eng.Run(context.Background(), good); err != nil {
		t.Fatal(err)
	} else {
		cur.Close()
	}
	if got := obsFetchOK.Value(); got != beforeOK+1 {
		t.Errorf("ok attempts = %v, want %v", got, beforeOK+1)
	}
	bad := relalg.NewScan(&failSource{name: "c-bad-src", cols: []string{"a"}, err: errors.New("nope")})
	if _, err := eng.Run(context.Background(), bad); err == nil {
		t.Fatal("expected strict-mode error")
	}
	if got := obsFetchAttempts.With(string(ClassOther)).Value(); got != beforeErr+1 {
		t.Errorf("error attempts = %v, want %v", got, beforeErr+1)
	}
}
