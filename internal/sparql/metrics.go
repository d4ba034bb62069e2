package sparql

import (
	"fmt"
	"strings"
	"time"

	"mdm/internal/obs"
	"mdm/internal/rdf"
)

// Engine metrics, registered on the process-global registry at init.
// Instrumentation sites pre-resolve their label combinations here so
// the per-query cost is an atomic add, never a map lookup. Each stage
// is observed by the code that runs it: parse by ParseTrace, plan by
// EvalCursorTrace, execute by the Cursor (first Next to finish).
var (
	obsStageDur = obs.Default.NewHistogramVec("mdm_sparql_stage_duration_seconds",
		"SPARQL lifecycle stage durations (parse, plan, execute).", obs.DefBuckets, "stage")
	obsStageParse   = obsStageDur.With("parse")
	obsStagePlan    = obsStageDur.With("plan")
	obsStageExecute = obsStageDur.With("execute")

	obsJoinStrategy = obs.Default.NewCounterVec("mdm_sparql_join_strategy_total",
		"Join algorithm chosen per planned triple pattern (counted at plan compile).", "strategy")
	obsJoinNested = obsJoinStrategy.With("nested_loop")
	obsJoinHash   = obsJoinStrategy.With("hash")

	obsRowsEmitted = obs.Default.NewCounter("mdm_sparql_rows_emitted_total",
		"Solutions emitted by SPARQL cursors.")

	obsPathExpansions = obs.Default.NewCounter("mdm_sparql_path_expansions_total",
		"Property-path closure node expansions.")

	obsCanonicalSorts = obs.Default.NewCounterVec("mdm_sparql_canonical_sorts_total",
		"No-ORDER-BY canonical and top-k barriers: ranked when they compared no terms, fallback when they compared terms the dictionary's term order did not cover.", "path")
	obsCanonicalRanked   = obsCanonicalSorts.With("ranked")
	obsCanonicalFallback = obsCanonicalSorts.With("fallback")
)

// traceIter wraps one operator when EXPLAIN detail is on, charging
// wall time and row counts to the operator's span. Timing is inclusive
// (EXPLAIN ANALYZE semantics): an operator's time includes pulling
// from its input, so subtracting the input span isolates self time.
// The wrapper exists only on traced evaluations — the untraced path
// never sees it.
type traceIter struct {
	src rowIter
	sp  *obs.Span
}

func (t *traceIter) next() []rdf.TermID {
	t0 := time.Now()
	r := t.src.next()
	t.sp.Dur += time.Since(t0)
	t.sp.Calls++
	if r != nil {
		t.sp.RowsOut++
	}
	return r
}

// traced wraps it with a span keyed by key (a plan-node pointer, so
// the per-row re-instantiation of OPTIONAL/UNION/GRAPH bodies
// aggregates into one span; tail operators pass themselves). src is
// the operator's row source, linked so the report can derive rows_in.
// A nil or detail-less trace returns it unchanged.
func (e *evaluator) traced(it rowIter, key any, name, strategy string, src rowIter) rowIter {
	tr := e.trace
	if tr == nil || !tr.Detail {
		return it
	}
	sp := tr.Operator(key, name, strategy)
	if ts, ok := src.(*traceIter); ok {
		sp.SetInput(ts.sp)
	}
	return &traceIter{src: it, sp: sp}
}

// summary renders the counted plan shape as the one-line string
// carried into EXPLAIN reports and slow-query log lines; it is built
// only for a traced evaluation.
func (c planCounts) summary() string {
	var parts []string
	add := func(n int, label string) {
		if n > 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", label, n))
		}
	}
	add(c.nested, "nested")
	add(c.hash, "hash")
	add(c.paths, "path")
	add(c.optionals, "optional")
	add(c.unions, "union")
	add(c.graphs, "graph")
	add(c.filters, "filter")
	add(c.dead, "dead")
	if len(parts) == 0 {
		return "empty"
	}
	return strings.Join(parts, " ")
}

type planCounts struct {
	nested, hash, paths       int
	optionals, unions, graphs int
	filters, dead             int
}

func (c *planCounts) group(gp *groupPlan) {
	c.filters += len(gp.filters)
	for _, p := range gp.patterns {
		switch pl := p.(type) {
		case *triplePlan:
			switch {
			case pl.dead:
				c.dead++
			case pl.hash:
				c.hash++
			default:
				c.nested++
			}
		case *pathPlan:
			c.paths++
		case *optionalPlan:
			c.optionals++
			c.group(pl.sub)
		case *unionPlan:
			c.unions++
			for _, b := range pl.branches {
				c.group(b)
			}
		case *graphPlan:
			c.graphs++
			for _, en := range pl.entries {
				c.group(en.sub)
			}
		case *inlineGroupPlan:
			c.group(pl.sub)
		case *deadPlan:
			c.dead++
		}
	}
}

// countJoinStrategies bumps the per-strategy counters for a compiled
// plan: the metric tracks planner decisions, one per triple pattern per
// evaluation.
func countJoinStrategies(c planCounts) {
	if c.nested+c.paths > 0 {
		obsJoinNested.Add(float64(c.nested + c.paths))
	}
	if c.hash > 0 {
		obsJoinHash.Add(float64(c.hash))
	}
}
