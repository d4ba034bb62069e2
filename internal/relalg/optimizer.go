package relalg

import "fmt"

// Optimize rewrites a plan for cheaper execution. The two rules are the
// classical ones that matter for MDM's generated plans:
//
//  1. projection push-down: columns not needed upstream are pruned as
//     early as possible, shrinking join widths;
//  2. projection collapsing: Project(Project(x)) becomes Project(x).
//
// Optimize never changes the result relation (schema or rows); the
// ablation bench BenchmarkOptimizerAblation quantifies its effect.
func Optimize(p Plan) Plan {
	return pushDown(p, p.Columns())
}

// pushDown rewrites p so that it outputs exactly `needed` (a subset of
// p.Columns(), in p's column order when possible).
func pushDown(p Plan, needed []string) Plan {
	switch n := p.(type) {
	case *Project:
		// Collapse chains: push the outer projection through.
		inner := pushDown(n.Child, needed)
		if sameCols(inner.Columns(), needed) {
			return inner
		}
		return NewProject(inner, needed...)

	case *Join:
		var joinCols []string
		for _, pair := range n.On {
			joinCols = append(joinCols, pair[0], pair[1])
		}
		req := union(needed, joinCols)
		lneed := intersectOrdered(n.L.Columns(), req)
		rneed := intersectOrdered(n.R.Columns(), req)
		l := pushDown(n.L, lneed)
		r := pushDown(n.R, rneed)
		out := Plan(NewJoin(l, r, n.On))
		if !sameCols(out.Columns(), needed) {
			out = NewProject(out, needed...)
		}
		return out

	case *Rename:
		// Translate needed names back through the mapping.
		back := map[string]string{}
		for _, m := range n.Mapping {
			back[m[1]] = m[0]
		}
		childNeed := make([]string, len(needed))
		var mapping [][2]string
		for i, c := range needed {
			if orig, ok := back[c]; ok {
				childNeed[i] = orig
				mapping = append(mapping, [2]string{orig, c})
			} else {
				childNeed[i] = c
			}
		}
		child := pushDown(n.Child, childNeed)
		if len(mapping) == 0 {
			return child
		}
		return NewRename(child, mapping)

	case *Union:
		plans := make([]Plan, len(n.Plans))
		for i, c := range n.Plans {
			plans[i] = pushDown(c, needed)
			// Union requires identical schemas; enforce column order.
			if !sameCols(plans[i].Columns(), needed) {
				plans[i] = NewProject(plans[i], needed...)
			}
		}
		return NewUnion(plans...)

	case *Distinct:
		// δ compares whole rows, so its input keeps every column: rows
		// that differ only in a column nobody reads above are still two
		// rows. A narrower need is met by a projection over the δ.
		out := Plan(NewDistinct(pushDown(n.Child, n.Child.Columns())))
		if !sameCols(out.Columns(), needed) {
			out = NewProject(out, needed...)
		}
		return out

	case *Scan:
		if sameCols(n.Columns(), needed) {
			return n
		}
		return NewProject(n, needed...)
	}
	panic(fmt.Sprintf("relalg: Optimize: no case for %T", p)) // Plan is sealed: nil, or a node this switch was not taught
}

func sameCols(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// union returns base plus any extras not already present, preserving
// base order.
func union(base, extras []string) []string {
	have := map[string]bool{}
	out := append([]string(nil), base...)
	for _, c := range base {
		have[c] = true
	}
	for _, c := range extras {
		if !have[c] {
			have[c] = true
			out = append(out, c)
		}
	}
	return out
}

// intersectOrdered returns the elements of cols that appear in want,
// in cols order.
func intersectOrdered(cols, want []string) []string {
	w := map[string]bool{}
	for _, c := range want {
		w[c] = true
	}
	var out []string
	for _, c := range cols {
		if w[c] {
			out = append(out, c)
		}
	}
	return out
}

// PlanWidth returns the maximum number of columns flowing through any
// operator of the plan — a proxy for intermediate-result size used by
// the optimizer ablation bench.
func PlanWidth(p Plan) int {
	w := len(p.Columns())
	for _, c := range p.Children() {
		if cw := PlanWidth(c); cw > w {
			w = cw
		}
	}
	return w
}
