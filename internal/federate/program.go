package federate

import (
	"fmt"
	"slices"
	"sort"

	"mdm/internal/relalg"
)

// This file splits executing a plan into the work done once per plan and
// the work done once per run. Prepare derives everything that is a
// function of the plan alone — what to ask of each source, every column
// index, which joins share a build side — into a program; bind turns a
// program and one run's snapshots into the iterator tree of iter.go.
//
// A plan is a DAG: the rewriter hands every CQ of a union the same node
// for the same wrapper leaf, and a program follows it. A node reached
// twice is prepared once, and the joins that build on the same prepared
// node under the same key columns share one build slot: in a run, the
// first of them to pull drains the build side into a table, and the
// others probe that table. Row order is unchanged — each join still emits
// left-row order with matches in build order, and the build order of one
// sub-plan over one set of snapshots is one order.

// Program is a prepared plan. It is read-only once Prepare returns, so
// any number of runs bind it at once.
type Program struct {
	cols  []string       // the plan's output schema
	srcs  []*sourceFetch // what the scatter fetches, sorted by source name
	slots []slot         // the distinct build sides of the plan's joins
	root  node
}

// sourceFetch is one fetch of the scatter: the wrapper, the columns asked of
// it (nil: its whole signature) and the cache key of that snapshot. i is
// its place in Program.srcs and in a run's snapshots.
type sourceFetch struct {
	src  relalg.RowSource
	cols []string
	key  snapKey
	i    int
}

// slot is one distinct build side: the prepared node a join drains into
// its hash table and the columns the table is keyed on.
type slot struct {
	build node
	rIdx  []int
}

// node is one prepared operator; bind allocates its iterators for a run.
type node interface {
	bind(r *run) (iter, error)
}

// run is what one execution of a program owns: the scatter's snapshots,
// in Program.srcs order, and one hash table per slot.
type run struct {
	prog   *Program
	snaps  []*relalg.Relation
	tables []table
}

// bind builds the iterator tree of one run over snaps, the snapshots of
// p.srcs in order.
func (p *Program) bind(snaps []*relalg.Relation) (iter, error) {
	r := &run{prog: p, snaps: snaps, tables: make([]table, len(p.slots))}
	return p.root.bind(r)
}

// Prepare derives the program of plan. A program is a pure function of
// its plan, and plans are immutable (rewrite.Result), so the caller keeps
// it for as long as it keeps the plan: the rewriter's memo holds each
// walk's program beside its plan, and the engine keeps nothing.
func Prepare(plan relalg.Plan) (*Program, error) {
	want := demand{srcs: map[string]relalg.RowSource{}}
	want.collect(plan)
	names := make([]string, 0, len(want.srcs))
	for n := range want.srcs {
		names = append(names, n)
	}
	sort.Strings(names) // deterministic fan-out order

	p := &Program{cols: plan.Columns(), srcs: make([]*sourceFetch, len(names))}
	pr := preparer{
		prog:   p,
		byName: make(map[string]*sourceFetch, len(names)),
		nodes:  map[relalg.Plan]node{},
		ints:   make([][]int, 0, 8),
	}
	for i, name := range names {
		cols := want.cols[name]
		s := &sourceFetch{src: want.srcs[name], cols: cols, key: keyOf(name, cols), i: i}
		p.srcs[i], pr.byName[name] = s, s
	}
	root, err := pr.node(plan)
	if err != nil {
		return nil, err
	}
	p.root = root
	return p, nil
}

// demand is what one plan asks of its sources: the Scan leaves
// deduplicated by source name (wrapper names are globally unique in the
// registry, and the rewriter reuses one wrapper across CQ branches of a
// union), and for each source read only through Project(Scan) — the leaf
// shape relalg.Optimize leaves — the columns those projections keep. A
// source with no cols entry is fetched whole. cols is made on first use:
// a plan of bare scans pays nothing for it.
type demand struct {
	srcs map[string]relalg.RowSource
	cols map[string][]string
}

func (d *demand) collect(p relalg.Plan) {
	switch n := p.(type) {
	case *relalg.Scan:
		// A scan nothing projects is read whole, whatever else reads it.
		d.srcs[n.Src.Name()] = n.Src
		delete(d.cols, n.Src.Name())
		return
	case *relalg.Project:
		if s, ok := n.Child.(*relalg.Scan); ok && len(n.Cols) > 0 {
			d.project(s.Src, n.Cols)
			return
		}
	}
	for _, c := range p.Children() {
		d.collect(c)
	}
}

// project notes one Project(Scan) leaf. A source read under one column
// list is asked for that list as written, so the projection binds to
// nothing; one read under several gets their union in source column
// order, or the whole signature when the union is that.
func (d *demand) project(src relalg.RowSource, cols []string) {
	name := src.Name()
	if _, seen := d.srcs[name]; !seen {
		d.srcs[name] = src
		if d.cols == nil {
			d.cols = map[string][]string{}
		}
		d.cols[name] = cols
		return
	}
	have, narrowed := d.cols[name]
	if !narrowed || slices.Equal(have, cols) {
		return
	}
	all := src.Columns()
	union := make([]string, 0, len(all))
	for _, c := range all {
		if slices.Contains(have, c) || slices.Contains(cols, c) {
			union = append(union, c)
		}
	}
	if len(union) == len(all) {
		delete(d.cols, name)
	} else {
		d.cols[name] = union
	}
}

// preparer is the state of one prepare: the sources by name, the node
// already prepared for each plan node, the slot of each distinct build
// side, and the index lists by content (see share).
type preparer struct {
	prog   *Program
	byName map[string]*sourceFetch
	nodes  map[relalg.Plan]node
	slots  map[slotKey]int
	ints   [][]int
}

// slotKey names a build side: the prepared node and its key columns, by
// their place among the prepare's index lists.
type slotKey struct {
	build node
	rIdx  int
}

// node returns the prepared node of p, preparing it on first sight.
func (pr *preparer) node(p relalg.Plan) (node, error) {
	if n, ok := pr.nodes[p]; ok {
		return n, nil
	}
	n, err := pr.prepare(p)
	if err != nil {
		return nil, err
	}
	pr.nodes[p] = n
	return n, nil
}

func (pr *preparer) prepare(p relalg.Plan) (node, error) {
	switch n := p.(type) {
	case *relalg.Scan:
		return &scanNode{src: pr.byName[n.Src.Name()]}, nil

	case *relalg.Project:
		if s, ok := n.Child.(*relalg.Scan); ok {
			return pr.projectScan(n.Cols, pr.byName[s.Src.Name()]), nil
		}
		child, err := pr.node(n.Child)
		if err != nil {
			return nil, err
		}
		idx, err := resolve(n.Cols, n.Child.Columns())
		if err != nil {
			return nil, err
		}
		if idx == nil {
			return child, nil
		}
		return &projectNode{child: child, idx: pr.share(idx)}, nil

	case *relalg.Rename:
		// Rename changes column names, not rows: prepare through.
		return pr.node(n.Child)

	case *relalg.Join:
		return pr.join(n)

	case *relalg.Union:
		if len(n.Plans) == 0 {
			return emptyNode{}, nil
		}
		cols := n.Plans[0].Columns()
		subs := make([]node, len(n.Plans))
		for i, sub := range n.Plans {
			if sc := sub.Columns(); !slices.Equal(sc, cols) {
				return nil, fmt.Errorf("federate: union schema mismatch: %v vs %v", cols, sc)
			}
			c, err := pr.node(sub)
			if err != nil {
				return nil, err
			}
			subs[i] = c
		}
		return &unionNode{subs: subs}, nil

	case *relalg.Distinct:
		child, err := pr.node(n.Child)
		if err != nil {
			return nil, err
		}
		return &distinctNode{child: child}, nil
	}
	panic(fmt.Sprintf("federate: prepare: no case for %T", p)) // relalg.Plan is sealed: nil, or a node this switch was not taught
}

// projectScan prepares a projection over a scan for both layouts the
// fetch may return (fetchSource): the columns asked, when any were, and
// the declared signature. A layout that lacks a column is an error only
// in the run whose snapshot has it.
func (pr *preparer) projectScan(cols []string, s *sourceFetch) node {
	n := &projectScanNode{src: s}
	n.decl, n.declErr = resolve(cols, s.src.Columns())
	if s.cols != nil {
		n.asked, n.askedErr = resolve(cols, s.cols)
	}
	n.decl, n.asked = pr.share(n.decl), pr.share(n.asked)
	return n
}

// join resolves the join's column indexes, mirroring the oracle join's
// schema arithmetic exactly (join-duplicate and name-collision columns of
// the right side are skipped), and files its build side under a slot.
func (pr *preparer) join(n *relalg.Join) (node, error) {
	left, err := pr.node(n.L)
	if err != nil {
		return nil, err
	}
	right, err := pr.node(n.R)
	if err != nil {
		return nil, err
	}
	lcols, rcols := n.L.Columns(), n.R.Columns()
	lIdx := make([]int, len(n.On))
	rIdx := make([]int, len(n.On))
	for i, p := range n.On {
		lIdx[i] = slices.Index(lcols, p[0])
		rIdx[i] = slices.Index(rcols, p[1])
		if lIdx[i] < 0 {
			return nil, fmt.Errorf("federate: join column %q missing on left (have %v)", p[0], lcols)
		}
		if rIdx[i] < 0 {
			return nil, fmt.Errorf("federate: join column %q missing on right (have %v)", p[1], rcols)
		}
	}
	var rEmit []int
	for i, c := range rcols {
		if !slices.Contains(rIdx, i) && !slices.Contains(lcols, c) {
			rEmit = append(rEmit, i)
		}
	}
	return &joinNode{
		left: left, slot: pr.slot(right, rIdx),
		lIdx: pr.share(lIdx), rEmit: pr.share(rEmit), width: len(lcols) + len(rEmit),
	}, nil
}

// list files idx among the distinct index lists of this prepare and
// returns its place there: an equal list filed before, or idx itself.
func (pr *preparer) list(idx []int) int {
	for i, have := range pr.ints {
		if slices.Equal(have, idx) {
			return i
		}
	}
	pr.ints = append(pr.ints, idx)
	return len(pr.ints) - 1
}

// share returns the list equal to idx that this prepare holds. The CQs of
// a union resolve the same lists over and over, and a program is kept as
// long as its walk is remembered, so it holds each once, as the
// rewriter's assembly does for the plan's own lists.
func (pr *preparer) share(idx []int) []int {
	if idx == nil {
		return nil
	}
	return pr.ints[pr.list(idx)]
}

// slot returns the slot of build side (build, rIdx), filing a new one on
// first sight.
func (pr *preparer) slot(build node, rIdx []int) int {
	k := slotKey{build: build, rIdx: pr.list(rIdx)}
	if i, ok := pr.slots[k]; ok {
		return i
	}
	if pr.slots == nil {
		pr.slots = map[slotKey]int{}
	}
	pr.slots[k] = len(pr.prog.slots)
	pr.prog.slots = append(pr.prog.slots, slot{build: build, rIdx: pr.ints[k.rIdx]})
	return pr.slots[k]
}

// resolve maps each of want to its position in have, or returns nil when
// want is have, so that projecting is nothing to do.
func resolve(want, have []string) ([]int, error) {
	if slices.Equal(want, have) {
		return nil, nil
	}
	idx := make([]int, len(want))
	for i, c := range want {
		j := slices.Index(have, c)
		if j < 0 {
			return nil, fmt.Errorf("federate: unknown column %q (have %v)", c, have)
		}
		idx[i] = j
	}
	return idx, nil
}

// --- prepared operators ---

type emptyNode struct{}

func (emptyNode) bind(*run) (iter, error) { return emptyIter{}, nil }

type scanNode struct{ src *sourceFetch }

func (n *scanNode) bind(r *run) (iter, error) {
	return &scanIter{rows: r.snaps[n.src.i].Rows}, nil
}

// projectScanNode is a projection over a scan, resolved against the
// snapshot each run fetched: asked when the source returned the columns
// asked of it, decl when it returned its signature. A nil index is the
// identity: the fetch already projected. asked fails only where decl
// does, but its error names the columns the snapshot came back with.
type projectScanNode struct {
	src               *sourceFetch
	asked, decl       []int
	askedErr, declErr error
}

func (n *projectScanNode) bind(r *run) (iter, error) {
	rel := r.snaps[n.src.i]
	idx, err := n.decl, n.declErr
	if n.src.cols != nil && slices.Equal(rel.Cols, n.src.cols) {
		idx, err = n.asked, n.askedErr
	}
	if err != nil {
		return nil, err
	}
	scan := &scanIter{rows: rel.Rows}
	if idx == nil {
		return scan, nil
	}
	return &projectIter{src: scan, idx: idx, out: make(relalg.Row, len(idx))}, nil
}

type projectNode struct {
	child node
	idx   []int
}

func (n *projectNode) bind(r *run) (iter, error) {
	child, err := n.child.bind(r)
	if err != nil {
		return nil, err
	}
	return &projectIter{src: child, idx: n.idx, out: make(relalg.Row, len(n.idx))}, nil
}

type unionNode struct{ subs []node }

func (n *unionNode) bind(r *run) (iter, error) {
	subs := make([]iter, len(n.subs))
	for i, sub := range n.subs {
		it, err := sub.bind(r)
		if err != nil {
			return nil, err
		}
		subs[i] = it
	}
	return &unionIter{subs: subs}, nil
}

type distinctNode struct{ child node }

func (n *distinctNode) bind(r *run) (iter, error) {
	child, err := n.child.bind(r)
	if err != nil {
		return nil, err
	}
	return &distinctIter{src: child, seen: map[string]struct{}{}}, nil
}

// joinNode is a join over the build side of Program.slots[slot].
type joinNode struct {
	left        node
	slot        int
	lIdx, rEmit []int
	width       int // output columns
}

// bind binds the left input, and the build side on the first join of the
// run over its slot: the table's drain happens on the first pull.
func (n *joinNode) bind(r *run) (iter, error) {
	left, err := n.left.bind(r)
	if err != nil {
		return nil, err
	}
	t := &r.tables[n.slot]
	if t.src == nil {
		s := &r.prog.slots[n.slot]
		if t.src, err = s.build.bind(r); err != nil {
			return nil, err
		}
		t.rIdx = s.rIdx
	}
	return &joinIter{
		left: left, tab: t,
		lIdx: n.lIdx, rEmit: n.rEmit,
		out:   make(relalg.Row, 0, n.width),
		chain: -1,
	}, nil
}
