package federate

import (
	"context"
	"fmt"
	"slices"

	"mdm/internal/relalg"
)

// This file compiles a relalg.Plan into a tree of pull-based row
// iterators over the scatter phase's source snapshots. The compiled
// pipeline produces exactly the rows — in exactly the order — that
// relalgtest.Execute materializes (the equivalence harness pins this),
// but one row at a time: Project/Rename/Union/Distinct stream, and Join
// is a probe-side hash join that materializes only its build side (the
// right child), reusing the intrusive-chain layout of the SPARQL engine's
// hashJoinIter at the relalg level.
//
// Row ownership: a row returned by next is valid until the next call to
// next and must not be mutated — it is either shared with a source
// snapshot or the one buffer its operator (Project, Join) overwrites per
// row. The two places that keep rows, the join build side and
// Cursor.Materialize, copy them into a rowSlab.

// pollEvery is how many rows a scanning or amplifying loop processes
// between context checks.
const pollEvery = 1024

// iter is one streaming operator. next returns the next row, or
// (nil, nil) when exhausted; an error aborts the drain.
type iter interface {
	next(ctx context.Context) (relalg.Row, error)
}

// compile builds the operator tree for p over the fetched snapshots.
func compile(p relalg.Plan, snaps map[string]*relalg.Relation) (iter, error) {
	switch n := p.(type) {
	case *relalg.Scan:
		rel, ok := snaps[n.Src.Name()]
		if !ok {
			return nil, fmt.Errorf("federate: no snapshot for source %s", n.Src.Name())
		}
		return &scanIter{rows: rel.Rows}, nil

	case *relalg.Project:
		child, err := compile(n.Child, snaps)
		if err != nil {
			return nil, err
		}
		in := n.Child.Columns()
		if s, ok := n.Child.(*relalg.Scan); ok {
			// A scan streams its snapshot, which is as wide as the scatter
			// asked and the source obliged: resolve against what is there.
			in = snaps[s.Src.Name()].Cols
		}
		if slices.Equal(n.Cols, in) {
			return child, nil // the fetch already projected
		}
		idx := make([]int, len(n.Cols))
		for i, c := range n.Cols {
			j := colIndex(in, c)
			if j < 0 {
				return nil, fmt.Errorf("federate: unknown column %q (have %v)", c, in)
			}
			idx[i] = j
		}
		return &projectIter{src: child, idx: idx, out: make(relalg.Row, len(idx))}, nil

	case *relalg.Rename:
		// Rename changes column names, not rows: compile through.
		return compile(n.Child, snaps)

	case *relalg.Join:
		return compileJoin(n, snaps)

	case *relalg.Union:
		if len(n.Plans) == 0 {
			return emptyIter{}, nil
		}
		cols := n.Plans[0].Columns()
		subs := make([]iter, len(n.Plans))
		for i, sub := range n.Plans {
			sc := sub.Columns()
			if len(sc) != len(cols) {
				return nil, fmt.Errorf("federate: union schema mismatch: %v vs %v", cols, sc)
			}
			for j := range sc {
				if sc[j] != cols[j] {
					return nil, fmt.Errorf("federate: union schema mismatch: %v vs %v", cols, sc)
				}
			}
			it, err := compile(sub, snaps)
			if err != nil {
				return nil, err
			}
			subs[i] = it
		}
		return &unionIter{subs: subs}, nil

	case *relalg.Distinct:
		child, err := compile(n.Child, snaps)
		if err != nil {
			return nil, err
		}
		return &distinctIter{src: child, seen: map[string]struct{}{}}, nil
	}
	panic(fmt.Sprintf("federate: compile: no case for %T", p)) // relalg.Plan is sealed: nil, or a node this switch was not taught
}

func colIndex(cols []string, name string) int {
	for i, c := range cols {
		if c == name {
			return i
		}
	}
	return -1
}

// appendJoinKey appends the join-column key of a row to dst, the binary
// analogue of the oracle's relalgtest.Key concatenation (same coercions:
// numeric values of equal magnitude collide). ok is false
// when a NULL participates: the row never joins (SQL semantics).
func appendJoinKey(dst []byte, row relalg.Row, idx []int) (key []byte, ok bool) {
	for _, i := range idx {
		if row[i].IsNull() {
			return dst, false
		}
		dst = row[i].AppendKey(dst)
	}
	return dst, true
}

// rowSlab copies rows an operator must keep into chunks that double from
// a few rows to slabMaxRows, so retaining n rows costs O(log n) + n/max
// allocations instead of n.
type rowSlab struct {
	buf  []relalg.Value
	rows int // capacity of the current chunk, in rows
}

const slabMaxRows = 1024

func (s *rowSlab) clone(row relalg.Row) relalg.Row {
	if len(row) > cap(s.buf)-len(s.buf) {
		s.rows = min(max(2*s.rows, 4), slabMaxRows)
		s.buf = make([]relalg.Value, 0, s.rows*len(row))
	}
	n := len(s.buf)
	s.buf = append(s.buf, row...)
	return s.buf[n:len(s.buf):len(s.buf)]
}

// --- leaves and simple operators ---

type emptyIter struct{}

func (emptyIter) next(context.Context) (relalg.Row, error) { return nil, nil }

// scanIter streams a source snapshot, polling ctx periodically so huge
// snapshots stay cancelable.
type scanIter struct {
	rows []relalg.Row
	pos  int
}

func (it *scanIter) next(ctx context.Context) (relalg.Row, error) {
	if it.pos&(pollEvery-1) == pollEvery-1 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	if it.pos >= len(it.rows) {
		return nil, nil
	}
	r := it.rows[it.pos]
	it.pos++
	return r, nil
}

// projectIter reorders/prunes columns into its one output row.
type projectIter struct {
	src iter
	idx []int
	out relalg.Row
}

func (it *projectIter) next(ctx context.Context) (relalg.Row, error) {
	row, err := it.src.next(ctx)
	if row == nil || err != nil {
		return nil, err
	}
	for i, j := range it.idx {
		it.out[i] = row[j]
	}
	return it.out, nil
}

// unionIter concatenates its children in order.
type unionIter struct {
	subs []iter
	cur  int
}

func (it *unionIter) next(ctx context.Context) (relalg.Row, error) {
	for it.cur < len(it.subs) {
		row, err := it.subs[it.cur].next(ctx)
		if row != nil || err != nil {
			return row, err
		}
		it.cur++
	}
	return nil, nil
}

// distinctIter keeps each row's first occurrence. A row's key is its
// cells' AppendKeys in order (NULL is a token of its own, as in the
// oracle's distinct); only first occurrences allocate one.
type distinctIter struct {
	src  iter
	seen map[string]struct{}
	key  []byte
}

func (it *distinctIter) next(ctx context.Context) (relalg.Row, error) {
	for {
		row, err := it.src.next(ctx)
		if row == nil || err != nil {
			return nil, err
		}
		it.key = it.key[:0]
		for _, v := range row {
			it.key = v.AppendKey(it.key)
		}
		if _, dup := it.seen[string(it.key)]; dup {
			continue
		}
		it.seen[string(it.key)] = struct{}{}
		return row, nil
	}
}

// pageIter applies OFFSET/LIMIT: skip rows, then emit at most limit
// (limit < 0 = unlimited). A satisfied limit stops pulling, which is
// what lets upstream joins stop work early.
type pageIter struct {
	src   iter
	skip  int
	limit int
}

func (it *pageIter) next(ctx context.Context) (relalg.Row, error) {
	for it.skip > 0 {
		row, err := it.src.next(ctx)
		if row == nil || err != nil {
			it.skip = 0
			return nil, err
		}
		it.skip--
	}
	if it.limit == 0 {
		return nil, nil
	}
	row, err := it.src.next(ctx)
	if row == nil || err != nil {
		return nil, err
	}
	if it.limit > 0 {
		it.limit--
	}
	return row, nil
}

// --- hash join ---

// compileJoin resolves the join's column indexes at compile time,
// mirroring the oracle join's schema arithmetic exactly (join-duplicate
// and name-collision columns of the right side are skipped).
func compileJoin(n *relalg.Join, snaps map[string]*relalg.Relation) (iter, error) {
	left, err := compile(n.L, snaps)
	if err != nil {
		return nil, err
	}
	right, err := compile(n.R, snaps)
	if err != nil {
		return nil, err
	}
	lcols, rcols := n.L.Columns(), n.R.Columns()
	lIdx := make([]int, len(n.On))
	rIdx := make([]int, len(n.On))
	for i, p := range n.On {
		lIdx[i] = colIndex(lcols, p[0])
		rIdx[i] = colIndex(rcols, p[1])
		if lIdx[i] < 0 {
			return nil, fmt.Errorf("federate: join column %q missing on left (have %v)", p[0], lcols)
		}
		if rIdx[i] < 0 {
			return nil, fmt.Errorf("federate: join column %q missing on right (have %v)", p[1], rcols)
		}
	}
	skip := map[int]bool{}
	for _, ri := range rIdx {
		skip[ri] = true
	}
	lhave := map[string]bool{}
	for _, c := range lcols {
		lhave[c] = true
	}
	var rEmit []int
	for i, c := range rcols {
		if !skip[i] && !lhave[c] {
			rEmit = append(rEmit, i)
		}
	}
	return &joinIter{
		left: left, right: right,
		lIdx: lIdx, rIdx: rIdx, rEmit: rEmit,
		out:   make(relalg.Row, 0, len(lcols)+len(rEmit)),
		chain: -1,
	}, nil
}

// joinIter is a streaming probe-side hash join. On first pull it drains
// its right child into an intrusive-chain hash table — rows copied into a
// slab, head mapping a join key to the first row holding it, link naming
// the next row that shares a key (the PR 4 hashJoinIter layout, lifted
// from TermID triplets to relalg rows). Chains are linked in build order,
// keeping emission order identical to the materializing executor's, and
// keys are bytes in one reused buffer looked up as head[string(key)], so
// only the distinct build-side keys are ever allocated. Probing then
// streams: one left row at a time, its bucket chain walked match by
// match into the one output row, so the join's (potentially multiplied)
// output is never materialized.
type joinIter struct {
	left, right iter
	lIdx, rIdx  []int
	rEmit       []int

	built bool
	slab  rowSlab
	rows  []relalg.Row
	head  map[string]int32
	link  []int32

	cur     relalg.Row // borrowed left row being extended
	chain   int32      // next build row in cur's bucket, -1 = drained
	emitted int        // for amortized ctx polling on skewed joins
	key     []byte
	out     relalg.Row
}

func (it *joinIter) build(ctx context.Context) error {
	for {
		row, err := it.right.next(ctx)
		if err != nil {
			return err
		}
		if row == nil {
			break
		}
		it.rows = append(it.rows, it.slab.clone(row))
	}
	n := len(it.rows)
	it.head = make(map[string]int32, n)
	it.link = make([]int32, n)
	tail := make([]int32, n) // tail[a chain's first row] = its last row so far
	for i, row := range it.rows {
		it.link[i] = -1
		var ok bool
		if it.key, ok = appendJoinKey(it.key[:0], row, it.rIdx); !ok {
			continue // NULL never joins; row is unreachable
		}
		if first, dup := it.head[string(it.key)]; dup {
			it.link[tail[first]] = int32(i)
			tail[first] = int32(i)
		} else {
			it.head[string(it.key)] = int32(i)
			tail[i] = int32(i)
		}
	}
	it.built = true
	return nil
}

func (it *joinIter) next(ctx context.Context) (relalg.Row, error) {
	if !it.built {
		if err := it.build(ctx); err != nil {
			return nil, err
		}
	}
	for {
		if it.chain >= 0 {
			rrow := it.rows[it.chain]
			it.chain = it.link[it.chain]
			it.emitted++
			if it.emitted&(pollEvery-1) == pollEvery-1 {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
			it.out = append(it.out[:0], it.cur...)
			for _, i := range it.rEmit {
				it.out = append(it.out, rrow[i])
			}
			return it.out, nil
		}
		lrow, err := it.left.next(ctx)
		if lrow == nil || err != nil {
			return nil, err
		}
		var ok bool
		if it.key, ok = appendJoinKey(it.key[:0], lrow, it.lIdx); !ok {
			continue
		}
		if h, ok := it.head[string(it.key)]; ok {
			it.cur, it.chain = lrow, h
		}
	}
}
