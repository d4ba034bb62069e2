package federate

import (
	"context"

	"mdm/internal/relalg"
)

// This file holds the pull-based row iterators a program binds over the
// scatter phase's source snapshots (program.go). The bound pipeline
// produces exactly the rows — in exactly the order — that
// relalgtest.Execute materializes (the equivalence harness pins this),
// but one row at a time: Project/Rename/Union/Distinct stream, and Join
// is a probe-side hash join that materializes only its build side (the
// right child), reusing the intrusive-chain layout of the SPARQL engine's
// hashJoinIter at the relalg level.
//
// Row ownership: a row returned by next is valid until the next call to
// next and must not be mutated — it is either shared with a source
// snapshot or the one buffer its operator (Project, Join) overwrites per
// row. Two places keep rows. Cursor.Materialize copies them into a
// rowSlab, and so does a join build side over any operator but a
// snapshot scan; a build side that is a snapshot scan keeps the
// snapshot's own rows, since a snapshot is immutable and outlives the
// run that fetched it.

// pollEvery is how many rows a scanning or amplifying loop processes
// between context checks.
const pollEvery = 1024

// iter is one streaming operator. next returns the next row, or
// (nil, nil) when exhausted; an error aborts the drain.
type iter interface {
	next(ctx context.Context) (relalg.Row, error)
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

// table is one build side's intrusive-chain hash table, shared by every
// join of a run that builds on the same slot (program.go): the first pull
// of any of them builds it — rows in build order, head mapping a join key
// to the first row holding it, link naming the next row that shares a key
// (the SPARQL engine's hashJoinIter layout, lifted from TermID triplets to
// relalg rows). Chains are linked in build order, keeping emission order
// identical to the materializing executor's. A build side that is a
// snapshot scan lends the snapshot's rows, which are immutable and outlive
// the run; any other is drained into a slab. Every key is written into
// one arena that becomes one string, and head's keys are substrings of
// it, so a build allocates per table, not per row or per distinct key.
// An error that stops the build is every later pull's answer in the run.
type table struct {
	src  iter
	rIdx []int

	built bool
	err   error
	slab  rowSlab
	rows  []relalg.Row
	head  map[string]int32
	link  []int32
}

func (t *table) build(ctx context.Context) error {
	if t.built || t.err != nil {
		return t.err
	}
	if err := t.fill(ctx); err != nil {
		t.err = err
		return err
	}
	n := len(t.rows)
	var arena []byte
	if n > 0 {
		// Room for n keys as long as the first: exact for numeric keys.
		var first [64]byte
		k, _ := appendJoinKey(first[:0], t.rows[0], t.rIdx)
		arena = make([]byte, 0, n*len(k))
	}
	ends := make([]int, n) // ends[i] = end of row i's key in arena, -1: a NULL key
	for i, row := range t.rows {
		if i&(pollEvery-1) == pollEvery-1 {
			if err := ctx.Err(); err != nil {
				t.err = err
				return err
			}
		}
		start := len(arena)
		var ok bool
		if arena, ok = appendJoinKey(arena, row, t.rIdx); !ok {
			arena, ends[i] = arena[:start], -1 // drop the cells keyed before the NULL
			continue
		}
		ends[i] = len(arena)
	}
	keys := string(arena)
	t.head = make(map[string]int32, n)
	t.link = make([]int32, n)
	tail := make([]int32, n) // tail[a chain's first row] = its last row so far
	start := 0
	for i, end := range ends {
		t.link[i] = -1
		if end < 0 {
			continue // NULL never joins; row is unreachable
		}
		key := keys[start:end]
		start = end
		if first, dup := t.head[key]; dup {
			t.link[tail[first]] = int32(i)
			tail[first] = int32(i)
		} else {
			t.head[key] = int32(i)
			tail[i] = int32(i)
		}
	}
	t.built = true
	return nil
}

// fill sets t.rows: a snapshot scan nothing has pulled yet lends its
// rows, and any other build side is drained into the slab.
func (t *table) fill(ctx context.Context) error {
	if scan, ok := t.src.(*scanIter); ok && scan.pos == 0 {
		t.rows, scan.pos = scan.rows, len(scan.rows)
		return nil
	}
	for {
		row, err := t.src.next(ctx)
		if row == nil || err != nil {
			return err
		}
		t.rows = append(t.rows, t.slab.clone(row))
	}
}

// joinIter is a streaming probe-side hash join over a table. Probing
// streams: one left row at a time, its bucket chain walked match by match
// into the one output row, so the join's (potentially multiplied) output
// is never materialized. The table's rows, head and link are copied in
// once it is built, so a probe reads them as its own fields.
type joinIter struct {
	left        iter
	tab         *table
	lIdx, rEmit []int

	built bool
	rows  []relalg.Row
	head  map[string]int32
	link  []int32

	cur     relalg.Row // borrowed left row being extended
	chain   int32      // next build row in cur's bucket, -1 = drained
	emitted int        // for amortized ctx polling on skewed joins
	key     []byte
	out     relalg.Row
}

func (it *joinIter) next(ctx context.Context) (relalg.Row, error) {
	if !it.built {
		if err := it.tab.build(ctx); err != nil {
			return nil, err
		}
		it.rows, it.head, it.link, it.built = it.tab.rows, it.tab.head, it.tab.link, true
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
