package federate

import (
	"context"
	"time"

	"mdm/internal/obs"
	"mdm/internal/relalg"
)

// Cursor is a pull-based handle over an executing federated plan,
// mirroring sparql.Cursor:
//
//	cur, err := eng.Run(ctx, plan)
//	...
//	defer cur.Close()
//	for cur.Next(ctx) {
//	    row := cur.Row()
//	    ...
//	}
//	if err := cur.Err(); err != nil { ... }
//
// Next checks ctx once per row, so canceling the context (a dropped
// client connection, a timeout) aborts the drain promptly; Err then
// returns ctx's error. A cursor holds no locks or goroutines between
// Next calls — abandoning one without Close is safe. Rows reflect the
// source snapshots taken by the scatter phase, so a full drain is
// point-in-time consistent per source; separate Runs may observe
// different source states.
//
// The cursor owns the walk's drain stage: first Next to finish
// (exhaustion, error, cancellation or Close) is recorded on the trace
// the query's context carried into RunWith.
//
// Cursors are not safe for concurrent use.
type Cursor struct {
	cols    []string
	it      iter
	row     relalg.Row
	err     error
	done    bool
	rows    int64
	tr      *obs.Trace
	t0      time.Time     // first Next; zero until then
	missing []SourceError // partial mode: sources that contributed no rows
}

// Partial reports whether the result is incomplete: at least one source
// is missing. Always false in strict mode (the query would have failed
// instead).
func (c *Cursor) Partial() bool { return len(c.missing) > 0 }

// Missing lists the sources that contributed no rows, with each
// failure's class, sorted by source name. The slice is shared — do not
// mutate.
func (c *Cursor) Missing() []SourceError { return c.missing }

// Next advances to the next row, reporting whether one is available. It
// returns false when the result is exhausted, the cursor is closed, or
// ctx is canceled — distinguish the last case with Err.
func (c *Cursor) Next(ctx context.Context) bool {
	if c.done || c.err != nil {
		return false
	}
	if c.t0.IsZero() {
		c.t0 = time.Now()
	}
	err := ctx.Err()
	var row relalg.Row
	if err == nil {
		row, err = c.it.next(ctx)
	}
	if err != nil || row == nil {
		c.err = err
		c.Close()
		return false
	}
	c.row = row
	c.rows++
	return true
}

// Rows returns the number of rows produced so far.
func (c *Cursor) Rows() int64 { return c.rows }

// Row returns the current row. It is valid until the next call to Next
// or Close — the operators overwrite their row buffers — and must not be
// mutated (it may alias a shared source snapshot).
func (c *Cursor) Row() relalg.Row { return c.row }

// Columns returns the output schema in order. The slice is shared by
// every run of the plan — do not mutate.
func (c *Cursor) Columns() []string { return c.cols }

// Err returns the first error encountered while iterating (typically
// the context's error after a cancellation), or nil after a clean
// drain.
func (c *Cursor) Err() error { return c.err }

// Close stops iteration early. It is idempotent and optional — a cursor
// holds no locks or goroutines — but calling it documents intent and
// makes Next return false immediately.
func (c *Cursor) Close() {
	if !c.done && !c.t0.IsZero() {
		c.tr.StageDur("drain", time.Since(c.t0))
	}
	c.done, c.row = true, nil
}

// Materialize drains the remaining rows into a Relation. It is how
// callers that want the old materializing contract — mdm.System.Query,
// tests, examples — sit on top of the streaming engine. The rows are
// copies: they alias neither the operators' row buffers nor the source
// snapshots.
func (c *Cursor) Materialize(ctx context.Context) (*relalg.Relation, error) {
	out := relalg.NewRelation(c.cols...)
	var slab rowSlab
	for c.Next(ctx) {
		out.Rows = append(out.Rows, slab.clone(c.row))
	}
	if err := c.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
