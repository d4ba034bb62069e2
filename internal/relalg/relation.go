package relalg

import (
	"fmt"
	"sort"
	"strings"
)

// Row is one tuple.
type Row []Value

// Clone copies the row.
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// Relation is a materialized table: an ordered column list and rows.
type Relation struct {
	Cols []string
	Rows []Row
}

// NewRelation creates an empty relation with the given columns.
func NewRelation(cols ...string) *Relation {
	return &Relation{Cols: append([]string(nil), cols...)}
}

// ColIndex returns the index of a column, or -1.
func (r *Relation) ColIndex(name string) int {
	for i, c := range r.Cols {
		if c == name {
			return i
		}
	}
	return -1
}

// Append adds a row after checking arity.
func (r *Relation) Append(row Row) error {
	if len(row) != len(r.Cols) {
		return fmt.Errorf("relalg: row arity %d != schema arity %d", len(row), len(r.Cols))
	}
	r.Rows = append(r.Rows, row)
	return nil
}

// MustAppend adds a row and panics on arity mismatch.
func (r *Relation) MustAppend(row Row) {
	if err := r.Append(row); err != nil {
		panic(err)
	}
}

// Len returns the number of rows.
func (r *Relation) Len() int { return len(r.Rows) }

// Sort orders rows by all columns left to right (deterministic output
// for tests and demos).
func (r *Relation) Sort() {
	sort.SliceStable(r.Rows, func(i, j int) bool {
		for c := range r.Cols {
			if cmp := Compare(r.Rows[i][c], r.Rows[j][c]); cmp != 0 {
				return cmp < 0
			}
		}
		return false
	})
}

// Equal reports whether two relations have the same schema and the same
// multiset of rows (order-insensitive).
func (r *Relation) Equal(other *Relation) bool {
	if len(r.Cols) != len(other.Cols) || len(r.Rows) != len(other.Rows) {
		return false
	}
	for i := range r.Cols {
		if r.Cols[i] != other.Cols[i] {
			return false
		}
	}
	count := map[string]int{}
	var key []byte
	tally := func(rows []Row, d int) {
		for _, row := range rows {
			key = key[:0]
			for _, v := range row {
				key = v.AppendKey(key)
			}
			count[string(key)] += d
		}
	}
	tally(r.Rows, 1)
	tally(other.Rows, -1)
	for _, c := range count {
		if c != 0 {
			return false
		}
	}
	return true
}

// Table renders the relation as an aligned text table.
func (r *Relation) Table() string {
	widths := make([]int, len(r.Cols))
	for i, c := range r.Cols {
		widths[i] = len(c)
	}
	texts := make([][]string, len(r.Rows))
	for ri, row := range r.Rows {
		texts[ri] = make([]string, len(row))
		for i, v := range row {
			texts[ri][i] = v.Text()
			if len(texts[ri][i]) > widths[i] {
				widths[i] = len(texts[ri][i])
			}
		}
	}
	var sb strings.Builder
	for i, c := range r.Cols {
		fmt.Fprintf(&sb, "%-*s  ", widths[i], c)
	}
	sb.WriteString("\n")
	for i := range r.Cols {
		sb.WriteString(strings.Repeat("-", widths[i]) + "  ")
	}
	sb.WriteString("\n")
	for _, row := range texts {
		for i, cell := range row {
			fmt.Fprintf(&sb, "%-*s  ", widths[i], cell)
		}
		sb.WriteString("\n")
	}
	return sb.String()
}
