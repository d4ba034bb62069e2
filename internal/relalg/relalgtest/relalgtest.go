// Package relalgtest is the reference executor for relalg plans: a
// materializing tree walk that the oracle harnesses hold the streaming
// federate engine (what serves, and what the benchmarks time) equal to,
// rows and row order. Only _test.go files import it — CI fails if a
// shipped package links it — so it favours being obviously right over
// being fast, and keys rows its own way (Key, text) rather than the
// engine's (relalg.Value.AppendKey, bits).
package relalgtest

import (
	"context"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"mdm/internal/relalg"
)

// Execute materializes the plan's result.
func Execute(ctx context.Context, p relalg.Plan) (*relalg.Relation, error) {
	switch n := p.(type) {
	case *relalg.Scan:
		return scan(ctx, n.Src)
	case *relalg.Project:
		in, err := Execute(ctx, n.Child)
		if err != nil {
			return nil, err
		}
		return project(in, n.Cols)
	case *relalg.Rename:
		in, err := Execute(ctx, n.Child)
		if err != nil {
			return nil, err
		}
		return &relalg.Relation{Cols: n.Columns(), Rows: in.Rows}, nil
	case *relalg.Join:
		return join(ctx, n)
	case *relalg.Union:
		return union(ctx, n.Plans)
	case *relalg.Distinct:
		in, err := Execute(ctx, n.Child)
		if err != nil {
			return nil, err
		}
		return distinct(in), nil
	}
	panic(fmt.Sprintf("relalgtest: Execute: no case for %T", p)) // relalg.Plan is sealed: nil, or a node this switch was not taught
}

func scan(ctx context.Context, src relalg.RowSource) (*relalg.Relation, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	rel, err := src.Fetch(ctx)
	if err != nil {
		return nil, fmt.Errorf("relalg: scan %s: %w", src.Name(), err)
	}
	// Guard the engine against sources that misreport their schema.
	if len(rel.Cols) != len(src.Columns()) {
		return nil, fmt.Errorf("relalg: scan %s: source returned %d columns, declared %d",
			src.Name(), len(rel.Cols), len(src.Columns()))
	}
	return rel, nil
}

// project returns a new relation with only the named columns, in order.
func project(r *relalg.Relation, cols []string) (*relalg.Relation, error) {
	idx := make([]int, len(cols))
	for i, c := range cols {
		j := r.ColIndex(c)
		if j < 0 {
			return nil, fmt.Errorf("relalg: unknown column %q (have %v)", c, r.Cols)
		}
		idx[i] = j
	}
	out := relalg.NewRelation(cols...)
	for _, row := range r.Rows {
		nr := make(relalg.Row, len(idx))
		for i, j := range idx {
			nr[i] = row[j]
		}
		out.Rows = append(out.Rows, nr)
	}
	return out, nil
}

// join is a hash join building on the right input; emission order is the
// left input's, each left row followed by its matches in right order.
func join(ctx context.Context, j *relalg.Join) (*relalg.Relation, error) {
	lrel, err := Execute(ctx, j.L)
	if err != nil {
		return nil, err
	}
	rrel, err := Execute(ctx, j.R)
	if err != nil {
		return nil, err
	}
	lIdx := make([]int, len(j.On))
	rIdx := make([]int, len(j.On))
	for i, p := range j.On {
		lIdx[i] = lrel.ColIndex(p[0])
		rIdx[i] = rrel.ColIndex(p[1])
		if lIdx[i] < 0 {
			return nil, fmt.Errorf("relalg: join column %q missing on left (have %v)", p[0], lrel.Cols)
		}
		if rIdx[i] < 0 {
			return nil, fmt.Errorf("relalg: join column %q missing on right (have %v)", p[1], rrel.Cols)
		}
	}

	// Right columns to emit (skip join duplicates and name collisions).
	skip := map[int]bool{}
	for _, ri := range rIdx {
		skip[ri] = true
	}
	lhave := map[string]bool{}
	for _, c := range lrel.Cols {
		lhave[c] = true
	}
	var rEmit []int
	for i, c := range rrel.Cols {
		if !skip[i] && !lhave[c] {
			rEmit = append(rEmit, i)
		}
	}

	out := &relalg.Relation{Cols: j.Columns()}

	key := func(row relalg.Row, idx []int) string {
		var sb strings.Builder
		for _, i := range idx {
			if row[i].IsNull() {
				return "" // NULL never joins
			}
			sb.WriteString(Key(row[i]))
			sb.WriteByte('\x01')
		}
		return sb.String()
	}

	build := map[string][]relalg.Row{}
	for i, rrow := range rrel.Rows {
		if i&1023 == 1023 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		k := key(rrow, rIdx)
		if k == "" {
			continue
		}
		build[k] = append(build[k], rrow)
	}
	// The probe loop can multiply rows, so poll ctx on emitted-row count
	// (not input count): a canceled run stops instead of materializing,
	// even on skewed joins.
	emitted := 0
	for _, lrow := range lrel.Rows {
		k := key(lrow, lIdx)
		if k == "" {
			continue
		}
		for _, rrow := range build[k] {
			if emitted&1023 == 1023 {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
			emitted++
			nr := make(relalg.Row, 0, len(out.Cols))
			nr = append(nr, lrow...)
			for _, i := range rEmit {
				nr = append(nr, rrow[i])
			}
			out.Rows = append(out.Rows, nr)
		}
	}
	return out, nil
}

func union(ctx context.Context, plans []relalg.Plan) (*relalg.Relation, error) {
	if len(plans) == 0 {
		return relalg.NewRelation(), nil
	}
	first, err := Execute(ctx, plans[0])
	if err != nil {
		return nil, err
	}
	out := &relalg.Relation{Cols: first.Cols, Rows: first.Rows}
	for _, p := range plans[1:] {
		rel, err := Execute(ctx, p)
		if err != nil {
			return nil, err
		}
		if !slices.Equal(rel.Cols, out.Cols) {
			return nil, fmt.Errorf("relalg: union schema mismatch: %v vs %v", out.Cols, rel.Cols)
		}
		out.Rows = append(out.Rows, rel.Rows...)
	}
	return out, nil
}

// distinct returns a new relation with duplicate rows removed, keeping
// first occurrences.
func distinct(r *relalg.Relation) *relalg.Relation {
	out := relalg.NewRelation(r.Cols...)
	seen := map[string]bool{}
	for _, row := range r.Rows {
		k := rowKey(row)
		if !seen[k] {
			seen[k] = true
			out.Rows = append(out.Rows, row)
		}
	}
	return out
}

func rowKey(row relalg.Row) string {
	var sb strings.Builder
	for _, v := range row {
		sb.WriteString(Key(v))
		sb.WriteByte('\x01')
	}
	return sb.String()
}

// Key returns a canonical string usable as a hash key. Two non-NULL
// values share a key exactly when relalg.Equal holds — numeric values of
// equal magnitude do, whether int or float, and so do 0 and -0 — except
// that every NaN shares one key although NaN equals nothing.
func Key(v relalg.Value) string {
	switch v.T {
	case relalg.TypeNull:
		return "\x00N"
	case relalg.TypeBool:
		return "\x00B" + strconv.FormatBool(v.B)
	case relalg.TypeInt, relalg.TypeFloat:
		f, _ := v.AsFloat()
		if f == 0 {
			f = 0 // -0 formats as "-0"
		}
		return "\x00F" + strconv.FormatFloat(f, 'g', -1, 64)
	default:
		return "\x00S" + v.S
	}
}

// MemSource is an in-memory RowSource that ignores the columns a fetch
// asks for and returns its whole relation.
type MemSource struct {
	SrcName string
	Rel     *relalg.Relation
}

// NewMemSource wraps a relation as a RowSource.
func NewMemSource(name string, rel *relalg.Relation) *MemSource {
	return &MemSource{SrcName: name, Rel: rel}
}

// Name implements relalg.RowSource.
func (m *MemSource) Name() string { return m.SrcName }

// Columns implements relalg.RowSource.
func (m *MemSource) Columns() []string { return m.Rel.Cols }

// Fetch implements relalg.RowSource.
func (m *MemSource) Fetch(context.Context) (*relalg.Relation, error) { return m.Rel, nil }
