package relalg

import (
	"context"
	"fmt"
	"strings"
)

// RowSource produces tuples; wrappers implement it. A RowSource is the
// leaf of every plan (the paper's "wrapper" in the mediator/wrapper
// architecture).
type RowSource interface {
	// Name identifies the source (wrapper name) in plan printouts.
	Name() string
	// Columns is the source's output schema (the wrapper signature
	// attributes).
	Columns() []string
	// Fetch materializes the source's rows: every column of Columns, or
	// exactly the columns ColumnsFrom(ctx) asks for, in that order. The
	// returned relation's Cols says which; a source is free to ignore the
	// request.
	Fetch(ctx context.Context) (*Relation, error)
}

type columnsKey struct{}

// WithColumns returns a context that asks the RowSource fetched under it
// for cols only. The request rides the context because fetches pass
// through decorators (tracing, fault injection) that embed a source and
// override Fetch(ctx) alone: an optional method would vanish behind them.
func WithColumns(ctx context.Context, cols []string) context.Context {
	return context.WithValue(ctx, columnsKey{}, cols)
}

// ColumnsFrom returns the columns the fetch context asks for; nil means
// the source's whole signature.
func ColumnsFrom(ctx context.Context) []string {
	cols, _ := ctx.Value(columnsKey{}).([]string)
	return cols
}

// Plan is a relational algebra operator tree.
type Plan interface {
	// Columns is the output schema of the operator.
	Columns() []string
	// Execute materializes the operator's result. It is the reference
	// executor for the oracle harnesses: federate's streaming pipeline
	// is what serves (and what the benchmarks time), and its tests hold
	// it equal to this one; nothing outside _test.go files calls it.
	Execute(ctx context.Context) (*Relation, error)
	// Algebra renders the subtree as a compact algebra expression using
	// π, σ, ⋈, ∪, ρ, δ — the notation MDM shows analysts (Figure 8).
	Algebra() string
	// Children returns the operator's inputs.
	Children() []Plan
}

// --- Scan ---

// Scan reads all rows from a RowSource.
type Scan struct {
	Src RowSource
}

// NewScan returns a Scan over src.
func NewScan(src RowSource) *Scan { return &Scan{Src: src} }

// Columns implements Plan.
func (s *Scan) Columns() []string { return s.Src.Columns() }

// Children implements Plan.
func (s *Scan) Children() []Plan { return nil }

// Algebra implements Plan.
func (s *Scan) Algebra() string { return s.Src.Name() }

// algebra renders p in the π, σ, ⋈, ∪, ρ, δ notation into one buffer: a
// nested expression costs one growing allocation, not a string per
// operator per level — the REST layer renders every CQ of a walk answer
// on every response.
func algebra(p Plan) string {
	var sb strings.Builder
	writeAlgebra(&sb, p)
	return sb.String()
}

func writeAlgebra(sb *strings.Builder, p Plan) {
	switch n := p.(type) {
	case *Scan:
		sb.WriteString(n.Src.Name())
	case *Project:
		sb.WriteString("π[")
		for i, c := range n.Cols {
			if i > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(c)
		}
		sb.WriteString("](")
		writeAlgebra(sb, n.Child)
		sb.WriteByte(')')
	case *Select:
		fmt.Fprintf(sb, "σ[%s](", n.Pred)
		writeAlgebra(sb, n.Child)
		sb.WriteByte(')')
	case *Rename:
		sb.WriteString("ρ[")
		writePairs(sb, n.Mapping, "→")
		sb.WriteString("](")
		writeAlgebra(sb, n.Child)
		sb.WriteByte(')')
	case *Join:
		sb.WriteByte('(')
		writeAlgebra(sb, n.L)
		sb.WriteString(" ⋈[")
		writePairs(sb, n.On, "=")
		sb.WriteString("] ")
		writeAlgebra(sb, n.R)
		sb.WriteByte(')')
	case *Union:
		sb.WriteByte('(')
		for i, sub := range n.Plans {
			if i > 0 {
				sb.WriteString(" ∪ ")
			}
			writeAlgebra(sb, sub)
		}
		sb.WriteByte(')')
	case *Distinct:
		sb.WriteString("δ(")
		writeAlgebra(sb, n.Child)
		sb.WriteByte(')')
	case *Limit:
		fmt.Fprintf(sb, "limit[%d](", n.N)
		writeAlgebra(sb, n.Child)
		sb.WriteByte(')')
	default:
		sb.WriteString(p.Algebra()) // an operator defined outside this package
	}
}

// writePairs renders column pairs as a<sep>b, comma-separated.
func writePairs(sb *strings.Builder, pairs [][2]string, sep string) {
	for i, p := range pairs {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(p[0])
		sb.WriteString(sep)
		sb.WriteString(p[1])
	}
}

// Execute implements Plan.
func (s *Scan) Execute(ctx context.Context) (*Relation, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	rel, err := s.Src.Fetch(ctx)
	if err != nil {
		return nil, fmt.Errorf("relalg: scan %s: %w", s.Src.Name(), err)
	}
	// Guard the engine against sources that misreport their schema.
	if len(rel.Cols) != len(s.Src.Columns()) {
		return nil, fmt.Errorf("relalg: scan %s: source returned %d columns, declared %d",
			s.Src.Name(), len(rel.Cols), len(s.Src.Columns()))
	}
	return rel, nil
}

// --- Project ---

// Project keeps only the named columns, in order.
type Project struct {
	Child Plan
	Cols  []string
}

// NewProject returns a projection of child onto cols.
func NewProject(child Plan, cols ...string) *Project {
	return &Project{Child: child, Cols: append([]string(nil), cols...)}
}

// Columns implements Plan.
func (p *Project) Columns() []string { return p.Cols }

// Children implements Plan.
func (p *Project) Children() []Plan { return []Plan{p.Child} }

// Algebra implements Plan.
func (p *Project) Algebra() string { return algebra(p) }

// Execute implements Plan.
func (p *Project) Execute(ctx context.Context) (*Relation, error) {
	in, err := p.Child.Execute(ctx)
	if err != nil {
		return nil, err
	}
	return in.Project(p.Cols...)
}

// --- Select ---

// Select filters rows by a predicate.
type Select struct {
	Child Plan
	Pred  Pred
}

// NewSelect returns a selection of child by pred.
func NewSelect(child Plan, pred Pred) *Select { return &Select{Child: child, Pred: pred} }

// Columns implements Plan.
func (s *Select) Columns() []string { return s.Child.Columns() }

// Children implements Plan.
func (s *Select) Children() []Plan { return []Plan{s.Child} }

// Algebra implements Plan.
func (s *Select) Algebra() string { return algebra(s) }

// Execute implements Plan.
func (s *Select) Execute(ctx context.Context) (*Relation, error) {
	in, err := s.Child.Execute(ctx)
	if err != nil {
		return nil, err
	}
	out := NewRelation(in.Cols...)
	for i, row := range in.Rows {
		if i&1023 == 1023 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		if s.Pred.Eval(in.Cols, row) {
			out.Rows = append(out.Rows, row)
		}
	}
	return out, nil
}

// --- Rename ---

// Rename maps column names; columns not mentioned keep their name. MDM
// uses it to rename wrapper attributes to global-graph feature names
// (resolving the owl:sameAs part of a LAV mapping).
type Rename struct {
	Child   Plan
	Mapping [][2]string // {old, new} pairs
}

// NewRename returns a renaming of child.
func NewRename(child Plan, mapping [][2]string) *Rename {
	return &Rename{Child: child, Mapping: mapping}
}

// Columns implements Plan.
func (r *Rename) Columns() []string {
	cols := append([]string(nil), r.Child.Columns()...)
	for i, c := range cols {
		for _, m := range r.Mapping {
			if c == m[0] {
				cols[i] = m[1]
				break
			}
		}
	}
	return cols
}

// Children implements Plan.
func (r *Rename) Children() []Plan { return []Plan{r.Child} }

// Algebra implements Plan.
func (r *Rename) Algebra() string { return algebra(r) }

// Execute implements Plan.
func (r *Rename) Execute(ctx context.Context) (*Relation, error) {
	in, err := r.Child.Execute(ctx)
	if err != nil {
		return nil, err
	}
	return &Relation{Cols: r.Columns(), Rows: in.Rows}, nil
}

// --- Join ---

// Join is an equi-join on column pairs. The output schema is the left
// schema followed by the right schema minus the right join columns
// (which are redundant after the join).
type Join struct {
	L, R Plan
	On   [][2]string // {leftCol, rightCol}
}

// NewJoin returns an equi-join of l and r on the given column pairs.
func NewJoin(l, r Plan, on [][2]string) *Join { return &Join{L: l, R: r, On: on} }

// NewNaturalJoin joins on all same-named columns. It panics if there are
// none (a cross product is almost certainly a rewriting bug).
func NewNaturalJoin(l, r Plan) *Join {
	var on [][2]string
	rcols := map[string]bool{}
	for _, c := range r.Columns() {
		rcols[c] = true
	}
	for _, c := range l.Columns() {
		if rcols[c] {
			on = append(on, [2]string{c, c})
		}
	}
	if len(on) == 0 {
		panic("relalg: natural join with no shared columns")
	}
	return NewJoin(l, r, on)
}

// Columns implements Plan.
func (j *Join) Columns() []string {
	skip := map[string]bool{}
	for _, p := range j.On {
		skip[p[1]] = true
	}
	out := append([]string(nil), j.L.Columns()...)
	have := map[string]bool{}
	for _, c := range out {
		have[c] = true
	}
	for _, c := range j.R.Columns() {
		if skip[c] || have[c] {
			continue
		}
		have[c] = true
		out = append(out, c)
	}
	return out
}

// Children implements Plan.
func (j *Join) Children() []Plan { return []Plan{j.L, j.R} }

// Algebra implements Plan.
func (j *Join) Algebra() string { return algebra(j) }

// Execute implements Plan: hash join, building on the smaller input.
func (j *Join) Execute(ctx context.Context) (*Relation, error) {
	lrel, err := j.L.Execute(ctx)
	if err != nil {
		return nil, err
	}
	rrel, err := j.R.Execute(ctx)
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

	out := &Relation{Cols: j.Columns()}

	key := func(row Row, idx []int) string {
		var sb strings.Builder
		for _, i := range idx {
			if row[i].IsNull() {
				return "" // NULL never joins
			}
			sb.WriteString(row[i].Key())
			sb.WriteByte('\x01')
		}
		return sb.String()
	}

	// Build on the right side.
	build := map[string][]Row{}
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
	// (not input count): a canceled query (dropped REST client, timeout)
	// stops instead of materializing, even on skewed joins.
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
			nr := make(Row, 0, len(out.Cols))
			nr = append(nr, lrow...)
			for _, i := range rEmit {
				nr = append(nr, rrow[i])
			}
			out.Rows = append(out.Rows, nr)
		}
	}
	return out, nil
}

// --- Union ---

// Union concatenates plans with identical schemas. MDM's rewriting emits
// one conjunctive query per wrapper combination and unions them — this
// is where multiple schema versions of a source meet (paper §3,
// "Governance of evolution").
type Union struct {
	Plans []Plan
}

// NewUnion returns the union of the given plans.
func NewUnion(plans ...Plan) *Union { return &Union{Plans: plans} }

// Columns implements Plan.
func (u *Union) Columns() []string {
	if len(u.Plans) == 0 {
		return nil
	}
	return u.Plans[0].Columns()
}

// Children implements Plan.
func (u *Union) Children() []Plan { return u.Plans }

// Algebra implements Plan.
func (u *Union) Algebra() string { return algebra(u) }

// Execute implements Plan.
func (u *Union) Execute(ctx context.Context) (*Relation, error) {
	if len(u.Plans) == 0 {
		return NewRelation(), nil
	}
	first, err := u.Plans[0].Execute(ctx)
	if err != nil {
		return nil, err
	}
	out := &Relation{Cols: first.Cols, Rows: first.Rows}
	for _, p := range u.Plans[1:] {
		rel, err := p.Execute(ctx)
		if err != nil {
			return nil, err
		}
		if len(rel.Cols) != len(out.Cols) {
			return nil, fmt.Errorf("relalg: union schema mismatch: %v vs %v", out.Cols, rel.Cols)
		}
		for i := range rel.Cols {
			if rel.Cols[i] != out.Cols[i] {
				return nil, fmt.Errorf("relalg: union schema mismatch: %v vs %v", out.Cols, rel.Cols)
			}
		}
		out.Rows = append(out.Rows, rel.Rows...)
	}
	return out, nil
}

// --- Distinct ---

// Distinct removes duplicate rows.
type Distinct struct{ Child Plan }

// NewDistinct returns a duplicate-eliminating wrapper of child.
func NewDistinct(child Plan) *Distinct { return &Distinct{Child: child} }

// Columns implements Plan.
func (d *Distinct) Columns() []string { return d.Child.Columns() }

// Children implements Plan.
func (d *Distinct) Children() []Plan { return []Plan{d.Child} }

// Algebra implements Plan.
func (d *Distinct) Algebra() string { return algebra(d) }

// Execute implements Plan.
func (d *Distinct) Execute(ctx context.Context) (*Relation, error) {
	in, err := d.Child.Execute(ctx)
	if err != nil {
		return nil, err
	}
	return in.Distinct(), nil
}

// --- Limit ---

// Limit truncates the result to N rows.
type Limit struct {
	Child Plan
	N     int
}

// NewLimit returns a truncating wrapper of child.
func NewLimit(child Plan, n int) *Limit { return &Limit{Child: child, N: n} }

// Columns implements Plan.
func (l *Limit) Columns() []string { return l.Child.Columns() }

// Children implements Plan.
func (l *Limit) Children() []Plan { return []Plan{l.Child} }

// Algebra implements Plan.
func (l *Limit) Algebra() string { return algebra(l) }

// Execute implements Plan.
func (l *Limit) Execute(ctx context.Context) (*Relation, error) {
	in, err := l.Child.Execute(ctx)
	if err != nil {
		return nil, err
	}
	// Never mutate the child's relation: sources may return shared state.
	out := &Relation{Cols: in.Cols, Rows: in.Rows}
	if l.N < len(out.Rows) {
		out.Rows = out.Rows[:l.N:l.N]
	}
	return out, nil
}

// PrintTree renders the plan as an indented operator tree.
func PrintTree(p Plan) string {
	var sb strings.Builder
	printTree(&sb, p, 0)
	return sb.String()
}

func printTree(sb *strings.Builder, p Plan, depth int) {
	indent := strings.Repeat("  ", depth)
	switch n := p.(type) {
	case *Scan:
		fmt.Fprintf(sb, "%sScan(%s)[%s]\n", indent, n.Src.Name(), strings.Join(n.Columns(), ","))
	case *Project:
		fmt.Fprintf(sb, "%sProject[%s]\n", indent, strings.Join(n.Cols, ","))
	case *Select:
		fmt.Fprintf(sb, "%sSelect[%s]\n", indent, n.Pred)
	case *Rename:
		fmt.Fprintf(sb, "%sRename%v\n", indent, n.Mapping)
	case *Join:
		fmt.Fprintf(sb, "%sJoin%v\n", indent, n.On)
	case *Union:
		fmt.Fprintf(sb, "%sUnion(%d branches)\n", indent, len(n.Plans))
	case *Distinct:
		fmt.Fprintf(sb, "%sDistinct\n", indent)
	case *Limit:
		fmt.Fprintf(sb, "%sLimit[%d]\n", indent, n.N)
	default:
		fmt.Fprintf(sb, "%s%T\n", indent, p)
	}
	for _, c := range p.Children() {
		printTree(sb, c, depth+1)
	}
}

// MemSource is an in-memory RowSource, useful for tests and examples.
type MemSource struct {
	SrcName string
	Rel     *Relation
}

// NewMemSource wraps a relation as a RowSource.
func NewMemSource(name string, rel *Relation) *MemSource {
	return &MemSource{SrcName: name, Rel: rel}
}

// Name implements RowSource.
func (m *MemSource) Name() string { return m.SrcName }

// Columns implements RowSource.
func (m *MemSource) Columns() []string { return m.Rel.Cols }

// Fetch implements RowSource.
func (m *MemSource) Fetch(context.Context) (*Relation, error) { return m.Rel, nil }
