package relalg

import (
	"context"
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

// Plan is a relational algebra operator tree. It is a closed sum: the
// six node types below — what the rewriters emit for a union of
// conjunctive queries under set semantics — are its only implementations,
// so Algebra, Optimize, federate's compiler and the reference executor
// (relalgtest.Execute) each switch over exactly these.
type Plan interface {
	// Columns is the output schema of the operator.
	Columns() []string
	// Children returns the operator's inputs.
	Children() []Plan
	// sealed keeps the sum closed: no type outside this package can
	// implement Plan.
	sealed()
}

func (*Scan) sealed()     {}
func (*Project) sealed()  {}
func (*Rename) sealed()   {}
func (*Join) sealed()     {}
func (*Union) sealed()    {}
func (*Distinct) sealed() {}

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

// Algebra renders p as a compact algebra expression in π, ρ, ⋈, ∪, δ —
// the notation MDM shows analysts (Figure 8) — into one buffer: a nested
// expression costs one growing allocation, not a string per operator per
// level — the REST layer renders every CQ of a walk answer on every
// response.
func Algebra(p Plan) string {
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

// --- Distinct ---

// Distinct removes duplicate rows.
type Distinct struct{ Child Plan }

// NewDistinct returns a duplicate-eliminating wrapper of child.
func NewDistinct(child Plan) *Distinct { return &Distinct{Child: child} }

// Columns implements Plan.
func (d *Distinct) Columns() []string { return d.Child.Columns() }

// Children implements Plan.
func (d *Distinct) Children() []Plan { return []Plan{d.Child} }
