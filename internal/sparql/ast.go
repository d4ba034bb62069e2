package sparql

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"mdm/internal/rdf"
)

// QueryForm distinguishes SELECT from ASK queries.
type QueryForm int

// Supported query forms.
const (
	FormSelect QueryForm = iota
	FormAsk
)

// Query is a parsed SPARQL query.
type Query struct {
	Form      QueryForm
	Prefixes  *rdf.PrefixMap
	Distinct  bool
	Star      bool     // SELECT *
	Variables []string // projected variables (without '?') when !Star
	Where     *Group
	OrderBy   []OrderKey
	Limit     int // -1 = unset
	Offset    int

	// Aggregation. When Aggregates or GroupBy is non-empty the WHERE
	// solutions are grouped by the GroupBy variables (one implicit group
	// when GroupBy is empty) and each Aggregate binds its As alias in
	// the output row; Having filters the grouped rows. Variables then
	// holds the projection order over GroupBy variables and aliases.
	GroupBy    []string
	Aggregates []Aggregate
	Having     []Expr

	// layoutOnce/slots cache the compiled variable-slot layout; queries
	// are evaluated many times (saved walks, benchmarks), so the layout
	// is computed once and is safe to share across goroutines.
	layoutOnce sync.Once
	slots      *slotLayout
}

// layout returns the query's compiled variable-slot layout.
func (q *Query) layout() *slotLayout {
	q.layoutOnce.Do(func() { q.slots = compileLayout(q) })
	return q.slots
}

// OrderKey is one ORDER BY criterion.
type OrderKey struct {
	Var  string
	Desc bool
}

// Group is a group graph pattern: a sequence of pattern elements
// evaluated as a join, plus filters applied over the group's solutions.
type Group struct {
	Patterns []Pattern
	Filters  []Expr
}

// Pattern is a group element: a triple pattern, OPTIONAL group, UNION, or
// GRAPH block.
type Pattern interface {
	patternNode()
	// Vars appends the variables mentioned by the pattern to dst.
	Vars(dst map[string]bool)
	String() string
}

// NodeKind discriminates the three kinds of pattern nodes.
type NodeKind int

// Pattern node kinds.
const (
	NodeVar NodeKind = iota
	NodeTerm
)

// Node is a position in a triple pattern: a variable or a concrete term.
type Node struct {
	Kind NodeKind
	Var  string   // when Kind == NodeVar
	Term rdf.Term // when Kind == NodeTerm
}

// V returns a variable node.
func V(name string) Node { return Node{Kind: NodeVar, Var: name} }

// N returns a concrete-term node.
func N(t rdf.Term) Node { return Node{Kind: NodeTerm, Term: t} }

// IsVar reports whether the node is a variable.
func (n Node) IsVar() bool { return n.Kind == NodeVar }

func (n Node) String() string {
	if n.IsVar() {
		return "?" + n.Var
	}
	return n.Term.String()
}

// TriplePattern is an (s, p, o) pattern where each position may be a
// variable.
type TriplePattern struct {
	S, P, O Node
}

func (TriplePattern) patternNode() {}

// Vars implements Pattern.
func (tp TriplePattern) Vars(dst map[string]bool) {
	for _, n := range []Node{tp.S, tp.P, tp.O} {
		if n.IsVar() {
			dst[n.Var] = true
		}
	}
}

func (tp TriplePattern) String() string {
	return fmt.Sprintf("%s %s %s .", tp.S, tp.P, tp.O)
}

// PathKind discriminates property-path operators.
type PathKind int

// Property-path operators.
const (
	PathLink PathKind = iota // a single predicate IRI
	PathInv                  // ^p
	PathSeq                  // p/q
	PathAlt                  // p|q
	PathPlus                 // p+  (one or more)
	PathStar                 // p*  (zero or more)
	PathOpt                  // p?  (zero or one)
)

// Path is a SPARQL 1.1 property-path expression. PathLink carries the
// predicate in IRI; PathInv/PathPlus/PathStar/PathOpt wrap Sub;
// PathSeq/PathAlt combine L and R.
type Path struct {
	Kind PathKind
	IRI  rdf.Term // PathLink
	Sub  *Path    // PathInv, PathPlus, PathStar, PathOpt
	L, R *Path    // PathSeq, PathAlt
}

// Link returns a single-predicate path.
func Link(p rdf.Term) *Path { return &Path{Kind: PathLink, IRI: p} }

// pathPrec is the binding strength used when rendering: alternatives
// bind loosest, then sequences, then inverse, then the postfix
// modifiers; a bare link never needs parentheses.
func (p *Path) prec() int {
	switch p.Kind {
	case PathAlt:
		return 1
	case PathSeq:
		return 2
	case PathInv:
		return 3
	case PathPlus, PathStar, PathOpt:
		return 4
	default:
		return 5
	}
}

// render writes p, parenthesizing children that bind looser than the
// position requires, so String round-trips through the parser.
func (p *Path) render(sb *strings.Builder, min int) {
	if p.prec() < min {
		sb.WriteString("(")
		p.render(sb, 0)
		sb.WriteString(")")
		return
	}
	switch p.Kind {
	case PathLink:
		sb.WriteString(p.IRI.String())
	case PathInv:
		sb.WriteString("^")
		p.Sub.render(sb, 4)
	case PathSeq:
		p.L.render(sb, 2)
		sb.WriteString("/")
		p.R.render(sb, 3)
	case PathAlt:
		p.L.render(sb, 1)
		sb.WriteString("|")
		p.R.render(sb, 2)
	case PathPlus, PathStar, PathOpt:
		p.Sub.render(sb, 5)
		switch p.Kind {
		case PathPlus:
			sb.WriteString("+")
		case PathStar:
			sb.WriteString("*")
		default:
			sb.WriteString("?")
		}
	}
}

func (p *Path) String() string {
	var sb strings.Builder
	p.render(&sb, 0)
	return sb.String()
}

// PathPattern is an (s, path, o) pattern whose predicate position is a
// property-path expression rather than a plain node. A trivial
// single-link path parses to a TriplePattern instead, so a PathPattern
// always carries at least one path operator.
type PathPattern struct {
	S, O Node
	Path *Path
}

func (PathPattern) patternNode() {}

// Vars implements Pattern.
func (pp PathPattern) Vars(dst map[string]bool) {
	if pp.S.IsVar() {
		dst[pp.S.Var] = true
	}
	if pp.O.IsVar() {
		dst[pp.O.Var] = true
	}
}

func (pp PathPattern) String() string {
	return fmt.Sprintf("%s %s %s .", pp.S, pp.Path, pp.O)
}

// AggFunc enumerates the supported aggregate functions.
type AggFunc int

// Aggregate functions.
const (
	AggCount AggFunc = iota
	AggSum
	AggMin
	AggMax
)

func (f AggFunc) String() string {
	switch f {
	case AggCount:
		return "COUNT"
	case AggSum:
		return "SUM"
	case AggMin:
		return "MIN"
	case AggMax:
		return "MAX"
	default:
		return fmt.Sprintf("AggFunc(%d)", int(f))
	}
}

// Aggregate is one projected aggregate: FUNC([DISTINCT] ?Var) AS ?As.
// Var == "" means COUNT(*) (count of all group rows, bound or not);
// only COUNT accepts it.
type Aggregate struct {
	Func     AggFunc
	Distinct bool
	Var      string // argument variable, "" for COUNT(*)
	As       string // output alias
}

func (a Aggregate) String() string {
	arg := "*"
	if a.Var != "" {
		arg = "?" + a.Var
	}
	if a.Distinct {
		arg = "DISTINCT " + arg
	}
	return fmt.Sprintf("(%s(%s) AS ?%s)", a.Func, arg, a.As)
}

// aggregateFor returns the aggregate bound to alias name, if any.
func (q *Query) aggregateFor(name string) (Aggregate, bool) {
	for _, a := range q.Aggregates {
		if a.As == name {
			return a, true
		}
	}
	return Aggregate{}, false
}

// Optional wraps a group evaluated as a left join.
type Optional struct {
	Group *Group
}

func (Optional) patternNode() {}

// Vars implements Pattern.
func (o Optional) Vars(dst map[string]bool) { o.Group.collectVars(dst) }

func (o Optional) String() string { return "OPTIONAL " + o.Group.String() }

// Union is the alternation of two or more groups.
type Union struct {
	Branches []*Group
}

func (Union) patternNode() {}

// Vars implements Pattern.
func (u Union) Vars(dst map[string]bool) {
	for _, b := range u.Branches {
		b.collectVars(dst)
	}
}

func (u Union) String() string {
	parts := make([]string, len(u.Branches))
	for i, b := range u.Branches {
		parts[i] = b.String()
	}
	return strings.Join(parts, " UNION ")
}

// GraphPattern scopes a group to a named graph, identified either by a
// concrete IRI or by a variable that ranges over graph names.
type GraphPattern struct {
	Name  Node
	Group *Group
}

func (GraphPattern) patternNode() {}

// Vars implements Pattern.
func (g GraphPattern) Vars(dst map[string]bool) {
	if g.Name.IsVar() {
		dst[g.Name.Var] = true
	}
	g.Group.collectVars(dst)
}

func (g GraphPattern) String() string {
	return fmt.Sprintf("GRAPH %s %s", g.Name, g.Group)
}

func (g *Group) collectVars(dst map[string]bool) {
	for _, p := range g.Patterns {
		p.Vars(dst)
	}
	for _, f := range g.Filters {
		f.Vars(dst)
	}
}

// AllVars returns the sorted set of variables mentioned in the group.
func (g *Group) AllVars() []string {
	set := map[string]bool{}
	g.collectVars(set)
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

func (g *Group) String() string {
	var sb strings.Builder
	sb.WriteString("{ ")
	for _, p := range g.Patterns {
		sb.WriteString(p.String())
		sb.WriteString(" ")
	}
	for _, f := range g.Filters {
		fmt.Fprintf(&sb, "FILTER (%s) ", f)
	}
	sb.WriteString("}")
	return sb.String()
}

// String pretty-prints the query in canonical SPARQL concrete syntax.
func (q *Query) String() string {
	var sb strings.Builder
	if q.Prefixes != nil {
		for _, pair := range q.Prefixes.Pairs() {
			fmt.Fprintf(&sb, "PREFIX %s: %s\n", pair[0], rdf.IRI(pair[1]))
		}
	}
	switch q.Form {
	case FormAsk:
		sb.WriteString("ASK ")
	default:
		sb.WriteString("SELECT ")
		if q.Distinct {
			sb.WriteString("DISTINCT ")
		}
		if q.Star {
			sb.WriteString("* ")
		} else {
			for _, v := range q.Variables {
				if a, ok := q.aggregateFor(v); ok {
					sb.WriteString(a.String() + " ")
				} else {
					sb.WriteString("?" + v + " ")
				}
			}
		}
		sb.WriteString("WHERE ")
	}
	sb.WriteString(q.Where.String())
	if len(q.GroupBy) > 0 {
		sb.WriteString(" GROUP BY")
		for _, v := range q.GroupBy {
			sb.WriteString(" ?" + v)
		}
	}
	for _, h := range q.Having {
		fmt.Fprintf(&sb, " HAVING (%s)", h)
	}
	if len(q.OrderBy) > 0 {
		sb.WriteString(" ORDER BY")
		for _, k := range q.OrderBy {
			if k.Desc {
				fmt.Fprintf(&sb, " DESC(?%s)", k.Var)
			} else {
				fmt.Fprintf(&sb, " ?%s", k.Var)
			}
		}
	}
	if q.Limit >= 0 {
		fmt.Fprintf(&sb, " LIMIT %d", q.Limit)
	}
	if q.Offset > 0 {
		fmt.Fprintf(&sb, " OFFSET %d", q.Offset)
	}
	return sb.String()
}
