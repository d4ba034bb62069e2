package sparql

import (
	"fmt"
	"strings"
	"time"

	"mdm/internal/obs"
	"mdm/internal/rdf"
)

// Parse parses a SPARQL query string.
func Parse(src string) (*Query, error) { return ParseTrace(src, nil) }

// ParseTrace is Parse with a query trace attached. The parser owns the
// parse stage: its duration goes to the engine's stage histogram and,
// when tr is non-nil, onto the trace — failed parses included.
func ParseTrace(src string, tr *obs.Trace) (*Query, error) {
	t0 := time.Now()
	q, err := parse(src)
	d := time.Since(t0)
	obsStageParse.Observe(d.Seconds())
	tr.StageDur("parse", d)
	return q, err
}

func parse(src string) (*Query, error) {
	p := &parser{lx: newLexer(src, "sparql"), prefixes: rdf.NewPrefixMap()}
	if err := p.bump(); err != nil {
		return nil, err
	}
	return p.parseQuery()
}

type parser struct {
	lx       *lexer
	tok      token
	prefixes *rdf.PrefixMap
	// data is set by ParseTriG: terms must be ground, _:label and [] are
	// blank nodes, and triples go to graph; anon numbers the [] read so
	// far.
	data  bool
	graph *rdf.Graph
	anon  int
}

func (p *parser) bump() error {
	t, err := p.lx.next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("%s: line %d:%d: %s", p.lx.syntax, p.tok.line, p.tok.col, fmt.Sprintf(format, args...))
}

func (p *parser) expectKeyword(kw string) error {
	if p.tok.kind != tokKeyword || p.tok.text != kw {
		return p.errf("expected %s, got %q", kw, p.tok.text)
	}
	return p.bump()
}

func (p *parser) parseQuery() (*Query, error) {
	q := &Query{Prefixes: p.prefixes, Limit: -1}

	// Prologue: PREFIX declarations.
	for p.tok.kind == tokKeyword && p.tok.text == "PREFIX" {
		if err := p.bump(); err != nil {
			return nil, err
		}
		if err := p.parsePrefixDecl(); err != nil {
			return nil, err
		}
	}

	switch {
	case p.tok.kind == tokKeyword && p.tok.text == "SELECT":
		q.Form = FormSelect
		if err := p.bump(); err != nil {
			return nil, err
		}
		if p.tok.kind == tokKeyword && (p.tok.text == "DISTINCT" || p.tok.text == "REDUCED") {
			q.Distinct = true
			if err := p.bump(); err != nil {
				return nil, err
			}
		}
		if p.tok.kind == tokStar {
			q.Star = true
			if err := p.bump(); err != nil {
				return nil, err
			}
		} else {
			for {
				if p.tok.kind == tokVar {
					q.Variables = append(q.Variables, p.tok.text)
					if err := p.bump(); err != nil {
						return nil, err
					}
					continue
				}
				if p.tok.kind == tokLParen {
					agg, err := p.parseAggregate()
					if err != nil {
						return nil, err
					}
					q.Aggregates = append(q.Aggregates, agg)
					q.Variables = append(q.Variables, agg.As)
					continue
				}
				break
			}
			if len(q.Variables) == 0 {
				return nil, p.errf("SELECT needs * or at least one variable")
			}
		}
		// WHERE keyword is optional in SPARQL.
		if p.tok.kind == tokKeyword && p.tok.text == "WHERE" {
			if err := p.bump(); err != nil {
				return nil, err
			}
		}
	case p.tok.kind == tokKeyword && p.tok.text == "ASK":
		q.Form = FormAsk
		if err := p.bump(); err != nil {
			return nil, err
		}
		if p.tok.kind == tokKeyword && p.tok.text == "WHERE" {
			if err := p.bump(); err != nil {
				return nil, err
			}
		}
	default:
		return nil, p.errf("expected SELECT or ASK, got %q", p.tok.text)
	}

	g, err := p.parseGroup()
	if err != nil {
		return nil, err
	}
	q.Where = g

	// Solution modifiers.
	for p.tok.kind == tokKeyword {
		switch p.tok.text {
		case "ORDER":
			if err := p.bump(); err != nil {
				return nil, err
			}
			if err := p.expectKeyword("BY"); err != nil {
				return nil, err
			}
			for {
				key, ok, err := p.parseOrderKey()
				if err != nil {
					return nil, err
				}
				if !ok {
					break
				}
				q.OrderBy = append(q.OrderBy, key)
			}
			if len(q.OrderBy) == 0 {
				return nil, p.errf("ORDER BY needs at least one key")
			}
		case "LIMIT":
			if err := p.bump(); err != nil {
				return nil, err
			}
			n, err := p.parseNonNegInt("LIMIT")
			if err != nil {
				return nil, err
			}
			q.Limit = n
		case "OFFSET":
			if err := p.bump(); err != nil {
				return nil, err
			}
			n, err := p.parseNonNegInt("OFFSET")
			if err != nil {
				return nil, err
			}
			q.Offset = n
		case "GROUP":
			if err := p.bump(); err != nil {
				return nil, err
			}
			if err := p.expectKeyword("BY"); err != nil {
				return nil, err
			}
			start := len(q.GroupBy)
			for p.tok.kind == tokVar {
				q.GroupBy = append(q.GroupBy, p.tok.text)
				if err := p.bump(); err != nil {
					return nil, err
				}
			}
			if len(q.GroupBy) == start {
				return nil, p.errf("GROUP BY needs at least one variable")
			}
		case "HAVING":
			if err := p.bump(); err != nil {
				return nil, err
			}
			start := len(q.Having)
			for p.isExprStart() {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				q.Having = append(q.Having, e)
			}
			if len(q.Having) == start {
				return nil, p.errf("HAVING needs an expression")
			}
		default:
			return nil, p.errf("unexpected keyword %q after WHERE clause", p.tok.text)
		}
	}
	if p.tok.kind != tokEOF {
		return nil, p.errf("trailing input %q", p.tok.text)
	}
	if err := validateAggregation(q); err != nil {
		return nil, err
	}
	return q, nil
}

// parsePrefixDecl parses "ex: <iri>" after PREFIX (or TriG's @prefix)
// and binds it. A label that would not read back is refused.
func (p *parser) parsePrefixDecl() error {
	if p.tok.kind != tokPName || !strings.HasSuffix(p.tok.text, ":") {
		return p.errf("expected prefix declaration like ex:, got %q", p.tok.text)
	}
	prefix := strings.TrimSuffix(p.tok.text, ":")
	if err := rdf.CheckPrefixLabel(prefix); err != nil {
		return p.errf("%v", err)
	}
	if err := p.bump(); err != nil {
		return err
	}
	if p.tok.kind != tokIRI {
		return p.errf("expected IRI after PREFIX %s:", prefix)
	}
	p.prefixes.Bind(prefix, p.tok.text)
	return p.bump()
}

// parseAggregate parses one projected aggregate,
// "( FUNC '(' [DISTINCT] (*|?var) ')' AS ?alias )", with the opening
// paren as the current token.
func (p *parser) parseAggregate() (Aggregate, error) {
	if err := p.bump(); err != nil { // consume '('
		return Aggregate{}, err
	}
	var a Aggregate
	if p.tok.kind != tokKeyword {
		return Aggregate{}, p.errf("expected aggregate function, got %q", p.tok.text)
	}
	switch p.tok.text {
	case "COUNT":
		a.Func = AggCount
	case "SUM":
		a.Func = AggSum
	case "MIN":
		a.Func = AggMin
	case "MAX":
		a.Func = AggMax
	default:
		return Aggregate{}, p.errf("expected COUNT, SUM, MIN or MAX, got %q", p.tok.text)
	}
	if err := p.bump(); err != nil {
		return Aggregate{}, err
	}
	if p.tok.kind != tokLParen {
		return Aggregate{}, p.errf("expected ( after %s", a.Func)
	}
	if err := p.bump(); err != nil {
		return Aggregate{}, err
	}
	if p.tok.kind == tokKeyword && p.tok.text == "DISTINCT" {
		a.Distinct = true
		if err := p.bump(); err != nil {
			return Aggregate{}, err
		}
	}
	switch p.tok.kind {
	case tokStar:
		if a.Func != AggCount {
			return Aggregate{}, p.errf("only COUNT accepts *")
		}
		if a.Distinct {
			return Aggregate{}, p.errf("COUNT(DISTINCT *) is not supported")
		}
		if err := p.bump(); err != nil {
			return Aggregate{}, err
		}
	case tokVar:
		a.Var = p.tok.text
		if err := p.bump(); err != nil {
			return Aggregate{}, err
		}
	default:
		return Aggregate{}, p.errf("aggregate argument must be a variable or *, got %q", p.tok.text)
	}
	if p.tok.kind != tokRParen {
		return Aggregate{}, p.errf("expected ) after aggregate argument")
	}
	if err := p.bump(); err != nil {
		return Aggregate{}, err
	}
	if err := p.expectKeyword("AS"); err != nil {
		return Aggregate{}, err
	}
	if p.tok.kind != tokVar {
		return Aggregate{}, p.errf("expected alias variable after AS")
	}
	a.As = p.tok.text
	if err := p.bump(); err != nil {
		return Aggregate{}, err
	}
	if p.tok.kind != tokRParen {
		return Aggregate{}, p.errf("expected ) closing aggregate projection")
	}
	return a, p.bump()
}

// validateAggregation enforces the structural rules that make grouped
// queries well-defined: grouping is SELECT-only, incompatible with
// SELECT *, aliases must be fresh names, and every plainly projected
// variable must be a group key.
func validateAggregation(q *Query) error {
	if len(q.Aggregates) == 0 && len(q.GroupBy) == 0 {
		if len(q.Having) > 0 {
			return fmt.Errorf("sparql: HAVING requires GROUP BY or an aggregate")
		}
		return nil
	}
	if q.Form != FormSelect {
		return fmt.Errorf("sparql: GROUP BY and aggregates require a SELECT query")
	}
	if q.Star {
		return fmt.Errorf("sparql: SELECT * cannot be combined with GROUP BY or aggregates")
	}
	whereVars := map[string]bool{}
	q.Where.collectVars(whereVars)
	grouped := map[string]bool{}
	for _, v := range q.GroupBy {
		grouped[v] = true
	}
	aliases := map[string]bool{}
	for _, a := range q.Aggregates {
		if aliases[a.As] {
			return fmt.Errorf("sparql: duplicate aggregate alias ?%s", a.As)
		}
		if whereVars[a.As] || grouped[a.As] {
			return fmt.Errorf("sparql: aggregate alias ?%s shadows a query variable", a.As)
		}
		aliases[a.As] = true
	}
	projected := map[string]bool{}
	for _, v := range q.Variables {
		if projected[v] {
			// A name can reach the projection twice — once as a plain
			// variable and once as an aggregate alias — which would
			// render as the aggregate twice and no longer reparse.
			return fmt.Errorf("sparql: duplicate projected variable ?%s", v)
		}
		projected[v] = true
		if !aliases[v] && !grouped[v] {
			return fmt.Errorf("sparql: projected variable ?%s is neither grouped nor aggregated", v)
		}
	}
	return nil
}

func (p *parser) parseOrderKey() (OrderKey, bool, error) {
	switch {
	case p.tok.kind == tokVar:
		k := OrderKey{Var: p.tok.text}
		return k, true, p.bump()
	case p.tok.kind == tokKeyword && (p.tok.text == "ASC" || p.tok.text == "DESC"):
		desc := p.tok.text == "DESC"
		if err := p.bump(); err != nil {
			return OrderKey{}, false, err
		}
		if p.tok.kind != tokLParen {
			return OrderKey{}, false, p.errf("expected ( after ASC/DESC")
		}
		if err := p.bump(); err != nil {
			return OrderKey{}, false, err
		}
		if p.tok.kind != tokVar {
			return OrderKey{}, false, p.errf("expected variable in ORDER BY")
		}
		k := OrderKey{Var: p.tok.text, Desc: desc}
		if err := p.bump(); err != nil {
			return OrderKey{}, false, err
		}
		if p.tok.kind != tokRParen {
			return OrderKey{}, false, p.errf("expected ) in ORDER BY")
		}
		return k, true, p.bump()
	default:
		return OrderKey{}, false, nil
	}
}

func (p *parser) parseNonNegInt(ctx string) (int, error) {
	if p.tok.kind != tokNumber {
		return 0, p.errf("expected number after %s", ctx)
	}
	var n int
	if _, err := fmt.Sscanf(p.tok.text, "%d", &n); err != nil || n < 0 {
		return 0, p.errf("bad %s value %q", ctx, p.tok.text)
	}
	return n, p.bump()
}

func (p *parser) parseGroup() (*Group, error) {
	if p.tok.kind != tokLBrace {
		return nil, p.errf("expected {, got %q", p.tok.text)
	}
	if err := p.bump(); err != nil {
		return nil, err
	}
	g := &Group{}
	for {
		switch {
		case p.tok.kind == tokRBrace:
			if err := p.bump(); err != nil {
				return nil, err
			}
			return g, nil
		case p.tok.kind == tokEOF:
			return nil, p.errf("unterminated group pattern")
		case p.tok.kind == tokKeyword && p.tok.text == "FILTER":
			if err := p.bump(); err != nil {
				return nil, err
			}
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			g.Filters = append(g.Filters, e)
		case p.tok.kind == tokKeyword && p.tok.text == "OPTIONAL":
			if err := p.bump(); err != nil {
				return nil, err
			}
			sub, err := p.parseGroup()
			if err != nil {
				return nil, err
			}
			g.Patterns = append(g.Patterns, Optional{Group: sub})
		case p.tok.kind == tokKeyword && p.tok.text == "GRAPH":
			if err := p.bump(); err != nil {
				return nil, err
			}
			name, err := p.parseNode()
			if err != nil {
				return nil, err
			}
			if !name.IsVar() && !name.Term.IsIRI() {
				return nil, p.errf("GRAPH name must be a variable or IRI, got %s", name)
			}
			sub, err := p.parseGroup()
			if err != nil {
				return nil, err
			}
			g.Patterns = append(g.Patterns, GraphPattern{Name: name, Group: sub})
		case p.tok.kind == tokLBrace:
			// Sub-group: either the start of a UNION chain or a plain
			// nested group (treated as inlined join).
			first, err := p.parseGroup()
			if err != nil {
				return nil, err
			}
			if p.tok.kind == tokKeyword && p.tok.text == "UNION" {
				branches := []*Group{first}
				for p.tok.kind == tokKeyword && p.tok.text == "UNION" {
					if err := p.bump(); err != nil {
						return nil, err
					}
					b, err := p.parseGroup()
					if err != nil {
						return nil, err
					}
					branches = append(branches, b)
				}
				g.Patterns = append(g.Patterns, Union{Branches: branches})
			} else {
				g.Patterns = append(g.Patterns, first.Patterns...)
				g.Filters = append(g.Filters, first.Filters...)
			}
		case p.tok.kind == tokDot:
			if err := p.bump(); err != nil {
				return nil, err
			}
		default:
			if err := p.parseTriplesBlock(g); err != nil {
				return nil, err
			}
		}
	}
}

// parseTriplesBlock parses subject predicate-object lists with ';' and
// ',' abbreviations, appending TriplePatterns to g.
func (p *parser) parseTriplesBlock(g *Group) error {
	subj, err := p.parseNode()
	if err != nil {
		return err
	}
	if err := p.parsePropertyList(g, subj); err != nil {
		return err
	}
	if p.tok.kind == tokDot {
		return p.bump()
	}
	if p.tok.kind == tokRBrace || p.tok.kind == tokEOF ||
		(p.tok.kind == tokKeyword && (p.tok.text == "FILTER" || p.tok.text == "OPTIONAL" || p.tok.text == "GRAPH")) {
		return nil
	}
	return p.errf("expected '.' after triple pattern, got %q", p.tok.text)
}

// parsePropertyList parses the predicate-object lists of subj, up to the
// token that ends the triples, appending their patterns to g, or in data
// adding the triples to p.graph.
func (p *parser) parsePropertyList(g *Group, subj Node) error {
	if !subj.IsVar() && !subj.Term.IsIRI() && !subj.Term.IsBlank() {
		return p.errf("triple subject must be a variable or IRI, got %s", subj)
	}
	for {
		pred, path, err := p.parseVerb()
		if err != nil {
			return err
		}
		for {
			obj, err := p.parseNode()
			if err != nil {
				return err
			}
			switch {
			case p.data: // ground, and never a path (see parseVerb)
				if _, err := p.graph.Add(rdf.T(subj.Term, pred.Term, obj.Term)); err != nil {
					return p.errf("%v", err)
				}
			case path != nil:
				g.Patterns = append(g.Patterns, PathPattern{S: subj, Path: path, O: obj})
			default:
				g.Patterns = append(g.Patterns, TriplePattern{S: subj, P: pred, O: obj})
			}
			if p.tok.kind == tokComma {
				if err := p.bump(); err != nil {
					return err
				}
				continue
			}
			break
		}
		if p.tok.kind == tokSemi {
			if err := p.bump(); err != nil {
				return err
			}
			// allow trailing ';'
			if p.tok.kind == tokDot || p.tok.kind == tokRBrace {
				return nil
			}
			continue
		}
		return nil
	}
}

// parseVerb parses the predicate position of a triple pattern: a
// variable, or a property-path expression. A trivial path (one forward
// predicate, no operators) is returned as a plain Node so the pattern
// stays a TriplePattern; anything else returns a non-nil *Path.
func (p *parser) parseVerb() (Node, *Path, error) {
	if p.tok.kind == tokVar {
		if p.data {
			return Node{}, nil, p.errf("variable ?%s in data", p.tok.text)
		}
		n := V(p.tok.text)
		return n, nil, p.bump()
	}
	path, err := p.parsePath()
	if err != nil {
		return Node{}, nil, err
	}
	if path.Kind == PathLink {
		return N(path.IRI), nil, nil
	}
	if p.data {
		return Node{}, nil, p.errf("property path %s in data", path)
	}
	return Node{}, path, nil
}

// Property-path grammar (precedence low to high):
//
//	path       := pathAlt
//	pathAlt    := pathSeq ('|' pathSeq)*
//	pathSeq    := pathEltOrInv ('/' pathEltOrInv)*
//	pathEltOrInv := '^'? pathElt
//	pathElt    := pathPrimary ('+' | '*' | '?')?
//	pathPrimary := IRI | PrefixedName | 'a' | '(' path ')'
//
// so `^p/q|r` parses as ((^p)/q)|r and `^p+` as ^(p+).
func (p *parser) parsePath() (*Path, error) { return p.parsePathAlt() }

func (p *parser) parsePathAlt() (*Path, error) {
	l, err := p.parsePathSeq()
	if err != nil {
		return nil, err
	}
	for p.tok.kind == tokPipe {
		if err := p.bump(); err != nil {
			return nil, err
		}
		r, err := p.parsePathSeq()
		if err != nil {
			return nil, err
		}
		l = &Path{Kind: PathAlt, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parsePathSeq() (*Path, error) {
	l, err := p.parsePathEltOrInv()
	if err != nil {
		return nil, err
	}
	for p.tok.kind == tokSlash {
		if err := p.bump(); err != nil {
			return nil, err
		}
		r, err := p.parsePathEltOrInv()
		if err != nil {
			return nil, err
		}
		l = &Path{Kind: PathSeq, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parsePathEltOrInv() (*Path, error) {
	if p.tok.kind == tokCaret {
		if err := p.bump(); err != nil {
			return nil, err
		}
		sub, err := p.parsePathElt()
		if err != nil {
			return nil, err
		}
		return &Path{Kind: PathInv, Sub: sub}, nil
	}
	return p.parsePathElt()
}

func (p *parser) parsePathElt() (*Path, error) {
	prim, err := p.parsePathPrimary()
	if err != nil {
		return nil, err
	}
	var kind PathKind
	switch p.tok.kind {
	case tokPlus:
		kind = PathPlus
	case tokStar:
		kind = PathStar
	case tokQuestion:
		kind = PathOpt
	default:
		return prim, nil
	}
	return &Path{Kind: kind, Sub: prim}, p.bump()
}

func (p *parser) parsePathPrimary() (*Path, error) {
	switch p.tok.kind {
	case tokA:
		return Link(rdf.IRI(rdf.RDFType)), p.bump()
	case tokIRI:
		t := rdf.IRI(p.tok.text)
		return Link(t), p.bump()
	case tokPName:
		iri, ok := p.prefixes.Expand(p.tok.text)
		if !ok {
			return nil, p.errf("unknown prefix in %q", p.tok.text)
		}
		return Link(rdf.IRI(iri)), p.bump()
	case tokLParen:
		if err := p.bump(); err != nil {
			return nil, err
		}
		path, err := p.parsePath()
		if err != nil {
			return nil, err
		}
		if p.tok.kind != tokRParen {
			return nil, p.errf("expected ) closing path group")
		}
		return path, p.bump()
	default:
		return nil, p.errf("triple predicate must be a variable or property path, got %s %q", p.tok.kind, p.tok.text)
	}
}

// parseNode parses a variable, IRI, prefixed name or literal; in data,
// a blank node instead of a variable.
func (p *parser) parseNode() (Node, error) {
	switch p.tok.kind {
	case tokVar:
		if p.data {
			return Node{}, p.errf("variable ?%s in data", p.tok.text)
		}
		n := V(p.tok.text)
		return n, p.bump()
	case tokIRI:
		n := N(rdf.IRI(p.tok.text))
		return n, p.bump()
	case tokAnon:
		if !p.data {
			break
		}
		p.anon++
		return N(rdf.Blank(fmt.Sprintf("anon%d", p.anon))), p.bump()
	case tokPName:
		if p.data && strings.HasPrefix(p.tok.text, "_:") {
			if p.tok.text == "_:" {
				return Node{}, p.errf("empty blank node label")
			}
			return N(rdf.Blank(p.tok.text[2:])), p.bump()
		}
		iri, ok := p.prefixes.Expand(p.tok.text)
		if !ok {
			return Node{}, p.errf("unknown prefix in %q", p.tok.text)
		}
		n := N(rdf.IRI(iri))
		return n, p.bump()
	case tokString:
		lex := p.tok.text
		if err := p.bump(); err != nil {
			return Node{}, err
		}
		switch p.tok.kind {
		case tokLangTag:
			n := N(rdf.LangLit(lex, p.tok.text))
			return n, p.bump()
		case tokDatatype:
			if err := p.bump(); err != nil {
				return Node{}, err
			}
			dt, err := p.parseNode()
			if err != nil {
				return Node{}, err
			}
			if dt.IsVar() || !dt.Term.IsIRI() {
				return Node{}, p.errf("datatype must be an IRI")
			}
			return N(rdf.TypedLit(lex, dt.Term.Value)), nil
		default:
			return N(rdf.Lit(lex)), nil
		}
	case tokNumber:
		n := N(numberTerm(p.tok.text))
		return n, p.bump()
	case tokBoolean:
		n := N(rdf.BoolLit(p.tok.text == "true"))
		return n, p.bump()
	}
	return Node{}, p.errf("expected term, got %s %q", p.tok.kind, p.tok.text)
}

func numberTerm(lex string) rdf.Term {
	if strings.ContainsAny(lex, ".eE") {
		return rdf.TypedLit(lex, rdf.XSDDouble)
	}
	return rdf.TypedLit(lex, rdf.XSDInteger)
}

// --- FILTER expression parsing (precedence: || < && < cmp < unary) ---

func (p *parser) parseExpr() (Expr, error) {
	if p.tok.kind != tokLParen && !p.isExprStart() {
		return nil, p.errf("expected expression, got %q", p.tok.text)
	}
	return p.parseOr()
}

func (p *parser) isExprStart() bool {
	switch p.tok.kind {
	case tokVar, tokString, tokNumber, tokBoolean, tokIRI, tokPName, tokLParen:
		return true
	case tokOp:
		return p.tok.text == "!"
	case tokKeyword:
		return p.tok.text == "BOUND" || p.tok.text == "REGEX" || p.tok.text == "STR"
	}
	return false
}

func (p *parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.tok.kind == tokOp && p.tok.text == "||" {
		if err := p.bump(); err != nil {
			return nil, err
		}
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = LogicExpr{Op: "||", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (Expr, error) {
	l, err := p.parseCmp()
	if err != nil {
		return nil, err
	}
	for p.tok.kind == tokOp && p.tok.text == "&&" {
		if err := p.bump(); err != nil {
			return nil, err
		}
		r, err := p.parseCmp()
		if err != nil {
			return nil, err
		}
		l = LogicExpr{Op: "&&", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseCmp() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	if p.tok.kind == tokOp {
		switch p.tok.text {
		case "=", "!=", "<", "<=", ">", ">=":
			op := p.tok.text
			if err := p.bump(); err != nil {
				return nil, err
			}
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			return CmpExpr{Op: op, L: l, R: r}, nil
		}
	}
	return l, nil
}

func (p *parser) parseUnary() (Expr, error) {
	if p.tok.kind == tokOp && p.tok.text == "!" {
		if err := p.bump(); err != nil {
			return nil, err
		}
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return NotExpr{X: x}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Expr, error) {
	switch {
	case p.tok.kind == tokLParen:
		if err := p.bump(); err != nil {
			return nil, err
		}
		e, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if p.tok.kind != tokRParen {
			return nil, p.errf("expected )")
		}
		return e, p.bump()
	case p.tok.kind == tokVar:
		e := VarExpr{Name: p.tok.text}
		return e, p.bump()
	case p.tok.kind == tokKeyword && p.tok.text == "BOUND":
		if err := p.bump(); err != nil {
			return nil, err
		}
		if p.tok.kind != tokLParen {
			return nil, p.errf("expected ( after BOUND")
		}
		if err := p.bump(); err != nil {
			return nil, err
		}
		if p.tok.kind != tokVar {
			return nil, p.errf("BOUND takes a variable")
		}
		name := p.tok.text
		if err := p.bump(); err != nil {
			return nil, err
		}
		if p.tok.kind != tokRParen {
			return nil, p.errf("expected ) after BOUND variable")
		}
		return BoundExpr{Name: name}, p.bump()
	case p.tok.kind == tokKeyword && p.tok.text == "STR":
		if err := p.bump(); err != nil {
			return nil, err
		}
		if p.tok.kind != tokLParen {
			return nil, p.errf("expected ( after STR")
		}
		if err := p.bump(); err != nil {
			return nil, err
		}
		x, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if p.tok.kind != tokRParen {
			return nil, p.errf("expected ) after STR argument")
		}
		return StrExpr{X: x}, p.bump()
	case p.tok.kind == tokKeyword && p.tok.text == "REGEX":
		if err := p.bump(); err != nil {
			return nil, err
		}
		if p.tok.kind != tokLParen {
			return nil, p.errf("expected ( after REGEX")
		}
		if err := p.bump(); err != nil {
			return nil, err
		}
		x, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if p.tok.kind != tokComma {
			return nil, p.errf("REGEX needs a pattern argument")
		}
		if err := p.bump(); err != nil {
			return nil, err
		}
		if p.tok.kind != tokString {
			return nil, p.errf("REGEX pattern must be a string")
		}
		pattern := p.tok.text
		if err := p.bump(); err != nil {
			return nil, err
		}
		flags := ""
		if p.tok.kind == tokComma {
			if err := p.bump(); err != nil {
				return nil, err
			}
			if p.tok.kind != tokString {
				return nil, p.errf("REGEX flags must be a string")
			}
			flags = p.tok.text
			if err := p.bump(); err != nil {
				return nil, err
			}
		}
		if p.tok.kind != tokRParen {
			return nil, p.errf("expected ) after REGEX")
		}
		re, err := NewRegexExpr(x, pattern, flags)
		if err != nil {
			return nil, err
		}
		return re, p.bump()
	default:
		n, err := p.parseNode()
		if err != nil {
			return nil, err
		}
		if n.IsVar() {
			return VarExpr{Name: n.Var}, nil
		}
		return ConstExpr{Term: n.Term}, nil
	}
}
