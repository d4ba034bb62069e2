// Package sparql implements the fragment of the SPARQL 1.1 query
// language that MDM generates and evaluates: SELECT and ASK queries with
// PREFIX directives, basic graph patterns, property paths (`^p`, `p/q`,
// `p|q`, `p+`, `p*`, `p?`), FILTER, OPTIONAL, UNION, named GRAPH blocks,
// aggregation (GROUP BY with COUNT/SUM/MIN/MAX and HAVING), DISTINCT,
// ORDER BY, LIMIT and OFFSET.
//
// It is also the one reader of RDF text in MDM: ParseTriG reads TriG
// documents (mdm.ImportTriG) with the same lexer and the same term and
// triples grammar as queries, so a term reads the same way in both.
// Package rdf writes terms (Term.String, PrefixMap.Compact,
// rdf.WriteDataset) only in forms this lexer reads back as the same
// term; the shared rules are in rdf's syntax.go.
//
// The original MDM translates graphically drawn "walks" over the global
// graph into SPARQL; this package provides both that target language and
// a general evaluator over rdf.Dataset so analysts (and tests) can
// inspect intermediate artifacts exactly as Figure 8 of the paper shows.
//
// # Cursor-based evaluation
//
// The primary evaluation product is the Cursor (EvalCursor/RunCursor):
// a query compiles to a tree of pull-based operators, and rows are
// produced one Next call at a time. That gives paged reads their cost
// contract — LIMIT/OFFSET and DISTINCT are enforced inside the
// pipeline, so a page over a large dataset costs O(page) work and
// memory, not O(result) — and gives long-running services cancellation:
// Next polls its context once per row (and periodically inside index
// scans), so a canceled context aborts evaluation promptly with the
// error surfaced by Cursor.Err. Eval/EvalContext/Run remain as
// materializing wrappers; Result is simply the view over a fully
// drained cursor.
//
// Cursor lifetimes are unconstrained: no locks or goroutines are held
// between Next calls, so abandoning a cursor without Close is safe. A
// cursor does not snapshot the dataset — each index scan reads live
// graph state, so writes concurrent with a drain may or may not be
// observed; clone the dataset first for point-in-time reads.
//
// # Result ordering
//
// With ORDER BY, rows stream out of a stable sort barrier. Without
// ORDER BY, results follow a canonical order (projected columns,
// compared left to right, unbound first): a total order up to row
// identity, which makes repeated evaluations — and therefore
// LIMIT/OFFSET pages — deterministic. When a LIMIT is present, the
// canonical case is served by a bounded top-k operator that retains
// only offset+limit rows instead of sorting the full result.
//
// # ID-row evaluation model
//
// The evaluator is late-materializing. Each Query is compiled once to a
// fixed variable-slot layout (variable name -> column index, covering
// every variable the query binds, projects, orders by or filters on),
// and every intermediate solution is a fixed-width []rdf.TermID row over
// the dataset-shared dictionary, with rdf.AnyID marking unbound slots
// (which doubles as the wildcard when a slot is substituted into a match
// pattern). Joins, OPTIONAL left joins, UNION, GRAPH blocks, DISTINCT
// and ORDER BY all operate on raw IDs. Operators hand rows downstream
// Volcano-style (valid until the producer's next pull); only the
// barriers copy, into a chunked arena, so extending or retaining a
// solution is a copy instead of a map clone and discarded rows cost no
// allocation.
//
// Terms are decoded from IDs only at the edges (the decode-at-projection
// rule): Cursor.Row, Result.Solutions / Result.Term / Result.Table
// decode on demand from an append-only dictionary snapshot, and FILTER
// expressions read through the Env interface, whose row-backed
// implementation decodes just the variables an expression actually
// looks up.
//
// # Planning and join algorithms
//
// Before execution, a query's WHERE group compiles to an immutable
// plan: triple patterns are ordered greedily by index-derived
// selectivity estimates (runs never permute across OPTIONAL, UNION or
// GRAPH boundaries, whose sub-groups observe outer bindings), concrete
// terms are resolved to dictionary IDs once (a term the dictionary has
// never seen makes its pattern dead — nothing can match), and each
// pattern is assigned one of two join operators by a small cost model:
// an index nested loop that probes the graph per input row, or a hash
// join that batches the pattern's full match set under one lock into an
// ID-keyed table and probes it per row. The estimated build size is
// weighed against the per-row lock-and-walk tax of index probing, so
// small queries keep the nested loop while wide joins
// (BenchmarkSPARQLJoinRows) switch to the hash join.
//
// A plan is compiled per evaluation, so the named-graph set it expanded
// and the constants it found dead are as of that evaluation. The full
// decision rules, cost constants and the benchmark behind each live in
// docs/QUERY_PLANNING.md.
//
// # Oracle testing
//
// The pre-ID-row, Binding-map evaluator is retained in oracle_test.go
// as a reference implementation. spec_test.go generates hundreds of
// random query/graph pairs per run (witness-driven, so most queries
// have non-empty answers) and asserts that engine and oracle produce
// identical solution multisets — through both the materializing Eval
// and a cursor drain, under both join strategies (the planner's choice
// forced each way), plus the paged-read invariant (reading k rows and
// stopping equals the prefix of a full read) whenever the canonical
// order applies. Deterministic edge cases (empty BGP, unbound
// projections, OPTIONAL misses, UNION disjointness, paging past the
// end, hash-join build/probe corners) ride in the same harness. Any
// semantic change to evaluation must keep the two implementations in
// agreement — or consciously change both.
package sparql

import (
	"fmt"
	"strconv"
	"strings"
	"unicode/utf8"

	"mdm/internal/rdf"
)

// tokenKind enumerates lexical classes.
type tokenKind int

const (
	tokEOF tokenKind = iota
	tokKeyword
	tokVar      // ?name or $name
	tokIRI      // <...>
	tokPName    // prefix:local or prefix:
	tokString   // "..."
	tokNumber   // 12, 4.5, -2e3
	tokBoolean  // true/false
	tokLBrace   // {
	tokRBrace   // }
	tokLParen   // (
	tokRParen   // )
	tokDot      // .
	tokSemi     // ;
	tokComma    // ,
	tokStar     // *
	tokA        // the keyword 'a'
	tokOp       // = != < <= > >= && || !
	tokLangTag  // @en
	tokDatatype // ^^
	tokSlash    // / (path sequence)
	tokCaret    // ^ (path inverse; ^^ stays tokDatatype)
	tokPipe     // | (path alternative; || stays tokOp)
	tokPlus     // + (path one-or-more; +digit stays tokNumber)
	tokQuestion // ? (path zero-or-one; ?name stays tokVar)
	tokAnon     // [] (an anonymous blank node; TriG only)
)

func (k tokenKind) String() string {
	names := map[tokenKind]string{
		tokEOF: "EOF", tokKeyword: "keyword", tokVar: "variable", tokIRI: "IRI",
		tokPName: "prefixed name", tokString: "string", tokNumber: "number",
		tokBoolean: "boolean", tokLBrace: "{", tokRBrace: "}", tokLParen: "(",
		tokRParen: ")", tokDot: ".", tokSemi: ";", tokComma: ",", tokStar: "*",
		tokA: "a", tokOp: "operator", tokLangTag: "language tag", tokDatatype: "^^",
		tokSlash: "/", tokCaret: "^", tokPipe: "|", tokPlus: "+", tokQuestion: "?",
		tokAnon: "[]",
	}
	if n, ok := names[k]; ok {
		return n
	}
	return fmt.Sprintf("token(%d)", int(k))
}

type token struct {
	kind      tokenKind
	text      string
	line, col int
}

// keywords recognized case-insensitively (canonical uppercase forms).
var keywords = map[string]bool{
	"SELECT": true, "ASK": true, "WHERE": true, "PREFIX": true, "FILTER": true,
	"OPTIONAL": true, "UNION": true, "GRAPH": true, "DISTINCT": true,
	"ORDER": true, "BY": true, "ASC": true, "DESC": true, "LIMIT": true,
	"OFFSET": true, "BOUND": true, "REGEX": true, "STR": true, "BASE": true,
	"REDUCED": true, "GROUP": true, "HAVING": true, "AS": true,
	"COUNT": true, "SUM": true, "MIN": true, "MAX": true,
}

type lexer struct {
	src       string
	pos       int
	line, col int
	syntax    string // "sparql" or "trig", the prefix of every error
}

func newLexer(src, syntax string) *lexer { return &lexer{src: src, line: 1, col: 1, syntax: syntax} }

func (l *lexer) errf(format string, args ...any) error {
	return fmt.Errorf("%s: line %d:%d: %s", l.syntax, l.line, l.col, fmt.Sprintf(format, args...))
}

func (l *lexer) eof() bool { return l.pos >= len(l.src) }

func (l *lexer) peek() byte {
	if l.eof() {
		return 0
	}
	return l.src[l.pos]
}

func (l *lexer) peekAt(off int) byte {
	if l.pos+off >= len(l.src) {
		return 0
	}
	return l.src[l.pos+off]
}

func (l *lexer) advance() byte {
	c := l.src[l.pos]
	l.pos++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

func (l *lexer) skipWS() {
	for !l.eof() {
		c := l.peek()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.advance()
		case c == '#':
			for !l.eof() && l.peek() != '\n' {
				l.advance()
			}
		default:
			return
		}
	}
}

// next returns the next token.
func (l *lexer) next() (token, error) {
	l.skipWS()
	line, col := l.line, l.col
	mk := func(k tokenKind, text string) token {
		return token{kind: k, text: text, line: line, col: col}
	}
	if l.eof() {
		return mk(tokEOF, ""), nil
	}
	c := l.peek()
	switch {
	case c == '{':
		l.advance()
		return mk(tokLBrace, "{"), nil
	case c == '}':
		l.advance()
		return mk(tokRBrace, "}"), nil
	case c == '(':
		l.advance()
		return mk(tokLParen, "("), nil
	case c == ')':
		l.advance()
		return mk(tokRParen, ")"), nil
	case c == '.':
		// distinguish '.' terminator from decimal handled in number scan
		l.advance()
		return mk(tokDot, "."), nil
	case c == ';':
		l.advance()
		return mk(tokSemi, ";"), nil
	case c == ',':
		l.advance()
		return mk(tokComma, ","), nil
	case c == '*':
		l.advance()
		return mk(tokStar, "*"), nil
	case c == '?' || c == '$':
		l.advance()
		start := l.pos
		for !l.eof() && rdf.IsNameByte(l.peek()) {
			l.advance()
		}
		if l.pos == start {
			// A bare '?' is the zero-or-one path modifier; '$' has no
			// such reading and stays an error.
			if c == '?' {
				return mk(tokQuestion, "?"), nil
			}
			return token{}, l.errf("empty variable name")
		}
		return mk(tokVar, l.src[start:l.pos]), nil
	case c == '<':
		// '<' is ambiguous: IRI opener or less-than (rdf.OpensComparison,
		// the rule the writer escapes an IRI's first byte by).
		if rdf.OpensComparison(l.peekAt(1)) {
			l.advance()
			if !l.eof() && l.peek() == '=' {
				l.advance()
				return mk(tokOp, "<="), nil
			}
			return mk(tokOp, "<"), nil
		}
		l.advance()
		iri, err := l.lexQuoted('>', "IRI")
		return mk(tokIRI, iri), err
	case c == '"':
		l.advance()
		str, err := l.lexQuoted('"', "string")
		return mk(tokString, str), err
	case c == '[':
		// Only the empty property list: "[ ]" is an anonymous blank node.
		l.advance()
		l.skipWS()
		if l.eof() || l.peek() != ']' {
			return token{}, l.errf("only the empty blank node property list [] is supported")
		}
		l.advance()
		return mk(tokAnon, "[]"), nil
	case c == '@':
		l.advance()
		start := l.pos
		for !l.eof() && (isAlnumByte(l.peek()) || l.peek() == '-') {
			l.advance()
		}
		if l.pos == start {
			return token{}, l.errf("empty language tag")
		}
		return mk(tokLangTag, l.src[start:l.pos]), nil
	case c == '^':
		if l.peekAt(1) == '^' {
			l.advance()
			l.advance()
			return mk(tokDatatype, "^^"), nil
		}
		l.advance()
		return mk(tokCaret, "^"), nil
	case c == '=':
		l.advance()
		return mk(tokOp, "="), nil
	case c == '!':
		l.advance()
		if !l.eof() && l.peek() == '=' {
			l.advance()
			return mk(tokOp, "!="), nil
		}
		return mk(tokOp, "!"), nil
	case c == '>':
		l.advance()
		if !l.eof() && l.peek() == '=' {
			l.advance()
			return mk(tokOp, ">="), nil
		}
		return mk(tokOp, ">"), nil
	case c == '&':
		if l.peekAt(1) == '&' {
			l.advance()
			l.advance()
			return mk(tokOp, "&&"), nil
		}
		return token{}, l.errf("unexpected '&'")
	case c == '|':
		if l.peekAt(1) == '|' {
			l.advance()
			l.advance()
			return mk(tokOp, "||"), nil
		}
		l.advance()
		return mk(tokPipe, "|"), nil
	case c == '/':
		l.advance()
		return mk(tokSlash, "/"), nil
	case c == '+':
		// '+' directly followed by a digit (or .digit) is a signed
		// number; anywhere else it is the one-or-more path modifier.
		if n := l.peekAt(1); n >= '0' && n <= '9' ||
			(n == '.' && l.peekAt(2) >= '0' && l.peekAt(2) <= '9') {
			return l.lexNumber(mk)
		}
		l.advance()
		return mk(tokPlus, "+"), nil
	case c == '-' || (c >= '0' && c <= '9'):
		return l.lexNumber(mk)
	default:
		return l.lexWord(mk)
	}
}

// lexQuoted reads the body of a string (what "string", closed by '"') or
// of an IRI (what "IRI", closed by '>'), whose opening byte is consumed,
// up to and including the closing byte. A body without escapes is a
// slice of the source. Both take \u and \U escapes; a string also takes
// the ECHARs \t \b \n \r \f \" \' \\, and an IRI refuses a newline.
func (l *lexer) lexQuoted(close byte, what string) (string, error) {
	start := l.pos
	var buf []byte // the body so far, once it holds an escape
	for {
		if l.eof() {
			return "", l.errf("unterminated %s", what)
		}
		c := l.advance()
		switch {
		case c == close:
			if buf == nil {
				return l.src[start : l.pos-1], nil
			}
			return string(buf), nil
		case c == '\n' && close == '>':
			return "", l.errf("newline in IRI")
		case c != '\\':
			if buf != nil {
				buf = append(buf, c)
			}
			continue
		}
		if buf == nil {
			buf = append([]byte{}, l.src[start:l.pos-1]...)
		}
		if l.eof() {
			return "", l.errf("dangling escape")
		}
		e := l.advance()
		if k := strings.IndexByte(echarLetters, e); k >= 0 && close == '"' {
			buf = append(buf, echarBytes[k])
			continue
		}
		if e != 'u' && e != 'U' {
			return "", l.errf("unsupported escape \\%c in %s", e, what)
		}
		r, err := l.lexUCHAR(e)
		if err != nil {
			return "", err
		}
		buf = utf8.AppendRune(buf, r)
	}
}

// echarLetters are the letters of the string escapes, and echarBytes the
// bytes they stand for.
const echarLetters, echarBytes = "tbnrf\"'\\", "\t\b\n\r\f\"'\\"

// lexUCHAR reads the hex digits of a \u (four) or \U (eight) escape,
// whose letter e is already consumed, and returns the code point.
func (l *lexer) lexUCHAR(e byte) (rune, error) {
	n := 4
	if e == 'U' {
		n = 8
	}
	if l.pos+n > len(l.src) {
		return 0, l.errf("truncated \\%c escape", e)
	}
	hex := l.src[l.pos : l.pos+n]
	v, err := strconv.ParseUint(hex, 16, 32)
	if err != nil || !utf8.ValidRune(rune(v)) {
		return 0, l.errf("bad \\%c escape %q", e, hex)
	}
	for range n {
		l.advance()
	}
	return rune(v), nil
}

func (l *lexer) lexNumber(mk func(tokenKind, string) token) (token, error) {
	start := l.pos
	if l.peek() == '+' || l.peek() == '-' {
		l.advance()
	}
	seen := false
	for !l.eof() {
		c := l.peek()
		if c >= '0' && c <= '9' {
			seen = true
			l.advance()
			continue
		}
		if c == '.' && l.peekAt(1) >= '0' && l.peekAt(1) <= '9' {
			l.advance()
			continue
		}
		if (c == 'e' || c == 'E') && seen {
			l.advance()
			if !l.eof() && (l.peek() == '+' || l.peek() == '-') {
				l.advance()
			}
			continue
		}
		break
	}
	if !seen {
		return token{}, l.errf("malformed number")
	}
	return mk(tokNumber, l.src[start:l.pos]), nil
}

func (l *lexer) lexWord(mk func(tokenKind, string) token) (token, error) {
	start := l.pos
	hasColon := false
	for !l.eof() {
		c := l.peek()
		if rdf.IsNameByte(c) {
			l.advance()
			continue
		}
		if c == ':' {
			hasColon = true
			l.advance()
			continue
		}
		break
	}
	word := l.src[start:l.pos]
	if word == "" {
		return token{}, l.errf("unexpected character %q", string(l.peek()))
	}
	// PrefixedName local parts may end in '.' only when followed by a name
	// char; a trailing '.' is the triple terminator.
	for strings.HasSuffix(word, ".") {
		word = word[:len(word)-1]
		l.pos--
		l.col--
	}
	if hasColon {
		return mk(tokPName, word), nil
	}
	switch word {
	case "a":
		return mk(tokA, "a"), nil
	case "true", "false":
		return mk(tokBoolean, word), nil
	}
	up := strings.ToUpper(word)
	if keywords[up] {
		return mk(tokKeyword, up), nil
	}
	return token{}, l.errf("unexpected word %q", word)
}

func isAlnumByte(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
}
