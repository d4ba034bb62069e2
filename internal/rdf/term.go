// Package rdf implements the RDF data model and an indexed, in-memory
// quad store with named-graph support. It is the storage substrate that
// replaces Apache Jena in the original MDM implementation: the global
// graph, the source graph and the LAV-mapping named graphs all live in an
// rdf.Dataset.
//
// The package is deliberately self-contained (stdlib only) and exposes
// exactly the access paths MDM needs: pattern matching over triples,
// named graphs, prefix management, and lightweight RDFS/OWL helpers
// (subClassOf closure, sameAs resolution).
//
// # Dictionary encoding
//
// Terms are interned in a Dict, a bijection between Term values and
// dense uint32 TermIDs assigned in first-seen order. The dictionary is
// scoped to the Dataset: every graph created through Dataset.Graph
// shares the dataset's Dict, so a TermID identifies the same term in
// every graph of the dataset — the property SPARQL evaluation relies on
// to join ID rows across GRAPH blocks without re-encoding. Standalone
// graphs built with NewGraph get a private Dict and never join a
// dataset.
//
// The three triple permutation indexes (spo, pos, osp) are built over
// IDs, so every index probe hashes a single uint32 instead of a 4-field
// struct holding three strings, index keys are 4 bytes instead of ~56,
// and triples impose no per-entry GC pressure beyond the one dictionary
// entry per distinct term. IDs are stable for the life of the dict: a
// graph only grows, and dropping a whole graph never evicts dictionary
// entries.
//
// Locking: the graph mutex guards a graph's indexes; the shared Dict
// synchronizes itself and its id -> term table is append-only, so
// Dict.Snapshot hands out lock-free read views (see Dict).
//
// # Iterator contract
//
// EachMatch (and its ID-level sibling EachMatchIDs) stream matching
// triples through a callback in unspecified order, holding the graph's
// read lock for the duration of the scan and allocating nothing. The
// callback must not mutate the graph. Match and Triples preserve the
// historical contract — a freshly allocated slice in deterministic
// CompareTriples order — and are implemented on top of the iterator;
// Count, MatchFirst, Subjects and Objects answer from the indexes
// without materializing or sorting the full match set.
package rdf

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// TermKind discriminates the three kinds of RDF terms plus the Any
// wildcard used in match patterns.
type TermKind uint8

// Term kinds. KindAny never appears in a stored triple; it is only
// meaningful as a pattern component passed to Graph.Match.
const (
	KindIRI TermKind = iota
	KindLiteral
	KindBlank
	KindAny
)

// String returns a human-readable name for the kind.
func (k TermKind) String() string {
	switch k {
	case KindIRI:
		return "iri"
	case KindLiteral:
		return "literal"
	case KindBlank:
		return "blank"
	case KindAny:
		return "any"
	}
	return fmt.Sprintf("TermKind(%d)", uint8(k))
}

// Standard XSD datatype IRIs used by typed literals.
const (
	XSDString  = "http://www.w3.org/2001/XMLSchema#string"
	XSDInteger = "http://www.w3.org/2001/XMLSchema#integer"
	XSDDecimal = "http://www.w3.org/2001/XMLSchema#decimal"
	XSDDouble  = "http://www.w3.org/2001/XMLSchema#double"
	XSDBoolean = "http://www.w3.org/2001/XMLSchema#boolean"
	XSDDate    = "http://www.w3.org/2001/XMLSchema#date"
)

// Well-known vocabulary IRIs used throughout MDM.
const (
	RDFType        = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
	RDFSSubClassOf = "http://www.w3.org/2000/01/rdf-schema#subClassOf"
	RDFSLabel      = "http://www.w3.org/2000/01/rdf-schema#label"
	RDFSDomain     = "http://www.w3.org/2000/01/rdf-schema#domain"
	RDFSRange      = "http://www.w3.org/2000/01/rdf-schema#range"
	OWLSameAs      = "http://www.w3.org/2002/07/owl#sameAs"
)

// Term is an RDF term: an IRI, a literal (optionally typed or
// language-tagged) or a blank node. Term is a comparable value type so it
// can be used directly as a map key; all store indexes rely on that.
//
// The zero Term is invalid and is treated as "unset" by helpers.
type Term struct {
	// Kind discriminates the interpretation of the remaining fields.
	Kind TermKind
	// Value holds the IRI string, the literal lexical form, or the
	// blank-node label depending on Kind.
	Value string
	// Datatype is the datatype IRI for typed literals ("" for plain).
	Datatype string
	// Lang is the language tag for language-tagged literals.
	Lang string
}

// Any is the wildcard pattern term: it matches every term in Graph.Match.
var Any = Term{Kind: KindAny}

// IRI returns an IRI term.
func IRI(iri string) Term { return Term{Kind: KindIRI, Value: iri} }

// Lit returns a plain (xsd:string) literal term.
func Lit(lexical string) Term { return Term{Kind: KindLiteral, Value: lexical} }

// TypedLit returns a literal with an explicit datatype IRI.
func TypedLit(lexical, datatype string) Term {
	return Term{Kind: KindLiteral, Value: lexical, Datatype: datatype}
}

// LangLit returns a language-tagged literal.
func LangLit(lexical, lang string) Term {
	return Term{Kind: KindLiteral, Value: lexical, Lang: lang}
}

// IntLit returns an xsd:integer literal.
func IntLit(v int64) Term { return TypedLit(strconv.FormatInt(v, 10), XSDInteger) }

// FloatLit returns an xsd:double literal.
func FloatLit(v float64) Term {
	return TypedLit(strconv.FormatFloat(v, 'g', -1, 64), XSDDouble)
}

// BoolLit returns an xsd:boolean literal.
func BoolLit(v bool) Term { return TypedLit(strconv.FormatBool(v), XSDBoolean) }

// Blank returns a blank-node term with the given label.
func Blank(label string) Term { return Term{Kind: KindBlank, Value: label} }

// IsIRI reports whether the term is an IRI.
func (t Term) IsIRI() bool { return t.Kind == KindIRI }

// IsLiteral reports whether the term is a literal.
func (t Term) IsLiteral() bool { return t.Kind == KindLiteral }

// IsBlank reports whether the term is a blank node.
func (t Term) IsBlank() bool { return t.Kind == KindBlank }

// IsAny reports whether the term is the wildcard pattern.
func (t Term) IsAny() bool { return t.Kind == KindAny }

// IsZero reports whether the term is the zero value (unset).
func (t Term) IsZero() bool { return t == Term{} }

// Int parses the literal as an integer. It returns an error for
// non-literals or non-numeric lexical forms.
func (t Term) Int() (int64, error) {
	if t.Kind != KindLiteral {
		return 0, fmt.Errorf("rdf: Int on non-literal %s", t)
	}
	return strconv.ParseInt(t.Value, 10, 64)
}

// Float parses the literal as a float64.
func (t Term) Float() (float64, error) {
	if t.Kind != KindLiteral {
		return 0, fmt.Errorf("rdf: Float on non-literal %s", t)
	}
	return strconv.ParseFloat(t.Value, 64)
}

// Bool parses the literal as a boolean.
func (t Term) Bool() (bool, error) {
	if t.Kind != KindLiteral {
		return false, fmt.Errorf("rdf: Bool on non-literal %s", t)
	}
	return strconv.ParseBool(t.Value)
}

// String renders the term in N-Triples-like syntax, e.g.
// <http://ex.org/a>, "abc", "5"^^<...integer>, _:b1, escaped as the
// SPARQL and TriG reader reads it back (see syntax.go).
func (t Term) String() string {
	switch t.Kind {
	case KindIRI:
		return writeIRI(t.Value)
	case KindBlank:
		return "_:" + t.Value
	case KindAny:
		return "?"
	case KindLiteral:
		q := quote(t.Value)
		switch {
		case t.Lang != "":
			return q + "@" + t.Lang
		case t.Datatype != "" && t.Datatype != XSDString && iriNeedsEscape(t.Datatype):
			return q + "^^" + writeIRI(t.Datatype)
		case t.Datatype != "" && t.Datatype != XSDString:
			return q + "^^<" + t.Datatype + ">"
		default:
			return q
		}
	}
	return "<invalid>"
}

// LocalName returns the fragment or final path segment of an IRI term,
// e.g. LocalName of <http://schema.org/SportsTeam> is "SportsTeam". For
// non-IRI terms it returns the lexical value.
func (t Term) LocalName() string {
	if t.Kind != KindIRI {
		return t.Value
	}
	v := t.Value
	if i := strings.LastIndexAny(v, "#/"); i >= 0 && i+1 < len(v) {
		return v[i+1:]
	}
	return v
}

// Namespace returns the IRI up to and including the last '#' or '/'.
func (t Term) Namespace() string {
	if t.Kind != KindIRI {
		return ""
	}
	v := t.Value
	if i := strings.LastIndexAny(v, "#/"); i >= 0 {
		return v[:i+1]
	}
	return ""
}

// Compare orders terms: IRIs < blanks < literals, then lexically by
// value, datatype and language. It gives Match results and serializations
// a stable order.
func Compare(a, b Term) int {
	ka, kb := termOrder(a.Kind), termOrder(b.Kind)
	if ka != kb {
		if ka < kb {
			return -1
		}
		return 1
	}
	if c := strings.Compare(a.Value, b.Value); c != 0 {
		return c
	}
	if c := strings.Compare(a.Datatype, b.Datatype); c != 0 {
		return c
	}
	return strings.Compare(a.Lang, b.Lang)
}

func termOrder(k TermKind) int {
	switch k {
	case KindIRI:
		return 0
	case KindBlank:
		return 1
	case KindLiteral:
		return 2
	}
	return 3
}

// Triple is an RDF statement.
type Triple struct {
	S, P, O Term
}

// T is shorthand for constructing a triple.
func T(s, p, o Term) Triple { return Triple{S: s, P: p, O: o} }

// String renders the triple in N-Triples style (without trailing dot).
func (t Triple) String() string {
	return t.S.String() + " " + t.P.String() + " " + t.O.String()
}

// Valid reports whether the triple can legally be stored: subject is IRI
// or blank, predicate is IRI, object is any concrete term.
func (t Triple) Valid() bool {
	if t.S.Kind != KindIRI && t.S.Kind != KindBlank {
		return false
	}
	if t.P.Kind != KindIRI {
		return false
	}
	switch t.O.Kind {
	case KindIRI, KindBlank, KindLiteral:
		return true
	}
	return false
}

// CompareTriples orders triples lexicographically by S, P, O.
func CompareTriples(a, b Triple) int {
	if c := Compare(a.S, b.S); c != 0 {
		return c
	}
	if c := Compare(a.P, b.P); c != 0 {
		return c
	}
	return Compare(a.O, b.O)
}

// SortTriples sorts a triple slice in place into CompareTriples order —
// the canonical order used by Match, serializations and renderings.
func SortTriples(ts []Triple) {
	sort.Slice(ts, func(i, j int) bool { return CompareTriples(ts[i], ts[j]) < 0 })
}

// Quad is a triple within a named graph. A zero Graph term denotes the
// default graph.
type Quad struct {
	Triple
	Graph Term
}

// Q is shorthand for constructing a quad.
func Q(s, p, o, g Term) Quad { return Quad{Triple: Triple{S: s, P: p, O: o}, Graph: g} }

// String renders the quad in N-Quads style (without trailing dot).
func (q Quad) String() string {
	if q.Graph.IsZero() {
		return q.Triple.String()
	}
	return q.Triple.String() + " " + q.Graph.String()
}
