package rdf

import (
	"errors"
	"fmt"
	"sort"
	"strings"
)

// RDF text syntax. This package writes terms (Term.String,
// PrefixMap.Compact, WriteDataset) and package sparql reads them (its
// lexer is the one reader of SPARQL and TriG text). The rules both sides
// must agree on live here, and the writer emits only forms the reader
// reads back as the identical term.

// ErrPrefixLabel is returned for a prefix label that would not read back
// as a prefix name.
var ErrPrefixLabel = errors.New("rdf: prefix label does not read back as a prefix name")

// IsNameByte reports whether c continues a prefixed name, a blank-node
// label or a variable name. Every byte of a multi-byte UTF-8 sequence
// (and every other byte >= 0x80) is a name byte.
func IsNameByte(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' ||
		c == '_' || c == '-' || c == '.' || c >= 0x80
}

// OpensComparison reports whether '<' followed by c is read as a
// comparison operator rather than as the start of an IRI: an IRI never
// starts with whitespace, '=', a variable marker, a quote, a digit or a
// sign, so the writer escapes such a first byte.
func OpensComparison(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '=' || c == '?' || c == '$' ||
		c == '"' || c >= '0' && c <= '9' || c == '-' || c == '+'
}

// CheckPrefixLabel returns ErrPrefixLabel unless label reads back as a
// prefix name: name bytes only, not starting with a byte that opens a
// number or a dot, and not "_", which opens a blank-node label.
func CheckPrefixLabel(label string) error {
	for i := 0; i < len(label); i++ {
		c := label[i]
		if !IsNameByte(c) || i == 0 && (c == '.' || c == '-' || c >= '0' && c <= '9') || label == "_" {
			return fmt.Errorf("%w: %q", ErrPrefixLabel, label)
		}
	}
	return nil
}

// readsAsLocal reports whether a CURIE's local part reads back as itself:
// name bytes and colons, not ending in '.', which reads as a terminator.
func readsAsLocal(local string) bool {
	if local == "" || local[len(local)-1] == '.' {
		return false
	}
	for i := 0; i < len(local); i++ {
		if c := local[i]; !IsNameByte(c) && c != ':' {
			return false
		}
	}
	return true
}

// iriEscapes reports whether byte c at index i of an IRI is written as
// \u00XX: '>', '\', a control character, or a first byte that would
// make '<' a comparison operator.
func iriEscapes(i int, c byte) bool {
	return c == '>' || c == '\\' || c < 0x20 || c == 0x7f || i == 0 && OpensComparison(c)
}

func iriNeedsEscape(v string) bool {
	for i := 0; i < len(v); i++ {
		if iriEscapes(i, v[i]) {
			return true
		}
	}
	return false
}

const hexDigits = "0123456789ABCDEF"

// appendUCHAR appends the \u00XX escape of one byte.
func appendUCHAR(b []byte, c byte) []byte {
	return append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
}

// writeIRI renders an IRI reference, escaping the bytes iriEscapes names.
func writeIRI(v string) string {
	if !iriNeedsEscape(v) {
		return "<" + v + ">"
	}
	b := []byte{'<'}
	for i := 0; i < len(v); i++ {
		if iriEscapes(i, v[i]) {
			b = appendUCHAR(b, v[i])
		} else {
			b = append(b, v[i])
		}
	}
	return string(append(b, '>'))
}

// quote renders a string literal's quoted form: '"' and '\' and the
// control characters that have one are written as an ECHAR, every other
// control character as \u00XX, and every other byte as itself (invalid
// UTF-8 included). The buffer is sized and grown as strconv.Quote's is.
func quote(s string) string {
	b := make([]byte, 0, 3*len(s)/2)
	b = append(b, '"')
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '"', '\\':
			b = append(b, '\\', c)
		case '\t':
			b = append(b, '\\', 't')
		case '\b':
			b = append(b, '\\', 'b')
		case '\n':
			b = append(b, '\\', 'n')
		case '\r':
			b = append(b, '\\', 'r')
		case '\f':
			b = append(b, '\\', 'f')
		default:
			if c < 0x20 || c == 0x7f {
				b = appendUCHAR(b, c)
			} else {
				b = append(b, c)
			}
		}
	}
	return string(append(b, '"'))
}

// WriteDataset serializes a dataset as TriG: the prefix bindings, the
// default graph at top level, then one block per named graph in name
// order, each graph's triples grouped by subject in Compare order. Every
// term is written in a form package sparql's ParseTriG reads back as the
// same term; a binding whose label would not read back is left out, and
// Compact never uses it.
func WriteDataset(ds *Dataset) string {
	pm := ds.Prefixes()
	var sb strings.Builder
	for _, pair := range pm.Pairs() {
		if CheckPrefixLabel(pair[0]) == nil {
			fmt.Fprintf(&sb, "@prefix %s: %s .\n", pair[0], writeIRI(pair[1]))
		}
	}
	sb.WriteString("\n")
	writeGraphBody(&sb, ds.Default(), pm, "")
	for _, name := range ds.GraphNames() {
		g, _ := ds.Lookup(name)
		fmt.Fprintf(&sb, "%s {\n", pm.CompactTerm(name))
		writeGraphBody(&sb, g, pm, "    ")
		sb.WriteString("}\n")
	}
	return sb.String()
}

func writeGraphBody(sb *strings.Builder, g *Graph, pm *PrefixMap, indent string) {
	bySubject := map[Term][]Triple{}
	var order []Term
	for _, t := range g.Triples() {
		if _, ok := bySubject[t.S]; !ok {
			order = append(order, t.S)
		}
		bySubject[t.S] = append(bySubject[t.S], t)
	}
	sort.Slice(order, func(i, j int) bool { return Compare(order[i], order[j]) < 0 })
	for _, s := range order {
		fmt.Fprintf(sb, "%s%s ", indent, pm.CompactTerm(s))
		for i, t := range bySubject[s] {
			pred := pm.CompactTerm(t.P)
			if t.P.Value == RDFType {
				pred = "a"
			}
			if i > 0 {
				fmt.Fprintf(sb, " ;\n%s    ", indent)
			}
			fmt.Fprintf(sb, "%s %s", pred, pm.CompactTerm(t.O))
		}
		sb.WriteString(" .\n")
	}
}
