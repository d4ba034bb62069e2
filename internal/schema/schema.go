// Package schema extracts flat, first-normal-form schemas from the raw
// payloads that data sources deliver (JSON, XML, CSV), producing wrapper
// signatures of the form w(a1, ..., an) as assumed by the paper (§2.2:
// "we work under the assumption that wrappers provide a flat structure
// in first normal form").
//
// Nested JSON/XML objects are flattened into underscore-separated paths
// (team.id -> team_id); arrays of records at the top level become rows;
// nested arrays violate 1NF and are reported as errors so the data
// steward can adjust the wrapper query instead of silently losing data.
package schema

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"encoding/xml"
	"fmt"
	"io"
	"sort"
	"strings"

	"mdm/internal/relalg"
)

// Attribute is one column of a wrapper signature.
type Attribute struct {
	// Name is the flattened attribute name.
	Name string
	// Type is the inferred scalar type.
	Type relalg.Type
}

// Signature is a wrapper signature w(a1..an).
type Signature struct {
	// Wrapper is the wrapper name (w1, w2, ...).
	Wrapper string
	// Attributes lists the columns in a stable order.
	Attributes []Attribute
}

// AttributeNames returns just the names, in order.
func (s Signature) AttributeNames() []string {
	out := make([]string, len(s.Attributes))
	for i, a := range s.Attributes {
		out[i] = a.Name
	}
	return out
}

// String renders the signature in the paper's notation.
func (s Signature) String() string {
	return fmt.Sprintf("%s(%s)", s.Wrapper, strings.Join(s.AttributeNames(), ", "))
}

// Doc is one flattened record: attribute name -> scalar value.
type Doc map[string]relalg.Value

// FlattenJSON parses a JSON payload into flat documents. Accepted
// shapes: a single object, an array of objects, or an object containing
// exactly one array of objects (the common {"data": [...]} envelope).
// Nested objects are flattened with '_'; arrays nested inside records
// are rejected as 1NF violations.
func FlattenJSON(data []byte) ([]Doc, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	var raw any
	if err := dec.Decode(&raw); err != nil {
		return nil, fmt.Errorf("schema: invalid JSON: %w", err)
	}
	switch v := raw.(type) {
	case []any:
		return jsonArrayToDocs(v)
	case map[string]any:
		// Envelope detection: exactly one key whose value is an array.
		if arr, ok := singleArrayEnvelope(v); ok {
			return jsonArrayToDocs(arr)
		}
		doc, err := flattenJSONObject("", v)
		if err != nil {
			return nil, err
		}
		return []Doc{doc}, nil
	default:
		return nil, fmt.Errorf("schema: top-level JSON must be an object or array, got %T", raw)
	}
}

func singleArrayEnvelope(obj map[string]any) ([]any, bool) {
	var arr []any
	n := 0
	for _, v := range obj {
		if a, ok := v.([]any); ok {
			arr = a
			n++
		}
	}
	if n != 1 || len(obj) > 2 { // tolerate one metadata sibling (paging etc.)
		return nil, false
	}
	// Only arrays of records are envelopes; an array of scalars is a
	// nested field and must be reported as a 1NF violation downstream.
	if len(arr) > 0 {
		if _, ok := arr[0].(map[string]any); !ok {
			return nil, false
		}
	}
	return arr, true
}

func jsonArrayToDocs(arr []any) ([]Doc, error) {
	docs := make([]Doc, 0, len(arr))
	for i, el := range arr {
		obj, ok := el.(map[string]any)
		if !ok {
			return nil, fmt.Errorf("schema: array element %d is %T, want object", i, el)
		}
		doc, err := flattenJSONObject("", obj)
		if err != nil {
			return nil, fmt.Errorf("schema: element %d: %w", i, err)
		}
		docs = append(docs, doc)
	}
	return docs, nil
}

func flattenJSONObject(prefix string, obj map[string]any) (Doc, error) {
	doc := Doc{}
	for k, v := range obj {
		name := k
		if prefix != "" {
			name = prefix + "_" + k
		}
		switch vv := v.(type) {
		case map[string]any:
			sub, err := flattenJSONObject(name, vv)
			if err != nil {
				return nil, err
			}
			for sk, sv := range sub {
				doc[sk] = sv
			}
		case []any:
			return nil, fmt.Errorf("nested array at %q violates the 1NF wrapper assumption", name)
		case nil:
			doc[name] = relalg.Null()
		case json.Number:
			doc[name] = numberValue(vv)
		case string:
			doc[name] = relalg.String(vv)
		case bool:
			doc[name] = relalg.Bool(vv)
		default:
			return nil, fmt.Errorf("unsupported JSON value %T at %q", v, name)
		}
	}
	return doc, nil
}

func numberValue(n json.Number) relalg.Value {
	if i, err := n.Int64(); err == nil && !strings.ContainsAny(n.String(), ".eE") {
		return relalg.Int(i)
	}
	f, err := n.Float64()
	if err != nil {
		return relalg.String(n.String())
	}
	return relalg.Float(f)
}

// FlattenXML parses an XML payload into flat documents. The expected
// shape is a root element containing repeated record elements (e.g.
// <teams><team>...</team><team>...</team></teams>), or a single record
// element (<team>...</team>). Leaf element text becomes values with
// inferred types; nested elements flatten with '_'; XML attributes
// become fields named after the attribute.
func FlattenXML(data []byte) ([]Doc, error) {
	root, err := parseXMLTree(data)
	if err != nil {
		return nil, err
	}
	if root == nil {
		return nil, fmt.Errorf("schema: empty XML document")
	}
	// If the root has repeated child elements of the same name, treat
	// each child as a record. Otherwise the root itself is one record.
	if recs := recordChildren(root); recs != nil {
		docs := make([]Doc, 0, len(recs))
		for i, rec := range recs {
			doc := Doc{}
			if err := flattenXMLNode(rec, "", doc); err != nil {
				return nil, fmt.Errorf("schema: record %d: %w", i, err)
			}
			docs = append(docs, doc)
		}
		return docs, nil
	}
	doc := Doc{}
	if err := flattenXMLNode(root, "", doc); err != nil {
		return nil, err
	}
	return []Doc{doc}, nil
}

// xmlNode is a minimal DOM for flattening.
type xmlNode struct {
	name     string
	attrs    []xml.Attr
	children []*xmlNode
	text     string
}

func parseXMLTree(data []byte) (*xmlNode, error) {
	dec := xml.NewDecoder(bytes.NewReader(data))
	var stack []*xmlNode
	var root *xmlNode
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("schema: invalid XML: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			n := &xmlNode{name: t.Name.Local, attrs: t.Attr}
			if len(stack) == 0 {
				if root != nil {
					return nil, fmt.Errorf("schema: multiple XML roots")
				}
				root = n
			} else {
				parent := stack[len(stack)-1]
				parent.children = append(parent.children, n)
			}
			stack = append(stack, n)
		case xml.EndElement:
			if len(stack) == 0 {
				return nil, fmt.Errorf("schema: unbalanced XML")
			}
			stack = stack[:len(stack)-1]
		case xml.CharData:
			if len(stack) > 0 {
				stack[len(stack)-1].text += string(t)
			}
		}
	}
	if len(stack) != 0 {
		return nil, fmt.Errorf("schema: unterminated XML element <%s>", stack[len(stack)-1].name)
	}
	return root, nil
}

// recordChildren returns the root's children when they form a homogeneous
// repeated-record list (all element children sharing one name, length>=1
// and root has no scalar text of its own). A single child also counts
// when the root carries no attributes, covering one-record pages.
func recordChildren(root *xmlNode) []*xmlNode {
	if len(root.children) == 0 {
		return nil
	}
	name := root.children[0].name
	for _, c := range root.children {
		if c.name != name {
			return nil
		}
	}
	// Records are containers: they must have children of their own.
	for _, c := range root.children {
		if len(c.children) == 0 {
			return nil
		}
	}
	return root.children
}

func flattenXMLNode(n *xmlNode, prefix string, doc Doc) error {
	for _, a := range n.attrs {
		name := a.Name.Local
		if prefix != "" {
			name = prefix + "_" + name
		}
		doc[name] = relalg.Infer(a.Value)
	}
	seen := map[string]int{}
	for _, c := range n.children {
		seen[c.name]++
	}
	for name, count := range seen {
		if count > 1 {
			full := name
			if prefix != "" {
				full = prefix + "_" + name
			}
			return fmt.Errorf("repeated element %q violates the 1NF wrapper assumption", full)
		}
	}
	for _, c := range n.children {
		name := c.name
		if prefix != "" {
			name = prefix + "_" + name
		}
		if len(c.children) > 0 {
			if err := flattenXMLNode(c, name, doc); err != nil {
				return err
			}
			continue
		}
		doc[name] = relalg.Infer(strings.TrimSpace(c.text))
		// Attributes of leaf elements are still fields.
		for _, a := range c.attrs {
			doc[name+"_"+a.Name.Local] = relalg.Infer(a.Value)
		}
	}
	return nil
}

// FlattenCSV parses CSV with a header row into flat documents with
// inferred types.
func FlattenCSV(data []byte) ([]Doc, error) {
	r := csv.NewReader(bytes.NewReader(data))
	r.TrimLeadingSpace = true
	records, err := r.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("schema: invalid CSV: %w", err)
	}
	if len(records) == 0 {
		return nil, fmt.Errorf("schema: empty CSV (missing header)")
	}
	header := records[0]
	docs := make([]Doc, 0, len(records)-1)
	for _, rec := range records[1:] {
		doc := Doc{}
		for i, cell := range rec {
			if i < len(header) {
				doc[header[i]] = relalg.Infer(cell)
			}
		}
		docs = append(docs, doc)
	}
	return docs, nil
}

// Infer computes the attribute list of a document set: the union of all
// keys in stable (sorted) order with widened types. Missing keys do not
// affect an attribute's type; conflicting types widen (int+float ->
// float, anything else -> string).
func Infer(docs []Doc) []Attribute {
	types := map[string]relalg.Type{}
	for _, d := range docs {
		for k, v := range d {
			cur, seen := types[k]
			if !seen {
				types[k] = v.T
				continue
			}
			types[k] = widen(cur, v.T)
		}
	}
	names := make([]string, 0, len(types))
	for k := range types {
		names = append(names, k)
	}
	sort.Strings(names)
	attrs := make([]Attribute, len(names))
	for i, n := range names {
		attrs[i] = Attribute{Name: n, Type: types[n]}
	}
	return attrs
}

func widen(a, b relalg.Type) relalg.Type {
	if a == b {
		return a
	}
	if a == relalg.TypeNull {
		return b
	}
	if b == relalg.TypeNull {
		return a
	}
	num := func(t relalg.Type) bool { return t == relalg.TypeInt || t == relalg.TypeFloat }
	if num(a) && num(b) {
		return relalg.TypeFloat
	}
	return relalg.TypeString
}

// ToRelation converts documents to a relation over the given attributes.
// Missing fields become NULL. keys serves a payload whose field names
// differ from the attribute names: attribute a is read from field
// keys[a.Name] where keys has an entry, and from field a.Name where it
// has none (nil: every attribute under its own name). The rows are cut
// from one slab (two allocations per relation, not one per document),
// each capped at its own width so appending to a row cannot reach its
// neighbour.
func ToRelation(docs []Doc, attrs []Attribute, keys map[string]string) *relalg.Relation {
	rel := &relalg.Relation{Cols: attributeNames(attrs)}
	fields := rel.Cols
	if len(keys) > 0 {
		fields = make([]string, len(attrs))
		for i, c := range rel.Cols {
			fields[i] = c
			if k, ok := keys[c]; ok {
				fields[i] = k
			}
		}
	}
	w := len(attrs)
	slab := make([]relalg.Value, len(docs)*w) // zero Value = NULL
	rel.Rows = make([]relalg.Row, len(docs))
	for r, d := range docs {
		row := slab[r*w : (r+1)*w : (r+1)*w]
		for i, f := range fields {
			if v, ok := d[f]; ok {
				row[i] = v
			}
		}
		rel.Rows[r] = row
	}
	return rel
}

func attributeNames(attrs []Attribute) []string {
	out := make([]string, len(attrs))
	for i, a := range attrs {
		out[i] = a.Name
	}
	return out
}

// Format enumerates supported payload formats.
type Format string

// Supported payload formats.
const (
	FormatJSON Format = "json"
	FormatXML  Format = "xml"
	FormatCSV  Format = "csv"
)

// Flatten dispatches on format.
func Flatten(format Format, data []byte) ([]Doc, error) {
	switch format {
	case FormatJSON:
		return FlattenJSON(data)
	case FormatXML:
		return FlattenXML(data)
	case FormatCSV:
		return FlattenCSV(data)
	default:
		return nil, fmt.Errorf("schema: unsupported format %q", format)
	}
}

// DetectFormat guesses the payload format from its leading bytes and an
// optional Content-Type hint.
func DetectFormat(contentType string, data []byte) Format {
	ct := strings.ToLower(contentType)
	switch {
	case strings.Contains(ct, "json"):
		return FormatJSON
	case strings.Contains(ct, "xml"):
		return FormatXML
	case strings.Contains(ct, "csv"):
		return FormatCSV
	}
	trimmed := bytes.TrimLeft(data, " \t\r\n")
	switch {
	case len(trimmed) > 0 && (trimmed[0] == '{' || trimmed[0] == '['):
		return FormatJSON
	case len(trimmed) > 0 && trimmed[0] == '<':
		return FormatXML
	default:
		return FormatCSV
	}
}

// ExtractSignature is the end-to-end helper used at wrapper registration
// time (paper §2.2): flatten a sample payload and infer the signature.
func ExtractSignature(wrapper string, format Format, sample []byte) (Signature, []Doc, error) {
	docs, err := Flatten(format, sample)
	if err != nil {
		return Signature{}, nil, err
	}
	return Signature{Wrapper: wrapper, Attributes: Infer(docs)}, docs, nil
}
