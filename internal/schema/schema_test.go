package schema

import (
	"strings"
	"testing"
	"testing/quick"

	"mdm/internal/relalg"
)

// Figure 2 payloads from the paper.
const playersJSON = `{
  "id": 6176,
  "name": "Lionel Messi",
  "height": 170.18,
  "weight": 159,
  "rating": 94,
  "preferred_foot": "left",
  "team_id": 25
}`

const teamXML = `<team>
  <id>25</id>
  <name>FC Barcelona</name>
  <shortName>FCB</shortName>
</team>`

func TestFlattenJSONSingleObject(t *testing.T) {
	docs, err := FlattenJSON([]byte(playersJSON))
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 1 {
		t.Fatalf("docs = %d", len(docs))
	}
	d := docs[0]
	if d["id"] != relalg.Int(6176) {
		t.Errorf("id = %#v", d["id"])
	}
	if d["height"] != relalg.Float(170.18) {
		t.Errorf("height = %#v", d["height"])
	}
	if d["name"] != relalg.String("Lionel Messi") {
		t.Errorf("name = %#v", d["name"])
	}
}

func TestFlattenJSONArray(t *testing.T) {
	docs, err := FlattenJSON([]byte(`[{"a":1},{"a":2,"b":"x"}]`))
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 2 {
		t.Fatalf("docs = %d", len(docs))
	}
	if docs[1]["b"] != relalg.String("x") {
		t.Errorf("docs[1] = %v", docs[1])
	}
}

func TestFlattenJSONEnvelope(t *testing.T) {
	docs, err := FlattenJSON([]byte(`{"data":[{"a":1},{"a":2}],"paging":"next"}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 2 {
		t.Fatalf("envelope docs = %d", len(docs))
	}
}

func TestFlattenJSONNestedObject(t *testing.T) {
	docs, err := FlattenJSON([]byte(`{"id":1,"team":{"id":25,"name":"FCB"}}`))
	if err != nil {
		t.Fatal(err)
	}
	d := docs[0]
	if d["team_id"] != relalg.Int(25) || d["team_name"] != relalg.String("FCB") {
		t.Errorf("nested flattening = %v", d)
	}
}

func TestFlattenJSONDeepNesting(t *testing.T) {
	docs, err := FlattenJSON([]byte(`{"a":{"b":{"c":{"d":7}}}}`))
	if err != nil {
		t.Fatal(err)
	}
	if docs[0]["a_b_c_d"] != relalg.Int(7) {
		t.Errorf("deep = %v", docs[0])
	}
}

func TestFlattenJSONNullAndBool(t *testing.T) {
	docs, err := FlattenJSON([]byte(`{"a":null,"b":true}`))
	if err != nil {
		t.Fatal(err)
	}
	if !docs[0]["a"].IsNull() || docs[0]["b"] != relalg.Bool(true) {
		t.Errorf("null/bool = %v", docs[0])
	}
}

func TestFlattenJSONErrors(t *testing.T) {
	cases := []struct{ name, src string }{
		{"nested array", `{"a":[1,2,3]}`},
		{"scalar top", `42`},
		{"string top", `"x"`},
		{"array of scalars", `[1,2]`},
		{"invalid json", `{"a":`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := FlattenJSON([]byte(c.src)); err == nil {
				t.Errorf("no error for %q", c.src)
			}
		})
	}
	// 1NF violation must mention it.
	_, err := FlattenJSON([]byte(`{"a":[1]}`))
	if err == nil || !strings.Contains(err.Error(), "1NF") {
		t.Errorf("nested array error = %v", err)
	}
}

func TestFlattenXMLSingleRecord(t *testing.T) {
	docs, err := FlattenXML([]byte(teamXML))
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 1 {
		t.Fatalf("docs = %d", len(docs))
	}
	d := docs[0]
	if d["id"] != relalg.Int(25) {
		t.Errorf("id = %#v", d["id"])
	}
	if d["name"] != relalg.String("FC Barcelona") || d["shortName"] != relalg.String("FCB") {
		t.Errorf("doc = %v", d)
	}
}

func TestFlattenXMLRecordList(t *testing.T) {
	src := `<teams>
  <team><id>25</id><name>FC Barcelona</name></team>
  <team><id>27</id><name>Bayern Munich</name></team>
</teams>`
	docs, err := FlattenXML([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 2 {
		t.Fatalf("docs = %d", len(docs))
	}
	if docs[1]["name"] != relalg.String("Bayern Munich") {
		t.Errorf("docs[1] = %v", docs[1])
	}
}

func TestFlattenXMLNestedAndAttributes(t *testing.T) {
	src := `<players>
  <player code="A1"><id>1</id><team><id>25</id></team></player>
  <player code="B2"><id>2</id><team><id>31</id></team></player>
</players>`
	docs, err := FlattenXML([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	if docs[0]["code"] != relalg.String("A1") {
		t.Errorf("attr = %v", docs[0])
	}
	if docs[0]["team_id"] != relalg.Int(25) {
		t.Errorf("nested = %v", docs[0])
	}
}

func TestFlattenXMLErrors(t *testing.T) {
	if _, err := FlattenXML([]byte(`<a><b>1</b><b>2</b></a>`)); err == nil {
		// repeated scalar children of a record-less root: this parses as
		// records only if they have children; here they are leaves, so
		// the root is one record with repeated b = 1NF violation.
		t.Error("repeated leaf elements should be a 1NF violation")
	}
	if _, err := FlattenXML([]byte(`<a><b>`)); err == nil {
		t.Error("unterminated XML accepted")
	}
	if _, err := FlattenXML([]byte(``)); err == nil {
		t.Error("empty XML accepted")
	}
}

func TestFlattenCSV(t *testing.T) {
	src := "id,name,height\n1,Messi,170.18\n2,Zlatan,195\n"
	docs, err := FlattenCSV([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 2 {
		t.Fatalf("docs = %d", len(docs))
	}
	if docs[0]["height"] != relalg.Float(170.18) || docs[1]["height"] != relalg.Int(195) {
		t.Errorf("types = %v / %v", docs[0], docs[1])
	}
	if _, err := FlattenCSV([]byte("")); err == nil {
		t.Error("empty CSV accepted")
	}
	if _, err := FlattenCSV([]byte("a,b\n1,2,3,4\n\"")); err == nil {
		t.Error("ragged+invalid CSV accepted")
	}
}

func TestInferTypesAndWidening(t *testing.T) {
	docs := []Doc{
		{"a": relalg.Int(1), "b": relalg.String("x"), "c": relalg.Int(1)},
		{"a": relalg.Float(2.5), "b": relalg.String("y"), "d": relalg.Bool(true)},
		{"a": relalg.Int(3), "c": relalg.String("oops")},
	}
	attrs := Infer(docs)
	byName := map[string]relalg.Type{}
	for _, a := range attrs {
		byName[a.Name] = a.Type
	}
	if byName["a"] != relalg.TypeFloat {
		t.Errorf("a widened to %v, want float", byName["a"])
	}
	if byName["b"] != relalg.TypeString || byName["d"] != relalg.TypeBool {
		t.Errorf("types = %v", byName)
	}
	if byName["c"] != relalg.TypeString {
		t.Errorf("int+string should widen to string, got %v", byName["c"])
	}
	// Sorted order.
	for i := 1; i < len(attrs); i++ {
		if attrs[i-1].Name >= attrs[i].Name {
			t.Errorf("attributes not sorted: %v", attrs)
		}
	}
}

func TestInferNullWidening(t *testing.T) {
	docs := []Doc{
		{"a": relalg.Null()},
		{"a": relalg.Int(5)},
	}
	attrs := Infer(docs)
	if attrs[0].Type != relalg.TypeInt {
		t.Errorf("null+int = %v, want int", attrs[0].Type)
	}
}

func TestToRelationMissingBecomesNull(t *testing.T) {
	docs := []Doc{
		{"a": relalg.Int(1), "b": relalg.String("x")},
		{"a": relalg.Int(2)},
	}
	attrs := Infer(docs)
	rel := ToRelation(docs, attrs, nil)
	if rel.Len() != 2 || len(rel.Cols) != 2 {
		t.Fatalf("rel = %dx%d", rel.Len(), len(rel.Cols))
	}
	bi := rel.ColIndex("b")
	if !rel.Rows[1][bi].IsNull() {
		t.Errorf("missing field = %#v, want NULL", rel.Rows[1][bi])
	}
}

func TestExtractSignatureEndToEnd(t *testing.T) {
	sig, docs, err := ExtractSignature("w1", FormatJSON, []byte(playersJSON))
	if err != nil {
		t.Fatal(err)
	}
	if sig.Wrapper != "w1" || len(sig.Attributes) != 7 {
		t.Fatalf("sig = %s", sig)
	}
	str := sig.String()
	if !strings.HasPrefix(str, "w1(") || !strings.Contains(str, "preferred_foot") {
		t.Errorf("signature rendering = %s", str)
	}
	if len(docs) != 1 {
		t.Errorf("docs = %d", len(docs))
	}
}

func TestDetectFormat(t *testing.T) {
	cases := []struct {
		ct, body string
		want     Format
	}{
		{"application/json", `{}`, FormatJSON},
		{"text/xml", `<a/>`, FormatXML},
		{"text/csv", "a,b", FormatCSV},
		{"", `  {"a":1}`, FormatJSON},
		{"", `[1]`, FormatJSON},
		{"", `<team/>`, FormatXML},
		{"", "a,b\n1,2", FormatCSV},
	}
	for _, c := range cases {
		if got := DetectFormat(c.ct, []byte(c.body)); got != c.want {
			t.Errorf("DetectFormat(%q, %q) = %v, want %v", c.ct, c.body, got, c.want)
		}
	}
}

func TestFlattenDispatchAndUnknownFormat(t *testing.T) {
	if _, err := Flatten(FormatJSON, []byte(`{"a":1}`)); err != nil {
		t.Error(err)
	}
	if _, err := Flatten(Format("yaml"), []byte(`a: 1`)); err == nil {
		t.Error("unknown format accepted")
	}
}

func TestPropInferToRelationArity(t *testing.T) {
	// For any set of docs built from string keys/int values, ToRelation
	// rows always match the inferred attribute count.
	f := func(keys []string, vals []int64) bool {
		doc := Doc{}
		for i, k := range keys {
			if k == "" {
				continue
			}
			v := int64(0)
			if i < len(vals) {
				v = vals[i]
			}
			doc[k] = relalg.Int(v)
		}
		docs := []Doc{doc}
		attrs := Infer(docs)
		rel := ToRelation(docs, attrs, nil)
		if len(rel.Cols) != len(attrs) {
			return false
		}
		for _, row := range rel.Rows {
			if len(row) != len(attrs) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
