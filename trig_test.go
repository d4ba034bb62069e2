package mdm_test

import (
	"errors"
	"reflect"
	"testing"

	"mdm"
	"mdm/internal/rdf"
)

// exportReadsBack asserts that sys's TriG export imports to the same
// quads and exports to the same document again.
func exportReadsBack(t *testing.T, sys *mdm.System) {
	t.Helper()
	doc := sys.ExportTriG()
	back, err := mdm.ImportTriG(doc)
	if err != nil {
		t.Fatalf("export does not read back: %v\n%s", err, doc)
	}
	if got, want := back.Ontology().Dataset().Quads(), sys.Ontology().Dataset().Quads(); !reflect.DeepEqual(got, want) {
		t.Errorf("reimported quads\n%v\nexported\n%v", got, want)
	}
	if again := back.ExportTriG(); again != doc {
		t.Errorf("re-export differs:\n%s\nfirst export:\n%s", again, doc)
	}
}

// TestTriGExportReadsBackControlLabels: a label holding a control
// character is written as an escape the reader knows.
func TestTriGExportReadsBackControlLabels(t *testing.T) {
	for _, label := range []string{"bell\a", "ctl\x01", "form\f", "nul\x00", "del\x7f", "tab\tcr\r"} {
		sys := mdm.New()
		if err := sys.BindPrefix("ex", "http://ex.org/"); err != nil {
			t.Fatal(err)
		}
		if err := sys.AddConcept("ex:C", label); err != nil {
			t.Fatal(err)
		}
		exportReadsBack(t, sys)
	}
}

// TestTriGExportReadsBackOddIRIs: under a bound prefix, an IRI whose
// local part would not read back as a prefixed name is written whole.
func TestTriGExportReadsBackOddIRIs(t *testing.T) {
	for _, local := range []string{"a,b", "a(b)", "a~b", "a%20b", "a.", "a b", "a;b", "a>b", `a\b`} {
		sys := mdm.New()
		if err := sys.BindPrefix("ex", "http://ex.org/"); err != nil {
			t.Fatal(err)
		}
		if err := sys.AddConcept("http://ex.org/"+local, "odd"); err != nil {
			t.Fatal(err)
		}
		exportReadsBack(t, sys)
	}
}

// TestBindPrefixRefusesUnreadableLabel: a label that would not read back
// as a prefix name is refused, so no export or walk SPARQL compacts a
// term with it.
func TestBindPrefixRefusesUnreadableLabel(t *testing.T) {
	sys := mdm.New()
	for _, label := range []string{"a b", "1a", "-a", ".a", "a:b", "_", "a/b"} {
		if err := sys.BindPrefix(label, "http://ex.org/"); !errors.Is(err, rdf.ErrPrefixLabel) {
			t.Errorf("BindPrefix(%q) = %v, want ErrPrefixLabel", label, err)
		}
	}
	if err := sys.AddConcept("http://ex.org/a", "a"); err != nil {
		t.Fatal(err)
	}
	exportReadsBack(t, sys)
}
