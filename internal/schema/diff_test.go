package schema_test

import (
	"strings"
	"testing"

	"mdm/internal/relalg"
	"mdm/internal/schema"
)

func sig(w string, attrs ...string) schema.Signature {
	s := schema.Signature{Wrapper: w}
	for _, a := range attrs {
		typ := relalg.TypeString
		if strings.HasSuffix(a, "#i") {
			a = strings.TrimSuffix(a, "#i")
			typ = relalg.TypeInt
		}
		s.Attributes = append(s.Attributes, schema.Attribute{Name: a, Type: typ})
	}
	return s
}

func TestDiffAddRemove(t *testing.T) {
	old := sig("w", "id#i", "name", "height")
	new := sig("w", "id#i", "name", "height", "position")
	changes := schema.Diff(old, new)
	if len(changes) != 1 || changes[0].Kind != schema.AttributeAdded || changes[0].Attribute != "position" {
		t.Fatalf("changes = %v", changes)
	}
	if schema.IsBreaking(changes) {
		t.Error("pure addition must be non-breaking")
	}

	changes = schema.Diff(new, old)
	if len(changes) != 1 || changes[0].Kind != schema.AttributeRemoved {
		t.Fatalf("changes = %v", changes)
	}
	if !schema.IsBreaking(changes) {
		t.Error("removal must be breaking")
	}
}

func TestDiffRenameHeuristic(t *testing.T) {
	old := sig("w", "id#i", "pName")
	new := sig("w", "id#i", "fullName")
	changes := schema.Diff(old, new)
	if len(changes) != 1 || changes[0].Kind != schema.AttributeRenamed {
		t.Fatalf("changes = %v", changes)
	}
	if changes[0].Attribute != "pName" || changes[0].NewName != "fullName" {
		t.Fatalf("rename = %v", changes[0])
	}
	if !changes[0].Breaking() {
		t.Error("rename must be breaking")
	}
	// Equally-similar same-type additions tie and must NOT be a rename.
	new2 := sig("w", "id#i", "xName", "yName")
	changes = schema.Diff(old, new2)
	var renames, removed, added int
	for _, c := range changes {
		switch c.Kind {
		case schema.AttributeRenamed:
			renames++
		case schema.AttributeRemoved:
			removed++
		case schema.AttributeAdded:
			added++
		}
	}
	if renames != 0 || removed != 1 || added != 2 {
		t.Errorf("ambiguous rename mis-paired: %v", changes)
	}
}

func TestDiffTypeChange(t *testing.T) {
	old := sig("w", "id#i", "height")
	new := sig("w", "id#i", "height#i")
	changes := schema.Diff(old, new)
	if len(changes) != 1 || changes[0].Kind != schema.TypeChanged {
		t.Fatalf("changes = %v", changes)
	}
	if changes[0].OldType != "string" || changes[0].NewType != "int" {
		t.Errorf("types = %v", changes[0])
	}
	if !schema.IsBreaking(changes) {
		t.Error("type change must be breaking")
	}
}

func TestDiffIdentical(t *testing.T) {
	s := sig("w", "a", "b#i")
	if got := schema.Diff(s, s); len(got) != 0 {
		t.Errorf("identical diff = %v", got)
	}
}
