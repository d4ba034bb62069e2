package release_test

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"mdm/internal/relalg"
	"mdm/internal/release"
	"mdm/internal/schema"
	"mdm/internal/usecase"
	"mdm/internal/wrapper"
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
	changes := release.Diff(old, new)
	if len(changes) != 1 || changes[0].Kind != release.AttributeAdded || changes[0].Attribute != "position" {
		t.Fatalf("changes = %v", changes)
	}
	if release.IsBreaking(changes) {
		t.Error("pure addition must be non-breaking")
	}

	changes = release.Diff(new, old)
	if len(changes) != 1 || changes[0].Kind != release.AttributeRemoved {
		t.Fatalf("changes = %v", changes)
	}
	if !release.IsBreaking(changes) {
		t.Error("removal must be breaking")
	}
}

func TestDiffRenameHeuristic(t *testing.T) {
	old := sig("w", "id#i", "pName")
	new := sig("w", "id#i", "fullName")
	changes := release.Diff(old, new)
	if len(changes) != 1 || changes[0].Kind != release.AttributeRenamed {
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
	changes = release.Diff(old, new2)
	var renames, removed, added int
	for _, c := range changes {
		switch c.Kind {
		case release.AttributeRenamed:
			renames++
		case release.AttributeRemoved:
			removed++
		case release.AttributeAdded:
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
	changes := release.Diff(old, new)
	if len(changes) != 1 || changes[0].Kind != release.TypeChanged {
		t.Fatalf("changes = %v", changes)
	}
	if changes[0].OldType != "string" || changes[0].NewType != "int" {
		t.Errorf("types = %v", changes[0])
	}
	if !release.IsBreaking(changes) {
		t.Error("type change must be breaking")
	}
}

func TestDiffIdentical(t *testing.T) {
	s := sig("w", "a", "b#i")
	if got := release.Diff(s, s); len(got) != 0 {
		t.Errorf("identical diff = %v", got)
	}
}

func TestManagerReleaseLog(t *testing.T) {
	f := usecase.MustNew()
	mgr := release.NewManager(f.Ont, f.Reg)
	fixed := time.Date(2018, 3, 26, 10, 0, 0, 0, time.UTC) // EDBT 2018 day 1
	mgr.Now = func() time.Time { return fixed }
	// The fixture released its six wrappers through a manager of its own:
	// the log is the ontology's, not the manager's.
	seeded := len(mgr.Log())
	if seeded != 6 {
		t.Fatalf("fixture log = %d entries, want its 6 wrappers", seeded)
	}

	if err := f.Ont.AddDataSource("weather-api", "Weather API"); err != nil {
		t.Fatal(err)
	}
	w1 := wrapper.NewMem("weather-v1", "weather-api", nil, sig("weather-v1", "id#i", "temp", "city").Attributes)
	rel1, err := mgr.Register(w1)
	if err != nil {
		t.Fatal(err)
	}
	if rel1.Kind != release.NewSource || rel1.Seq != seeded+1 || rel1.Supersedes != "" {
		t.Fatalf("rel1 = %+v", rel1)
	}
	if !rel1.At.Equal(fixed) {
		t.Error("timestamp not from injected clock")
	}

	w2 := wrapper.NewMem("weather-v2", "weather-api", nil, sig("weather-v2", "id#i", "temperature", "city").Attributes)
	rel2, err := mgr.Register(w2)
	if err != nil {
		t.Fatal(err)
	}
	if rel2.Kind != release.NewVersion || rel2.Supersedes != "weather-v1" {
		t.Fatalf("rel2 = %+v", rel2)
	}
	if !rel2.Breaking || len(rel2.Changes) != 1 || rel2.Changes[0].Kind != release.AttributeRenamed {
		t.Fatalf("rel2 changes = %v", rel2.Changes)
	}
	sum := rel2.Summary()
	for _, frag := range []string{"new-version", "supersedes weather-v1", "renamed temp -> temperature", "BREAKING"} {
		if !strings.Contains(sum, frag) {
			t.Errorf("summary missing %q: %s", frag, sum)
		}
	}

	log := mgr.Log()
	if len(log) != seeded+2 {
		t.Fatalf("log = %d", len(log))
	}
	for i, rel := range log {
		if rel.Seq != i+1 {
			t.Errorf("log[%d].Seq = %d", i, rel.Seq)
		}
	}
	// What Register returned is what the log reads back.
	if got := log[seeded+1]; !reflect.DeepEqual(got, rel2) {
		t.Errorf("logged %+v\nreturned %+v", got, rel2)
	}
}

// TestManagerDiffsAgainstTheLog: the superseded wrapper and its typed
// signature come from the release graph, so the diff is complete — a
// rename is only paired when the types are known — for a predecessor no
// registry holds, as after a restart.
func TestManagerDiffsAgainstTheLog(t *testing.T) {
	f := usecase.MustNew()
	detached := wrapper.NewRegistry()
	rel, err := release.NewManager(f.Ont, detached).Register(
		wrapper.NewMem("w1v2", usecase.SrcPlayers, usecase.PlayersV2Docs(), nil))
	if err != nil {
		t.Fatal(err)
	}
	// w5 is the players source's later release in the fixture.
	if rel.Kind != release.NewVersion || rel.Supersedes != "w5" || !rel.Breaking {
		t.Fatalf("release over a detached predecessor = %+v", rel)
	}
	w1 := wrapper.NewMem("w1again", usecase.SrcPlayers, usecase.PlayersV1Docs(), nil)
	rel, err = release.NewManager(f.Ont, detached).Register(w1)
	if err != nil {
		t.Fatal(err)
	}
	var renamed bool
	for _, c := range rel.Changes {
		renamed = renamed || c.Kind == release.AttributeRenamed && c.Attribute == "fullName" && c.NewName == "pName"
	}
	if rel.Supersedes != "w1v2" || !renamed {
		t.Errorf("release = %+v, want w1v2 superseded with fullName -> pName paired as a rename", rel)
	}
}

// TestManagerReRegister: a name the log holds is attached, not released
// again; with another schema or source it is refused.
func TestManagerReRegister(t *testing.T) {
	f := usecase.MustNew()
	mgr := release.NewManager(f.Ont, f.Reg)
	before := mgr.Log()

	same := wrapper.NewMem("w1", usecase.SrcPlayers, usecase.PlayersV1Docs(), nil)
	f.Reg.Remove("w1")
	rel, err := mgr.Register(same)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rel, before[0]) {
		t.Errorf("re-attach returned %+v, want the recorded %+v", rel, before[0])
	}
	if got, _ := f.Reg.Get("w1"); got != wrapper.Wrapper(same) {
		t.Error("the re-registered wrapper is not the one attached")
	}

	f.Reg.Remove("w1")
	for name, w := range map[string]wrapper.Wrapper{
		"schema": wrapper.NewMem("w1", usecase.SrcPlayers, usecase.PlayersV2Docs(), nil),
		"source": wrapper.NewMem("w1", usecase.SrcTeams, usecase.PlayersV1Docs(), nil),
	} {
		var conflict *release.ConflictError
		if _, err := mgr.Register(w); !errors.As(err, &conflict) {
			t.Errorf("another %s under a released name: %v, want a ConflictError", name, err)
		} else if conflict.Recorded.Seq != 1 || !strings.Contains(err.Error(), "new wrapper name") {
			t.Errorf("conflict = %v", err)
		}
		if _, ok := f.Reg.Get("w1"); ok {
			t.Errorf("a refused wrapper (%s) was attached", name)
		}
	}
	if after := mgr.Log(); !reflect.DeepEqual(after, before) {
		t.Errorf("re-registration changed the log:\n%+v\nwas\n%+v", after, before)
	}
}

func TestManagerRegisterDuplicateRollsBack(t *testing.T) {
	f := usecase.MustNew()
	mgr := release.NewManager(f.Ont, f.Reg)
	before := len(mgr.Log())
	dup := wrapper.NewMem("w1", usecase.SrcPlayers, usecase.PlayersV1Docs(), nil)
	if _, err := mgr.Register(dup); err == nil {
		t.Fatal("duplicate wrapper accepted")
	}
	if got, _ := f.Reg.Get("w1"); got == wrapper.Wrapper(dup) {
		t.Error("the duplicate replaced the registered wrapper")
	}
	if len(mgr.Log()) != before {
		t.Error("failed release logged")
	}
}

func TestManagerRegisterUnknownSourceRollsBack(t *testing.T) {
	f := usecase.MustNew()
	mgr := release.NewManager(f.Ont, f.Reg)
	w := wrapper.NewMem("wx", "ghost-api", nil, sig("wx", "a").Attributes)
	if _, err := mgr.Register(w); err == nil {
		t.Fatal("unknown source accepted")
	}
	if _, ok := f.Reg.Get("wx"); ok {
		t.Error("registry not rolled back")
	}
}

func TestDetectDrift(t *testing.T) {
	f := usecase.MustNew()
	mgr := release.NewManager(f.Ont, f.Reg)
	// No drift initially.
	changes, err := mgr.DetectDrift(context.Background(), "w1")
	if err != nil {
		t.Fatal(err)
	}
	if len(changes) != 0 {
		t.Fatalf("unexpected drift: %v", changes)
	}
	// Provider silently ships v2 payloads on the same endpoint.
	f.W1.SetDocs(usecase.PlayersV2Docs())
	changes, err = mgr.DetectDrift(context.Background(), "w1")
	if err != nil {
		t.Fatal(err)
	}
	if !release.IsBreaking(changes) {
		t.Fatalf("breaking drift not detected: %v", changes)
	}
	var sawRename bool
	for _, c := range changes {
		if c.Kind == release.AttributeRenamed && c.Attribute == "pName" && c.NewName == "fullName" {
			sawRename = true
		}
	}
	if !sawRename {
		t.Errorf("pName->fullName rename not detected: %v", changes)
	}
	if _, err := mgr.DetectDrift(context.Background(), "ghost"); err == nil {
		t.Error("unknown wrapper accepted")
	}
}

func TestSuggestMapping(t *testing.T) {
	f := usecase.MustNew()
	mgr := release.NewManager(f.Ont, f.Reg)
	// Register w1v2 without a mapping.
	w := wrapper.NewMem("w1v2", usecase.SrcPlayers, usecase.PlayersV2Docs(), nil)
	if _, err := mgr.Register(w); err != nil {
		t.Fatal(err)
	}
	suggested, changes, err := mgr.SuggestMapping("w1", "w1v2")
	if err != nil {
		t.Fatal(err)
	}
	if len(changes) == 0 {
		t.Fatal("no changes detected")
	}
	// Renamed attribute carries its feature link.
	if suggested.SameAs["fullName"] != usecase.PlayerName {
		t.Errorf("rename link = %v", suggested.SameAs["fullName"])
	}
	// Kept attribute keeps its link; removed attributes drop theirs.
	if suggested.SameAs["id"] != usecase.PlayerID {
		t.Errorf("kept link = %v", suggested.SameAs["id"])
	}
	if _, ok := suggested.SameAs["weight"]; ok {
		t.Error("removed attribute kept a link")
	}
	// Subgraph drops the weight/rating hasFeature edges but keeps the
	// relation edge.
	for _, tr := range suggested.Subgraph {
		if tr.O == usecase.Weight || tr.O == usecase.Rating {
			t.Errorf("dropped feature still in subgraph: %v", tr)
		}
	}
	keptRelation := false
	for _, tr := range suggested.Subgraph {
		if tr.P == usecase.PlaysIn {
			keptRelation = true
		}
	}
	if !keptRelation {
		t.Error("relation edge lost in suggestion")
	}
	// Errors (checked before the suggestion is defined, while w1v2 still
	// has no mapping of its own).
	if _, _, err := mgr.SuggestMapping("ghost", "w1v2"); err == nil {
		t.Error("unknown prev wrapper accepted")
	}
	if _, _, err := mgr.SuggestMapping("w1", "ghost"); err == nil {
		t.Error("unknown new wrapper accepted")
	}
	if _, _, err := mgr.SuggestMapping("w1v2", "w1"); err == nil {
		t.Error("prev wrapper without mapping accepted")
	}
	// The suggestion is directly definable (position not mapped — the
	// steward adds new features manually).
	if err := f.Ont.DefineMapping(suggested); err != nil {
		t.Fatalf("suggested mapping invalid: %v", err)
	}
}
