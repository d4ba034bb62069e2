package mdm_test

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"mdm"
	"mdm/internal/bdi"
	"mdm/internal/relalg"
	"mdm/internal/schema"
	"mdm/internal/usecase"
	"mdm/internal/wrapper"
)

// attrs builds string attributes, or int ones for names ending in "#i".
func attrs(names ...string) []schema.Attribute {
	var out []schema.Attribute
	for _, a := range names {
		typ := relalg.TypeString
		if strings.HasSuffix(a, "#i") {
			a = strings.TrimSuffix(a, "#i")
			typ = relalg.TypeInt
		}
		out = append(out, schema.Attribute{Name: a, Type: typ})
	}
	return out
}

func TestRegisterWrapperReleaseLog(t *testing.T) {
	f := usecase.MustNew()
	sys := mdm.FromParts(f.Ont, f.Reg)
	// The fixture released its six wrappers before the facade existed: the
	// log is the ontology's, not the facade's.
	seeded := len(sys.ReleaseLog())
	if seeded != 6 {
		t.Fatalf("fixture log = %d entries, want its 6 wrappers", seeded)
	}

	if err := sys.AddSource("weather-api", "Weather API"); err != nil {
		t.Fatal(err)
	}
	before := time.Now()
	rel1, err := sys.RegisterWrapper(wrapper.NewMem("weather-v1", "weather-api", nil, attrs("id#i", "temp", "city")))
	if err != nil {
		t.Fatal(err)
	}
	if rel1.Kind != bdi.NewSource || rel1.Seq != seeded+1 || rel1.Supersedes != "" {
		t.Fatalf("rel1 = %+v", rel1)
	}
	if after := time.Now(); rel1.At.Before(before) || rel1.At.After(after) {
		t.Errorf("released at %v, not within the call [%v, %v]", rel1.At, before, after)
	}

	rel2, err := sys.RegisterWrapper(wrapper.NewMem("weather-v2", "weather-api", nil, attrs("id#i", "temperature", "city")))
	if err != nil {
		t.Fatal(err)
	}
	if rel2.Kind != bdi.NewVersion || rel2.Supersedes != "weather-v1" {
		t.Fatalf("rel2 = %+v", rel2)
	}
	if !rel2.Breaking || len(rel2.Changes) != 1 || rel2.Changes[0].Kind != schema.AttributeRenamed {
		t.Fatalf("rel2 changes = %v", rel2.Changes)
	}
	sum := rel2.Summary()
	for _, frag := range []string{"new-version", "supersedes weather-v1", "renamed temp -> temperature", "BREAKING"} {
		if !strings.Contains(sum, frag) {
			t.Errorf("summary missing %q: %s", frag, sum)
		}
	}

	log := sys.ReleaseLog()
	if len(log) != seeded+2 {
		t.Fatalf("log = %d", len(log))
	}
	for i, rel := range log {
		if rel.Seq != i+1 {
			t.Errorf("log[%d].Seq = %d", i, rel.Seq)
		}
	}
	// What RegisterWrapper returned is what the log reads back.
	if got := log[seeded+1]; !reflect.DeepEqual(got, rel2) {
		t.Errorf("logged %+v\nreturned %+v", got, rel2)
	}
}

// TestRegisterWrapperDiffsAgainstTheLog: the superseded wrapper and its
// typed signature come from the release graph, so the diff is complete — a
// rename is only paired when the types are known — for a predecessor no
// registry holds, as after a restart.
func TestRegisterWrapperDiffsAgainstTheLog(t *testing.T) {
	f := usecase.MustNew()
	sys := mdm.FromParts(f.Ont, wrapper.NewRegistry())
	rel, err := sys.RegisterWrapper(wrapper.NewMem("w1v2", usecase.SrcPlayers, usecase.PlayersV2Docs(), nil))
	if err != nil {
		t.Fatal(err)
	}
	// w5 is the players source's later release in the fixture.
	if rel.Kind != bdi.NewVersion || rel.Supersedes != "w5" || !rel.Breaking {
		t.Fatalf("release over a detached predecessor = %+v", rel)
	}
	rel, err = sys.RegisterWrapper(wrapper.NewMem("w1again", usecase.SrcPlayers, usecase.PlayersV1Docs(), nil))
	if err != nil {
		t.Fatal(err)
	}
	var renamed bool
	for _, c := range rel.Changes {
		renamed = renamed || c.Kind == schema.AttributeRenamed && c.Attribute == "fullName" && c.NewName == "pName"
	}
	if rel.Supersedes != "w1v2" || !renamed {
		t.Errorf("release = %+v, want w1v2 superseded with fullName -> pName paired as a rename", rel)
	}
}

// TestRegisterWrapperReRegister: a name the log holds is attached, not
// released again; with another schema or source it is refused.
func TestRegisterWrapperReRegister(t *testing.T) {
	f := usecase.MustNew()
	sys := mdm.FromParts(f.Ont, f.Reg)
	before := sys.ReleaseLog()

	same := wrapper.NewMem("w1", usecase.SrcPlayers, usecase.PlayersV1Docs(), nil)
	f.Reg.Remove("w1")
	rel, err := sys.RegisterWrapper(same)
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
		var conflict *mdm.ReleaseConflictError
		if _, err := sys.RegisterWrapper(w); !errors.As(err, &conflict) {
			t.Errorf("another %s under a released name: %v, want a ReleaseConflictError", name, err)
		} else if conflict.Recorded.Seq != 1 || !strings.Contains(err.Error(), "new wrapper name") {
			t.Errorf("conflict = %v", err)
		}
		if _, ok := f.Reg.Get("w1"); ok {
			t.Errorf("a refused wrapper (%s) was attached", name)
		}
	}
	if after := sys.ReleaseLog(); !reflect.DeepEqual(after, before) {
		t.Errorf("re-registration changed the log:\n%+v\nwas\n%+v", after, before)
	}
}

func TestRegisterWrapperDuplicateRollsBack(t *testing.T) {
	f := usecase.MustNew()
	sys := mdm.FromParts(f.Ont, f.Reg)
	before := len(sys.ReleaseLog())
	dup := wrapper.NewMem("w1", usecase.SrcPlayers, usecase.PlayersV1Docs(), nil)
	if _, err := sys.RegisterWrapper(dup); err == nil {
		t.Fatal("duplicate wrapper accepted")
	}
	if got, _ := f.Reg.Get("w1"); got == wrapper.Wrapper(dup) {
		t.Error("the duplicate replaced the registered wrapper")
	}
	if len(sys.ReleaseLog()) != before {
		t.Error("failed release logged")
	}
}

func TestRegisterWrapperUnknownSourceRollsBack(t *testing.T) {
	f := usecase.MustNew()
	sys := mdm.FromParts(f.Ont, f.Reg)
	if _, err := sys.RegisterWrapper(wrapper.NewMem("wx", "ghost-api", nil, attrs("a"))); err == nil {
		t.Fatal("unknown source accepted")
	}
	if _, ok := f.Reg.Get("wx"); ok {
		t.Error("registry not rolled back")
	}
}

func TestDetectDrift(t *testing.T) {
	f := usecase.MustNew()
	sys := mdm.FromParts(f.Ont, f.Reg)
	// No drift initially.
	changes, err := sys.DetectDrift(context.Background(), "w1")
	if err != nil {
		t.Fatal(err)
	}
	if len(changes) != 0 {
		t.Fatalf("unexpected drift: %v", changes)
	}
	// Provider silently ships v2 payloads on the same endpoint.
	f.W1.SetDocs(usecase.PlayersV2Docs())
	changes, err = sys.DetectDrift(context.Background(), "w1")
	if err != nil {
		t.Fatal(err)
	}
	if !schema.IsBreaking(changes) {
		t.Fatalf("breaking drift not detected: %v", changes)
	}
	var sawRename bool
	for _, c := range changes {
		if c.Kind == schema.AttributeRenamed && c.Attribute == "pName" && c.NewName == "fullName" {
			sawRename = true
		}
	}
	if !sawRename {
		t.Errorf("pName->fullName rename not detected: %v", changes)
	}
	if _, err := sys.DetectDrift(context.Background(), "ghost"); err == nil {
		t.Error("unknown wrapper accepted")
	}
}

func TestSuggestMapping(t *testing.T) {
	f := usecase.MustNew()
	sys := mdm.FromParts(f.Ont, f.Reg)
	// Register w1v2 without a mapping.
	if _, err := sys.RegisterWrapper(wrapper.NewMem("w1v2", usecase.SrcPlayers, usecase.PlayersV2Docs(), nil)); err != nil {
		t.Fatal(err)
	}
	suggested, changes, err := sys.SuggestMapping("w1", "w1v2")
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
	if _, _, err := sys.SuggestMapping("ghost", "w1v2"); err == nil {
		t.Error("unknown prev wrapper accepted")
	}
	if _, _, err := sys.SuggestMapping("w1", "ghost"); err == nil {
		t.Error("unknown new wrapper accepted")
	}
	if _, _, err := sys.SuggestMapping("w1v2", "w1"); err == nil {
		t.Error("prev wrapper without mapping accepted")
	}
	// The suggestion is directly definable (position not mapped — the
	// steward adds new features manually).
	if err := sys.DefineMapping(suggested); err != nil {
		t.Fatalf("suggested mapping invalid: %v", err)
	}
}
