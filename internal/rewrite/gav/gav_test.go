package gav_test

import (
	"context"
	"strings"
	"testing"

	"mdm/internal/relalg"
	"mdm/internal/relalg/relalgtest"
	"mdm/internal/rewrite"
	"mdm/internal/rewrite/gav"
	"mdm/internal/usecase"
	"mdm/internal/wrapper"
)

func TestGAVAnswersFig8BeforeEvolution(t *testing.T) {
	f := usecase.MustNew()
	m := gav.FromLAV(f.Ont)
	plan, err := gav.New(f.Ont, f.Reg, m).Rewrite(usecase.Fig8Walk())
	if err != nil {
		t.Fatal(err)
	}
	rel, err := relalgtest.Execute(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 5 {
		t.Fatalf("rows = %d\n%s", rel.Len(), rel.Table())
	}
	pi, ti := rel.ColIndex("playerName"), rel.ColIndex("teamName")
	if pi < 0 || ti < 0 {
		t.Fatalf("columns = %v", rel.Cols)
	}
	found := false
	for _, r := range rel.Rows {
		if r[pi].Text() == "Lionel Messi" && r[ti].Text() == "FC Barcelona" {
			found = true
		}
	}
	if !found {
		t.Errorf("Messi row missing:\n%s", rel.Table())
	}
}

// TestGAVBreaksOnInPlaceEvolution reproduces the paper's §1 claim: under
// GAV, a breaking source release makes previously working queries crash,
// while MDM's LAV approach keeps answering after one local mapping
// registration.
func TestGAVBreaksOnInPlaceEvolution(t *testing.T) {
	f := usecase.MustNew()
	m := gav.FromLAV(f.Ont)
	walk := usecase.Fig8Walk()

	// The players API replaces its payload in place with the v2 schema:
	// the old endpoint now serves renamed fields.
	f.W1.SetDocs(usecase.PlayersV2Docs())
	// The wrapper's declared signature is stale; rebuild the registry
	// entry the way a GAV system would see the world: w1 now has the v2
	// signature (pName gone).
	newReg := wrapper.NewRegistry()
	w1v2sig := wrapper.NewMem("w1", usecase.SrcPlayers, usecase.PlayersV2Docs(), nil)
	newReg.Register(w1v2sig)
	for _, name := range []string{"w2", "w3", "w4", "w5", "w6"} {
		w, _ := f.Reg.Get(name)
		newReg.Register(w)
	}

	_, err := gav.New(f.Ont, newReg, m).Rewrite(walk)
	if err == nil {
		t.Fatal("GAV query should crash after breaking release")
	}
	if !strings.Contains(err.Error(), "no longer has attribute") {
		t.Errorf("error = %v", err)
	}

	// LAV path: steward registers the new wrapper + mapping; the SAME
	// walk works again with zero changes to existing mappings.
	if err := f.ReleasePlayersV2(); err != nil {
		t.Fatal(err)
	}
	res, err := rewrite.New(f.Ont, f.Reg).Rewrite(walk)
	if err != nil {
		t.Fatalf("LAV should survive evolution: %v", err)
	}
	if _, err := relalgtest.Execute(context.Background(), res.Plan); err != nil {
		t.Fatalf("LAV execution failed: %v", err)
	}
}

func TestGAVBreaksWhenWrapperRemoved(t *testing.T) {
	f := usecase.MustNew()
	m := gav.FromLAV(f.Ont)
	f.Reg.Remove("w1")
	_, err := gav.New(f.Ont, f.Reg, m).Rewrite(usecase.Fig8Walk())
	if err == nil || !strings.Contains(err.Error(), "no longer exists") {
		t.Fatalf("err = %v", err)
	}
}

func TestGAVReworkCostCounting(t *testing.T) {
	f := usecase.MustNew()
	m := gav.FromLAV(f.Ont)
	// All six Player base features plus the playsIn relation and the
	// Team identifier are bound to w1 (alphabetically first provider).
	n := m.BindingsReferencing("w1")
	if n < 7 {
		t.Errorf("bindings referencing w1 = %d, want >= 7", n)
	}
	if m.BindingsReferencing("nope") != 0 {
		t.Error("ghost wrapper has bindings")
	}
}

func TestGAVUnboundFeatureError(t *testing.T) {
	f := usecase.MustNew()
	m := gav.NewMappings() // empty: nothing bound
	_, err := gav.New(f.Ont, f.Reg, m).Rewrite(usecase.Fig8Walk())
	if err == nil || !strings.Contains(err.Error(), "no GAV binding") {
		t.Fatalf("err = %v", err)
	}
}

func TestGAVProducesSingleCQNoUnion(t *testing.T) {
	// Even with two schema versions registered, GAV keeps answering from
	// the frozen binding only — no union, missing v2-only data.
	f := usecase.MustNew()
	m := gav.FromLAV(f.Ont)
	if err := f.ReleasePlayersV2(); err != nil {
		t.Fatal(err)
	}
	plan, err := gav.New(f.Ont, f.Reg, m).Rewrite(usecase.Fig8Walk())
	if err != nil {
		t.Fatal(err)
	}
	rel, err := relalgtest.Execute(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	pi := rel.ColIndex("playerName")
	for _, r := range rel.Rows {
		if r[pi].Text() == "Pedri" {
			t.Fatal("GAV should not see v2-only players; its binding is frozen to w1")
		}
	}
	if !strings.Contains(relalg.Algebra(plan), "w1") || strings.Contains(relalg.Algebra(plan), "w1v2") {
		t.Errorf("algebra = %s", relalg.Algebra(plan))
	}
}
