package usecase

import (
	"context"
	"testing"

	"mdm/internal/bdi"
	"mdm/internal/rdf"
)

func TestFixtureConsistent(t *testing.T) {
	f, err := New()
	if err != nil {
		t.Fatal(err)
	}
	if v := f.Ont.Validate(); len(v) != 0 {
		t.Fatalf("violations: %v", v)
	}
	st := f.Ont.Stats()
	if st.Concepts != 4 {
		t.Errorf("concepts = %d", st.Concepts)
	}
	if st.Sources != 4 || st.Wrappers != 6 || st.Mappings != 6 {
		t.Errorf("stats = %+v", st)
	}
	if f.Reg.Len() != 6 {
		t.Errorf("registry = %d", f.Reg.Len())
	}
}

func TestFixtureIdentifiers(t *testing.T) {
	f := MustNew()
	for _, c := range []struct {
		concept, id rdf.Term
	}{
		{Player, PlayerID}, {Team, TeamID}, {League, LeagueID}, {Country, CountryID},
	} {
		id, ok := f.Ont.IdentifierOf(c.concept)
		if !ok || id != c.id {
			t.Errorf("IdentifierOf(%s) = %v, %v", c.concept.LocalName(), id, ok)
		}
	}
}

func TestFixtureWrapperData(t *testing.T) {
	f := MustNew()
	ctx := context.Background()
	counts := map[string]int{"w1": 5, "w2": 4, "w3": 3, "w4": 6, "w5": 5, "w6": 4}
	for name, want := range counts {
		w, ok := f.Reg.Get(name)
		if !ok {
			t.Fatalf("wrapper %s missing", name)
		}
		rel, err := w.Fetch(ctx)
		if err != nil {
			t.Fatalf("%s fetch: %v", name, err)
		}
		if rel.Len() != want {
			t.Errorf("%s rows = %d, want %d", name, rel.Len(), want)
		}
	}
}

func TestReleasePlayersV2Effects(t *testing.T) {
	f := MustNew()
	if err := f.ReleasePlayersV2(); err != nil {
		t.Fatal(err)
	}
	if f.W1v2 == nil {
		t.Fatal("W1v2 not set")
	}
	// Double release rejected.
	if err := f.ReleasePlayersV2(); err == nil {
		t.Error("double release accepted")
	}
	// Position feature exists and is attached to Player.
	if owners := f.Ont.Global().Subjects(bdi.PropHasFeature, Position); len(owners) != 1 || owners[0] != Player {
		t.Errorf("position owners = %v", owners)
	}
	// Still consistent.
	if v := f.Ont.Validate(); len(v) != 0 {
		t.Errorf("violations after release: %v", v)
	}
	// players-api now has three wrappers (w1, w5, w1v2).
	if got := len(f.Ont.Source().Objects(bdi.SourceIRI(SrcPlayers), bdi.PropHasWrapper)); got != 3 {
		t.Errorf("players wrappers = %d", got)
	}
}

func TestWalkBuilders(t *testing.T) {
	if w := Fig8Walk(); len(w.Concepts) != 2 || len(w.Relations) != 1 {
		t.Errorf("Fig8Walk = %+v", w)
	}
	if w := NationalityWalk(); len(w.Concepts) != 4 || len(w.Relations) != 4 {
		t.Errorf("NationalityWalk = %+v", w)
	}
	if w := PositionWalk(); len(w.Concepts) != 1 {
		t.Errorf("PositionWalk = %+v", w)
	}
}

func TestSyntheticVersions(t *testing.T) {
	ont, reg, walk := SyntheticVersions(4)
	if reg.Len() != 6+3 {
		t.Errorf("registry = %d", reg.Len())
	}
	if got := len(ont.Source().Objects(bdi.SourceIRI(SrcPlayers), bdi.PropHasWrapper)); got != 2+3 {
		t.Errorf("players wrappers = %d", got)
	}
	if walk == nil || len(walk.Concepts) != 2 {
		t.Errorf("walk = %+v", walk)
	}
	if v := ont.Validate(); len(v) != 0 {
		t.Errorf("violations: %v", v)
	}
}

func TestSyntheticChain(t *testing.T) {
	for _, n := range []int{1, 2, 5} {
		ont, reg, walk := SyntheticChain(n)
		if len(walk.Concepts) != n {
			t.Errorf("chain %d concepts = %d", n, len(walk.Concepts))
		}
		wantWrappers := n - 1
		if n == 1 {
			wantWrappers = 1
		}
		if reg.Len() != wantWrappers {
			t.Errorf("chain %d wrappers = %d, want %d", n, reg.Len(), wantWrappers)
		}
		if v := ont.Validate(); len(v) != 0 {
			t.Errorf("chain %d violations: %v", n, v)
		}
	}
}

func TestSyntheticRows(t *testing.T) {
	players := SyntheticPlayers(50)
	if len(players) != 50 {
		t.Fatalf("players = %d", len(players))
	}
	teams := SyntheticTeams(0)
	if len(teams) != 1 {
		t.Fatalf("teams(0) = %d", len(teams))
	}
	// Every player's teamId is within the team id range for n/10+1 teams.
	for _, p := range players {
		if p["teamId"].I < 0 || p["teamId"].I >= 6 {
			t.Fatalf("teamId out of range: %v", p["teamId"])
		}
	}
}
