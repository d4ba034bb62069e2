// Package usecase builds the paper's motivational use case: four REST
// data sources about european football — players, teams, leagues and
// countries (Figure 1) — integrated under the BDI ontology with LAV
// mappings (Figures 5–7), plus the schema-evolution release used in the
// "Governance of evolution" demo scenario.
//
// Tests, examples and the benchmark harness all build on this package so
// that every reproduction of a paper artifact uses the same fixture.
package usecase

import (
	"fmt"
	"time"

	"mdm/internal/bdi"
	"mdm/internal/rdf"
	"mdm/internal/relalg"
	"mdm/internal/rewrite"
	"mdm/internal/schema"
	"mdm/internal/wrapper"
)

// EX is the example namespace used when no vocabulary can be reused
// (paper §2.1: "we define the example's custom prefix ex").
const EX = "http://www.example.org/football/"

// Global-graph vocabulary of the use case. Team and Country reuse
// schema.org classes, following the Linked Data reuse principle the
// paper highlights for sc:SportsTeam.
var (
	Player  = rdf.IRI(EX + "Player")
	Team    = rdf.IRI(bdi.NSSchema + "SportsTeam")
	League  = rdf.IRI(EX + "League")
	Country = rdf.IRI(bdi.NSSchema + "Country")

	PlayerID   = rdf.IRI(EX + "playerId")
	PlayerName = rdf.IRI(EX + "playerName")
	Height     = rdf.IRI(EX + "height")
	Weight     = rdf.IRI(EX + "weight")
	Rating     = rdf.IRI(EX + "rating")
	Foot       = rdf.IRI(EX + "foot")
	Position   = rdf.IRI(EX + "position") // introduced by the v2 release

	TeamID        = rdf.IRI(EX + "teamId")
	TeamName      = rdf.IRI(EX + "teamName")
	TeamShortName = rdf.IRI(EX + "teamShortName")

	LeagueID   = rdf.IRI(EX + "leagueId")
	LeagueName = rdf.IRI(EX + "leagueName")

	CountryID   = rdf.IRI(EX + "countryId")
	CountryName = rdf.IRI(EX + "countryName")

	PlaysIn        = rdf.IRI(EX + "playsIn")
	CompetesIn     = rdf.IRI(EX + "competesIn")
	InCountry      = rdf.IRI(EX + "inCountry")
	HasNationality = rdf.IRI(EX + "hasNationality")
)

// Source IDs of the four REST APIs.
const (
	SrcPlayers   = "players-api"
	SrcTeams     = "teams-api"
	SrcLeagues   = "leagues-api"
	SrcCountries = "countries-api"
)

// Fixture bundles the fully set-up ontology and wrapper registry.
type Fixture struct {
	Ont *bdi.Ontology
	Reg *wrapper.Registry
	// Wrapper handles, exposed so tests can mutate source data.
	W1, W2, W3, W4, W5, W6 *wrapper.Mem
	// W1v2 is non-nil after ReleasePlayersV2.
	W1v2 *wrapper.Mem
}

// New builds the complete use case: global graph, four sources, six
// wrappers with data, and all LAV mappings. It panics only via bugs —
// all fixture construction errors are returned.
func New() (*Fixture, error) {
	return NewOn(bdi.New(), wrapper.NewRegistry())
}

// NewOn builds the use case into an existing, empty ontology and
// registry — those of a persistent mdm.System, for example.
func NewOn(ont *bdi.Ontology, reg *wrapper.Registry) (*Fixture, error) {
	f := &Fixture{Ont: ont, Reg: reg}
	f.Ont.Dataset().Prefixes().Bind("ex", EX)
	if err := f.buildGlobalGraph(); err != nil {
		return nil, fmt.Errorf("usecase: global graph: %w", err)
	}
	if err := f.buildSourcesAndWrappers(); err != nil {
		return nil, fmt.Errorf("usecase: sources: %w", err)
	}
	if err := f.defineMappings(); err != nil {
		return nil, fmt.Errorf("usecase: mappings: %w", err)
	}
	if v := f.Ont.Validate(); len(v) > 0 {
		return nil, fmt.Errorf("usecase: ontology inconsistent: %v", v)
	}
	return f, nil
}

// MustNew is New for fixtures in tests and benches.
func MustNew() *Fixture {
	f, err := New()
	if err != nil {
		panic(err)
	}
	return f
}

func (f *Fixture) buildGlobalGraph() error {
	o := f.Ont
	type conceptDef struct {
		c     rdf.Term
		label string
		id    rdf.Term
		feats []rdf.Term
	}
	defs := []conceptDef{
		{Player, "Player", PlayerID, []rdf.Term{PlayerID, PlayerName, Height, Weight, Rating, Foot}},
		{Team, "SportsTeam", TeamID, []rdf.Term{TeamID, TeamName, TeamShortName}},
		{League, "League", LeagueID, []rdf.Term{LeagueID, LeagueName}},
		{Country, "Country", CountryID, []rdf.Term{CountryID, CountryName}},
	}
	for _, d := range defs {
		if err := o.AddConcept(d.c, d.label); err != nil {
			return err
		}
		for _, ft := range d.feats {
			if err := o.AddFeature(ft, ft.LocalName()); err != nil {
				return err
			}
			if err := o.AttachFeature(d.c, ft); err != nil {
				return err
			}
		}
		if err := o.MarkIdentifier(d.id); err != nil {
			return err
		}
	}
	rels := []rdf.Triple{
		rdf.T(Player, PlaysIn, Team),
		rdf.T(Team, CompetesIn, League),
		rdf.T(League, InCountry, Country),
		rdf.T(Player, HasNationality, Country),
	}
	for _, r := range rels {
		if err := o.RelateConcepts(r.S, r.P, r.O); err != nil {
			return err
		}
	}
	return nil
}

// row builds a schema.Doc tersely.
func row(kv ...any) schema.Doc {
	d := schema.Doc{}
	for i := 0; i+1 < len(kv); i += 2 {
		k := kv[i].(string)
		switch v := kv[i+1].(type) {
		case int:
			d[k] = relalg.Int(int64(v))
		case int64:
			d[k] = relalg.Int(v)
		case float64:
			d[k] = relalg.Float(v)
		case string:
			d[k] = relalg.String(v)
		case bool:
			d[k] = relalg.Bool(v)
		default:
			panic(fmt.Sprintf("usecase: unsupported fixture value %T", v))
		}
	}
	return d
}

// PlayersV1Docs returns the players-api v1 payload rows (wrapper w1).
func PlayersV1Docs() []schema.Doc {
	return []schema.Doc{
		row("id", 6176, "pName", "Lionel Messi", "height", 170.18, "weight", 159, "score", 94, "foot", "left", "teamId", 25),
		row("id", 7011, "pName", "Robert Lewandowski", "height", 184.0, "weight", 176, "score", 91, "foot", "right", "teamId", 27),
		row("id", 8123, "pName", "Zlatan Ibrahimovic", "height", 195.0, "weight", 209, "score", 90, "foot", "right", "teamId", 31),
		row("id", 9001, "pName", "Harry Kane", "height", 188.0, "weight", 196, "score", 89, "foot", "right", "teamId", 33),
		row("id", 9002, "pName", "Marcus Rashford", "height", 180.0, "weight", 154, "score", 85, "foot", "right", "teamId", 31),
	}
}

// NationalityDocs returns the players-api nationality endpoint rows (w5).
func NationalityDocs() []schema.Doc {
	return []schema.Doc{
		row("id", 6176, "countryId", 4), // Messi -> Argentina
		row("id", 7011, "countryId", 6), // Lewandowski -> Poland
		row("id", 8123, "countryId", 5), // Zlatan -> Sweden
		row("id", 9001, "countryId", 3), // Kane -> England
		row("id", 9002, "countryId", 3), // Rashford -> England
	}
}

// TeamsDocs returns the teams-api rows (w2).
func TeamsDocs() []schema.Doc {
	return []schema.Doc{
		row("id", 25, "name", "FC Barcelona", "shortName", "FCB"),
		row("id", 27, "name", "Bayern Munich", "shortName", "FCB"),
		row("id", 31, "name", "Manchester United", "shortName", "MU"),
		row("id", 33, "name", "Tottenham Hotspur", "shortName", "THFC"),
	}
}

// LeaguesDocs returns the leagues-api rows (w3).
func LeaguesDocs() []schema.Doc {
	return []schema.Doc{
		row("id", 10, "lName", "La Liga", "countryId", 1),
		row("id", 11, "lName", "Bundesliga", "countryId", 2),
		row("id", 12, "lName", "Premier League", "countryId", 3),
	}
}

// LeagueTeamsDocs returns the leagues-api membership endpoint rows (w6).
func LeagueTeamsDocs() []schema.Doc {
	return []schema.Doc{
		row("leagueId", 10, "teamId", 25),
		row("leagueId", 11, "teamId", 27),
		row("leagueId", 12, "teamId", 31),
		row("leagueId", 12, "teamId", 33),
	}
}

// CountriesDocs returns the countries-api rows (w4).
func CountriesDocs() []schema.Doc {
	return []schema.Doc{
		row("id", 1, "cName", "Spain"),
		row("id", 2, "cName", "Germany"),
		row("id", 3, "cName", "England"),
		row("id", 4, "cName", "Argentina"),
		row("id", 5, "cName", "Sweden"),
		row("id", 6, "cName", "Poland"),
	}
}

// PlayersV2Docs returns the breaking v2 payload of the players API: the
// pName field is renamed to fullName, weight and score are gone, and a
// new position field appears.
func PlayersV2Docs() []schema.Doc {
	return []schema.Doc{
		row("id", 6176, "fullName", "Lionel Messi", "height", 170.18, "foot", "left", "position", "RW", "teamId", 25),
		row("id", 7011, "fullName", "Robert Lewandowski", "height", 184.0, "foot", "right", "position", "ST", "teamId", 27),
		row("id", 9050, "fullName", "Pedri", "height", 174.0, "foot", "right", "position", "CM", "teamId", 25),
		row("id", 9051, "fullName", "Bukayo Saka", "height", 178.0, "foot", "left", "position", "RW", "teamId", 33),
	}
}

func (f *Fixture) buildSourcesAndWrappers() error {
	o := f.Ont
	sources := []struct{ id, label string }{
		{SrcPlayers, "Players API"},
		{SrcTeams, "Teams API"},
		{SrcLeagues, "Leagues API"},
		{SrcCountries, "Countries API"},
	}
	for _, s := range sources {
		if err := o.AddDataSource(s.id, s.label); err != nil {
			return err
		}
	}
	f.W1 = wrapper.NewMem("w1", SrcPlayers, PlayersV1Docs(), nil)
	f.W5 = wrapper.NewMem("w5", SrcPlayers, NationalityDocs(), nil)
	f.W2 = wrapper.NewMem("w2", SrcTeams, TeamsDocs(), nil)
	f.W3 = wrapper.NewMem("w3", SrcLeagues, LeaguesDocs(), nil)
	f.W6 = wrapper.NewMem("w6", SrcLeagues, LeagueTeamsDocs(), nil)
	f.W4 = wrapper.NewMem("w4", SrcCountries, CountriesDocs(), nil)
	for _, w := range []*wrapper.Mem{f.W1, f.W2, f.W3, f.W4, f.W5, f.W6} {
		if err := release(o, f.Reg, w); err != nil {
			return err
		}
	}
	return nil
}

// release attaches w to reg and records its release in o. A fixture
// ontology is fresh, so no recorded release can conflict with w.
func release(o *bdi.Ontology, reg *wrapper.Registry, w wrapper.Wrapper) error {
	if err := reg.Register(w); err != nil {
		return err
	}
	_, err := o.RegisterWrapper(w.SourceID(), w.Signature(), time.Now())
	return err
}

func (f *Fixture) defineMappings() error {
	o := f.Ont
	rt := rdf.IRI(rdf.RDFType)

	// w1: Player (all base features) + playsIn + Team identifier — the
	// red contour of Figure 7.
	if err := o.DefineMapping(bdi.Mapping{
		Wrapper: "w1",
		Subgraph: []rdf.Triple{
			rdf.T(Player, rt, bdi.ClassConcept),
			rdf.T(Player, bdi.PropHasFeature, PlayerID),
			rdf.T(Player, bdi.PropHasFeature, PlayerName),
			rdf.T(Player, bdi.PropHasFeature, Height),
			rdf.T(Player, bdi.PropHasFeature, Weight),
			rdf.T(Player, bdi.PropHasFeature, Rating),
			rdf.T(Player, bdi.PropHasFeature, Foot),
			rdf.T(Player, PlaysIn, Team),
			rdf.T(Team, rt, bdi.ClassConcept),
			rdf.T(Team, bdi.PropHasFeature, TeamID),
		},
		SameAs: map[string]rdf.Term{
			"id": PlayerID, "pName": PlayerName, "height": Height,
			"weight": Weight, "score": Rating, "foot": Foot, "teamId": TeamID,
		},
	}); err != nil {
		return err
	}

	// w2: Team with all features — the green contour of Figure 7; note
	// the intersection with w1 at sc:SportsTeam and its identifier.
	if err := o.DefineMapping(bdi.Mapping{
		Wrapper: "w2",
		Subgraph: []rdf.Triple{
			rdf.T(Team, rt, bdi.ClassConcept),
			rdf.T(Team, bdi.PropHasFeature, TeamID),
			rdf.T(Team, bdi.PropHasFeature, TeamName),
			rdf.T(Team, bdi.PropHasFeature, TeamShortName),
		},
		SameAs: map[string]rdf.Term{
			"id": TeamID, "name": TeamName, "shortName": TeamShortName,
		},
	}); err != nil {
		return err
	}

	// w3: League + inCountry + Country identifier.
	if err := o.DefineMapping(bdi.Mapping{
		Wrapper: "w3",
		Subgraph: []rdf.Triple{
			rdf.T(League, rt, bdi.ClassConcept),
			rdf.T(League, bdi.PropHasFeature, LeagueID),
			rdf.T(League, bdi.PropHasFeature, LeagueName),
			rdf.T(League, InCountry, Country),
			rdf.T(Country, rt, bdi.ClassConcept),
			rdf.T(Country, bdi.PropHasFeature, CountryID),
		},
		SameAs: map[string]rdf.Term{
			"id": LeagueID, "lName": LeagueName, "countryId": CountryID,
		},
	}); err != nil {
		return err
	}

	// w4: Country with all features.
	if err := o.DefineMapping(bdi.Mapping{
		Wrapper: "w4",
		Subgraph: []rdf.Triple{
			rdf.T(Country, rt, bdi.ClassConcept),
			rdf.T(Country, bdi.PropHasFeature, CountryID),
			rdf.T(Country, bdi.PropHasFeature, CountryName),
		},
		SameAs: map[string]rdf.Term{"id": CountryID, "cName": CountryName},
	}); err != nil {
		return err
	}

	// w5: Player identifier + hasNationality + Country identifier.
	if err := o.DefineMapping(bdi.Mapping{
		Wrapper: "w5",
		Subgraph: []rdf.Triple{
			rdf.T(Player, rt, bdi.ClassConcept),
			rdf.T(Player, bdi.PropHasFeature, PlayerID),
			rdf.T(Player, HasNationality, Country),
			rdf.T(Country, rt, bdi.ClassConcept),
			rdf.T(Country, bdi.PropHasFeature, CountryID),
		},
		SameAs: map[string]rdf.Term{"id": PlayerID, "countryId": CountryID},
	}); err != nil {
		return err
	}

	// w6: Team identifier + competesIn + League identifier.
	if err := o.DefineMapping(bdi.Mapping{
		Wrapper: "w6",
		Subgraph: []rdf.Triple{
			rdf.T(Team, rt, bdi.ClassConcept),
			rdf.T(Team, bdi.PropHasFeature, TeamID),
			rdf.T(Team, CompetesIn, League),
			rdf.T(League, rt, bdi.ClassConcept),
			rdf.T(League, bdi.PropHasFeature, LeagueID),
		},
		SameAs: map[string]rdf.Term{"teamId": TeamID, "leagueId": LeagueID},
	}); err != nil {
		return err
	}
	return nil
}

// ReleasePlayersV2 performs the "Governance of evolution" scenario: the
// players API ships a breaking v2 (field renames and removals, one new
// field). A new wrapper w1v2 is registered for the SAME data source, the
// new position feature is added to the global graph, and the LAV mapping
// for w1v2 is defined. Existing queries keep working and now draw from
// both schema versions.
func (f *Fixture) ReleasePlayersV2() error {
	if f.W1v2 != nil {
		return fmt.Errorf("usecase: players v2 already released")
	}
	o := f.Ont
	// Accommodate the new field as a new global feature.
	if err := o.AddFeature(Position, "position"); err != nil {
		return err
	}
	if err := o.AttachFeature(Player, Position); err != nil {
		return err
	}
	w := wrapper.NewMem("w1v2", SrcPlayers, PlayersV2Docs(), nil)
	if err := release(o, f.Reg, w); err != nil {
		return err
	}
	rt := rdf.IRI(rdf.RDFType)
	if err := o.DefineMapping(bdi.Mapping{
		Wrapper: "w1v2",
		Subgraph: []rdf.Triple{
			rdf.T(Player, rt, bdi.ClassConcept),
			rdf.T(Player, bdi.PropHasFeature, PlayerID),
			rdf.T(Player, bdi.PropHasFeature, PlayerName),
			rdf.T(Player, bdi.PropHasFeature, Height),
			rdf.T(Player, bdi.PropHasFeature, Foot),
			rdf.T(Player, bdi.PropHasFeature, Position),
			rdf.T(Player, PlaysIn, Team),
			rdf.T(Team, rt, bdi.ClassConcept),
			rdf.T(Team, bdi.PropHasFeature, TeamID),
		},
		SameAs: map[string]rdf.Term{
			"id": PlayerID, "fullName": PlayerName, "height": Height,
			"foot": Foot, "position": Position, "teamId": TeamID,
		},
	}); err != nil {
		return err
	}
	f.W1v2 = w
	return nil
}

// Fig8Walk returns the walk of Figure 8: the names of players and their
// teams ("fetching the name of the players and their teams").
func Fig8Walk() *rewrite.Walk {
	return rewrite.NewWalk().
		SelectAs(Team, TeamName, "teamName").
		SelectAs(Player, PlayerName, "playerName").
		Relate(Player, PlaysIn, Team)
}

// NationalityWalk returns the paper's exemplary OMQ: "who are the
// players that play in a league of their nationality?". The walk spans
// Player, Team, League and Country; the rewriting joins the two paths to
// Country through the shared countryId identifier.
func NationalityWalk() *rewrite.Walk {
	return rewrite.NewWalk().
		SelectAs(Player, PlayerName, "playerName").
		SelectAs(League, LeagueName, "leagueName").
		SelectAs(Country, CountryName, "countryName").
		Relate(Player, PlaysIn, Team).
		Relate(Team, CompetesIn, League).
		Relate(League, InCountry, Country).
		Relate(Player, HasNationality, Country)
}

// PositionWalk queries the feature introduced by the v2 release; only
// answerable after ReleasePlayersV2.
func PositionWalk() *rewrite.Walk {
	return rewrite.NewWalk().
		SelectAs(Player, PlayerName, "playerName").
		SelectAs(Player, Position, "position")
}
