package main

import (
	"fmt"

	"mdm"
	"mdm/internal/relalg"
	"mdm/internal/schema"
)

// The football ontology of the paper's motivational use case (Figures
// 1, 5–7). The generators are copied from internal/usecase rather than
// imported, so an edit there cannot change what the benchmark measures.

const (
	exNS = "http://www.example.org/football/"
	scNS = "http://schema.org/"
	gNS  = "http://www.essi.upc.edu/~snadal/BDIOntology/Global/"
	sNS  = "http://www.essi.upc.edu/~snadal/BDIOntology/Source/"

	rdfType      = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
	globalGraph  = gNS + "graph"
	sourceGraph  = sNS + "graph"
	conceptClass = gNS + "Concept"
	hasFeature   = gNS + "hasFeature"
	hasWrapper   = sNS + "hasWrapper"
	hasAttribute = sNS + "hasAttribute"
	srcPlayers   = "players-api"
	srcTeams     = "teams-api"
	srcLeagues   = "leagues-api"
	srcCountries = "countries-api"
)

const (
	cPlayer  = exNS + "Player"
	cTeam    = scNS + "SportsTeam"
	cLeague  = exNS + "League"
	cCountry = scNS + "Country"

	fPlayerID    = exNS + "playerId"
	fPlayerName  = exNS + "playerName"
	fHeight      = exNS + "height"
	fWeight      = exNS + "weight"
	fRating      = exNS + "rating"
	fFoot        = exNS + "foot"
	fTeamID      = exNS + "teamId"
	fTeamName    = exNS + "teamName"
	fTeamShort   = exNS + "teamShortName"
	fLeagueID    = exNS + "leagueId"
	fLeagueName  = exNS + "leagueName"
	fCountryID   = exNS + "countryId"
	fCountryName = exNS + "countryName"

	pPlaysIn        = exNS + "playsIn"
	pCompetesIn     = exNS + "competesIn"
	pInCountry      = exNS + "inCountry"
	pHasNationality = exNS + "hasNationality"
)

// row builds a schema.Doc tersely from key/value pairs.
func row(kv ...any) schema.Doc {
	d := schema.Doc{}
	for i := 0; i+1 < len(kv); i += 2 {
		k := kv[i].(string)
		switch v := kv[i+1].(type) {
		case int:
			d[k] = relalg.Int(int64(v))
		case float64:
			d[k] = relalg.Float(v)
		case string:
			d[k] = relalg.String(v)
		default:
			panic(fmt.Sprintf("bench: unsupported fixture value %T", v))
		}
	}
	return d
}

// Paper-sized source payloads (Figure 2 and the demo fixture).
func paperPlayers() []schema.Doc {
	return []schema.Doc{
		row("id", 6176, "pName", "Lionel Messi", "height", 170.18, "weight", 159, "score", 94, "foot", "left", "teamId", 25),
		row("id", 7011, "pName", "Robert Lewandowski", "height", 184.0, "weight", 176, "score", 91, "foot", "right", "teamId", 27),
		row("id", 8123, "pName", "Zlatan Ibrahimovic", "height", 195.0, "weight", 209, "score", 90, "foot", "right", "teamId", 31),
		row("id", 9001, "pName", "Harry Kane", "height", 188.0, "weight", 196, "score", 89, "foot", "right", "teamId", 33),
		row("id", 9002, "pName", "Marcus Rashford", "height", 180.0, "weight", 154, "score", 85, "foot", "right", "teamId", 31),
	}
}

func paperNationalities() []schema.Doc {
	return []schema.Doc{
		row("id", 6176, "countryId", 4),
		row("id", 7011, "countryId", 6),
		row("id", 8123, "countryId", 5),
		row("id", 9001, "countryId", 3),
		row("id", 9002, "countryId", 3),
	}
}

func paperTeams() []schema.Doc {
	return []schema.Doc{
		row("id", 25, "name", "FC Barcelona", "shortName", "FCB"),
		row("id", 27, "name", "Bayern Munich", "shortName", "FCB"),
		row("id", 31, "name", "Manchester United", "shortName", "MU"),
		row("id", 33, "name", "Tottenham Hotspur", "shortName", "THFC"),
	}
}

func paperLeagues() []schema.Doc {
	return []schema.Doc{
		row("id", 10, "lName", "La Liga", "countryId", 1),
		row("id", 11, "lName", "Bundesliga", "countryId", 2),
		row("id", 12, "lName", "Premier League", "countryId", 3),
	}
}

func paperLeagueTeams() []schema.Doc {
	return []schema.Doc{
		row("leagueId", 10, "teamId", 25),
		row("leagueId", 11, "teamId", 27),
		row("leagueId", 12, "teamId", 31),
		row("leagueId", 12, "teamId", 33),
	}
}

func paperCountries() []schema.Doc {
	return []schema.Doc{
		row("id", 1, "cName", "Spain"),
		row("id", 2, "cName", "Germany"),
		row("id", 3, "cName", "England"),
		row("id", 4, "cName", "Argentina"),
		row("id", 5, "cName", "Sweden"),
		row("id", 6, "cName", "Poland"),
	}
}

// bulkPlayers generates n player rows in the w1 signature; player i
// plays in team i mod teams, so the Figure 8 walk returns exactly n rows.
func bulkPlayers(n, teams int) []schema.Doc {
	docs := make([]schema.Doc, n)
	for i := range docs {
		docs[i] = schema.Doc{
			"id":     relalg.Int(int64(i)),
			"pName":  relalg.String(fmt.Sprintf("Player %d", i)),
			"height": relalg.Float(160 + float64(i%40)),
			"weight": relalg.Int(int64(140 + i%80)),
			"score":  relalg.Int(int64(50 + i%50)),
			"foot":   relalg.String([]string{"left", "right"}[i%2]),
			"teamId": relalg.Int(int64(i % teams)),
		}
	}
	return docs
}

// bulkTeams generates n team rows in the w2 signature.
func bulkTeams(n int) []schema.Doc {
	docs := make([]schema.Doc, n)
	for i := range docs {
		docs[i] = schema.Doc{
			"id":        relalg.Int(int64(i)),
			"name":      relalg.String(fmt.Sprintf("Team %d", i)),
			"shortName": relalg.String(fmt.Sprintf("T%d", i)),
		}
	}
	return docs
}

// footballGlobal declares the football global graph (Figure 5) through
// the steward facade.
func footballGlobal(sys *mdm.System) error {
	sys.BindPrefix("ex", exNS)
	type conceptDef struct {
		c, label string
		feats    []string // feats[0] is the identifier
	}
	defs := []conceptDef{
		{cPlayer, "Player", []string{fPlayerID, fPlayerName, fHeight, fWeight, fRating, fFoot}},
		{cTeam, "SportsTeam", []string{fTeamID, fTeamName, fTeamShort}},
		{cLeague, "League", []string{fLeagueID, fLeagueName}},
		{cCountry, "Country", []string{fCountryID, fCountryName}},
	}
	for _, d := range defs {
		if err := sys.AddConcept(d.c, d.label); err != nil {
			return err
		}
		for _, f := range d.feats {
			if err := sys.AddFeature(f, sys.IRI(f).LocalName()); err != nil {
				return err
			}
			if err := sys.AttachFeature(d.c, f); err != nil {
				return err
			}
		}
		if err := sys.MarkIdentifier(d.feats[0]); err != nil {
			return err
		}
	}
	for _, r := range [][3]string{
		{cPlayer, pPlaysIn, cTeam},
		{cTeam, pCompetesIn, cLeague},
		{cLeague, pInCountry, cCountry},
		{cPlayer, pHasNationality, cCountry},
	} {
		if err := sys.RelateConcepts(r[0], r[1], r[2]); err != nil {
			return err
		}
	}
	for _, s := range [][2]string{
		{srcPlayers, "Players API"}, {srcTeams, "Teams API"},
		{srcLeagues, "Leagues API"}, {srcCountries, "Countries API"},
	} {
		if err := sys.AddSource(s[0], s[1]); err != nil {
			return err
		}
	}
	return nil
}

// footballWrapper names one of the six base wrappers, its source and its
// payload; the steward workload serves the same payloads over HTTP.
type footballWrapper struct {
	name, source string
	docs         []schema.Doc
}

func footballWrappers(players, teams []schema.Doc) []footballWrapper {
	return []footballWrapper{
		{"w1", srcPlayers, players},
		{"w2", srcTeams, teams},
		{"w3", srcLeagues, paperLeagues()},
		{"w4", srcCountries, paperCountries()},
		{"w5", srcPlayers, paperNationalities()},
		{"w6", srcLeagues, paperLeagueTeams()},
	}
}

// playersMapping is w1's LAV mapping (the red contour of Figure 7); every
// later schema version of the players wrapper reuses it under its own
// wrapper name.
func playersMapping(sys *mdm.System, wrapperName string) mdm.Mapping {
	return mapping(sys, wrapperName,
		[][3]string{
			{cPlayer, rdfType, conceptClass},
			{cPlayer, hasFeature, fPlayerID},
			{cPlayer, hasFeature, fPlayerName},
			{cPlayer, hasFeature, fHeight},
			{cPlayer, hasFeature, fWeight},
			{cPlayer, hasFeature, fRating},
			{cPlayer, hasFeature, fFoot},
			{cPlayer, pPlaysIn, cTeam},
			{cTeam, rdfType, conceptClass},
			{cTeam, hasFeature, fTeamID},
		},
		map[string]string{
			"id": fPlayerID, "pName": fPlayerName, "height": fHeight,
			"weight": fWeight, "score": fRating, "foot": fFoot, "teamId": fTeamID,
		})
}

func mapping(sys *mdm.System, wrapperName string, subgraph [][3]string, sameAs map[string]string) mdm.Mapping {
	m := mdm.Mapping{Wrapper: wrapperName, SameAs: map[string]mdm.Term{}}
	for _, t := range subgraph {
		m.Subgraph = append(m.Subgraph, mdm.T(sys.IRI(t[0]), sys.IRI(t[1]), sys.IRI(t[2])))
	}
	for attr, feat := range sameAs {
		m.SameAs[attr] = sys.IRI(feat)
	}
	return m
}

// footballMappings defines the LAV mappings of w1..w6 (Figure 7).
func footballMappings(sys *mdm.System) error {
	ms := []mdm.Mapping{
		playersMapping(sys, "w1"),
		mapping(sys, "w2",
			[][3]string{
				{cTeam, rdfType, conceptClass},
				{cTeam, hasFeature, fTeamID},
				{cTeam, hasFeature, fTeamName},
				{cTeam, hasFeature, fTeamShort},
			},
			map[string]string{"id": fTeamID, "name": fTeamName, "shortName": fTeamShort}),
		mapping(sys, "w3",
			[][3]string{
				{cLeague, rdfType, conceptClass},
				{cLeague, hasFeature, fLeagueID},
				{cLeague, hasFeature, fLeagueName},
				{cLeague, pInCountry, cCountry},
				{cCountry, rdfType, conceptClass},
				{cCountry, hasFeature, fCountryID},
			},
			map[string]string{"id": fLeagueID, "lName": fLeagueName, "countryId": fCountryID}),
		mapping(sys, "w4",
			[][3]string{
				{cCountry, rdfType, conceptClass},
				{cCountry, hasFeature, fCountryID},
				{cCountry, hasFeature, fCountryName},
			},
			map[string]string{"id": fCountryID, "cName": fCountryName}),
		mapping(sys, "w5",
			[][3]string{
				{cPlayer, rdfType, conceptClass},
				{cPlayer, hasFeature, fPlayerID},
				{cPlayer, pHasNationality, cCountry},
				{cCountry, rdfType, conceptClass},
				{cCountry, hasFeature, fCountryID},
			},
			map[string]string{"id": fPlayerID, "countryId": fCountryID}),
		mapping(sys, "w6",
			[][3]string{
				{cTeam, rdfType, conceptClass},
				{cTeam, hasFeature, fTeamID},
				{cTeam, pCompetesIn, cLeague},
				{cLeague, rdfType, conceptClass},
				{cLeague, hasFeature, fLeagueID},
			},
			map[string]string{"teamId": fTeamID, "leagueId": fLeagueID}),
	}
	for _, m := range ms {
		if err := sys.DefineMapping(m); err != nil {
			return fmt.Errorf("mapping %s: %w", m.Wrapper, err)
		}
	}
	return nil
}

// versionName names schema version v (>= 2) of the players wrapper.
func versionName(v int) string { return fmt.Sprintf("w1_v%d", v) }

// fig8WalkJSON is the Figure 8 walk ("the names of players and their
// teams") as the JSON document POST /api/query and POST /api/walks take.
const fig8WalkJSON = `{"select":[` +
	`{"concept":"` + cTeam + `","feature":"` + fTeamName + `","alias":"teamName"},` +
	`{"concept":"` + cPlayer + `","feature":"` + fPlayerName + `","alias":"playerName"}],` +
	`"relations":[["` + cPlayer + `","` + pPlaysIn + `","` + cTeam + `"]]}`

// fig8Walk is the same walk for direct facade calls.
func fig8Walk(sys *mdm.System) *mdm.Walk {
	return mdm.NewWalk().
		SelectAs(sys.IRI(cTeam), sys.IRI(fTeamName), "teamName").
		SelectAs(sys.IRI(cPlayer), sys.IRI(fPlayerName), "playerName").
		Relate(sys.IRI(cPlayer), sys.IRI(pPlaysIn), sys.IRI(cTeam))
}

// nationalitySPARQL is the paper's exemplary OMQ ("players that play in
// a league of their nationality", Table 1) written in the SPARQL
// fragment POST /api/query/sparql accepts.
const nationalitySPARQL = `PREFIX ex: <` + exNS + `>
PREFIX sc: <` + scNS + `>
PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
SELECT ?playerName ?leagueName ?countryName WHERE {
  ?p rdf:type ex:Player .
  ?p ex:playerName ?playerName .
  ?t rdf:type sc:SportsTeam .
  ?l rdf:type ex:League .
  ?l ex:leagueName ?leagueName .
  ?c rdf:type sc:Country .
  ?c ex:countryName ?countryName .
  ?p ex:playsIn ?t .
  ?t ex:competesIn ?l .
  ?l ex:inCountry ?c .
  ?p ex:hasNationality ?c .
}`
