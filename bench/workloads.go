package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"strconv"

	"mdm"
	"mdm/internal/schema"
	"mdm/internal/wrapper"
)

// specs lists the four workloads in the order BENCHMARK.json names them.
func specs() []*spec {
	return []*spec{omqEvolved(), omqBulk(), metaSPARQL(), stewardPersist()}
}

func specByName(name string) *spec {
	for _, sp := range specs() {
		if sp.name == name {
			return sp
		}
	}
	return nil
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

func queryBody(q string) []byte { return mustJSON(map[string]string{"query": q}) }

func shuffle(ops []op, rng *rand.Rand) []op {
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

// footballInMemory builds the in-memory football system of the two walk
// workloads: the global graph, the six base wrappers over the given
// player and team rows, their LAV mappings, then versions-1 further
// schema versions of the players wrapper, each with its own mapping, and
// the saved Figure 8 walk.
func footballInMemory(e *env, players, teams []schema.Doc, versions int) error {
	sys := mdm.New()
	if err := footballGlobal(sys); err != nil {
		return err
	}
	for _, fw := range footballWrappers(players, teams) {
		if _, err := sys.RegisterWrapper(wrapper.NewMem(fw.name, fw.source, fw.docs, nil)); err != nil {
			return err
		}
	}
	if err := footballMappings(sys); err != nil {
		return err
	}
	for v := 2; v <= versions; v++ {
		w := wrapper.NewMem(versionName(v), srcPlayers, versionPlayers(players, v), nil)
		if _, err := sys.RegisterWrapper(w); err != nil {
			return err
		}
		if err := sys.DefineMapping(playersMapping(sys, w.Name())); err != nil {
			return err
		}
	}
	e.install(sys)
	return e.post("/api/walks", []byte(`{"name":"fig8",`+fig8WalkJSON[1:]))
}

// --- omq_evolved ---

func omqEvolved() *spec {
	return &spec{
		name:      "omq_evolved",
		why:       "the paper's headline path under evolution: 16 CQs per walk over tiny data, so rewriting dominates and encoding is negligible",
		clients:   2,
		fsync:     "n/a",
		refShare:  1,
		classes:   []string{"walk_fig8", "walk_nationality", "saved_fig8"},
		traceSize: func(sz size) size { sz.evolvedRepeat = 50; return sz },
		build: func(e *env) error {
			return footballInMemory(e, paperPlayers(), paperTeams(), e.size.evolvedVersions)
		},
		script: func(e *env, sz size, rng *rand.Rand) []op {
			fig8Rows := len(paperPlayers()) + sz.evolvedVersions - 1
			fig8 := op{class: "walk_fig8", kind: kindWalk, id: "walk_fig8", method: http.MethodPost,
				path: "/api/query", body: []byte(fig8WalkJSON), status: 200, rows: fig8Rows, limit: -1, offset: -1}
			nat := op{class: "walk_nationality", kind: kindWalkSPARQL, id: "walk_nationality", method: http.MethodPost,
				path: "/api/query/sparql", body: queryBody(nationalitySPARQL), status: 200, rows: 2,
				query: nationalitySPARQL, limit: -1, offset: -1}
			saved := op{class: "saved_fig8", kind: kindSavedWalk, id: "saved_fig8", method: http.MethodPost,
				path: "/api/walks/fig8/run", status: 200, rows: fig8Rows, limit: -1, offset: -1}
			var ops []op
			for i := 0; i < sz.evolvedRepeat; i++ {
				ops = append(ops, fig8, fig8, nat, saved)
			}
			return shuffle(ops, rng)
		},
		warm: warmTenth,
	}
}

// --- omq_bulk ---

func omqBulk() *spec {
	return &spec{
		name:      "omq_bulk",
		why:       "same endpoint, opposite profile: 10k-row answers, so wrapper fetch, the federate hash join and REST encoding dominate and rewriting is under 2%",
		clients:   1,
		fsync:     "n/a",
		refShare:  1,
		classes:   []string{"full_json", "full_ndjson", "page50"},
		traceSize: func(sz size) size { sz.bulkRepeat = 50; return sz },
		build: func(e *env) error {
			return footballInMemory(e, bulkPlayers(e.size.bulkPlayers, e.size.bulkTeams), bulkTeams(e.size.bulkTeams), 1)
		},
		script: func(e *env, sz size, rng *rand.Rand) []op {
			n, r := sz.bulkPlayers, sz.bulkRepeat
			var ops []op
			for i := 0; i < r; i++ {
				// Page offsets are a fixed, evenly spaced pool: a page at
				// offset k costs O(k), so seeds must not pick them freely.
				off := i * (n - 50) / r
				ops = append(ops,
					op{class: "full_json", kind: kindWalk, id: "full_json", method: http.MethodPost,
						path: "/api/query", body: []byte(fig8WalkJSON), status: 200, rows: n, limit: -1, offset: -1},
					op{class: "full_ndjson", kind: kindWalk, id: "full_ndjson", method: http.MethodPost,
						path: "/api/query?format=ndjson", body: []byte(fig8WalkJSON), status: 200, rows: n, ndjson: true, limit: -1, offset: -1},
					op{class: "page50", kind: kindWalk, id: "page50/" + strconv.Itoa(off), method: http.MethodPost,
						path: fmt.Sprintf("/api/query?limit=50&offset=%d", off), body: []byte(fig8WalkJSON), status: 200, rows: 50, limit: 50, offset: off},
				)
			}
			return shuffle(ops, rng)
		},
		warm: warmTenth,
	}
}

// --- meta_sparql ---

const sparqlPrefixes = "PREFIX G: <" + gNS + ">\n" +
	"PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>\n" +
	"PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>\n"

func inGlobal(vars, pattern string) string {
	return sparqlPrefixes + "SELECT " + vars + " WHERE { GRAPH <" + globalGraph + "> { " + pattern + " } }"
}

func metaSPARQL() *spec {
	return &spec{
		name:      "meta_sparql",
		why:       "steward introspection: only rest, sparql and rdf run; p50 sits in the paged join (LIMIT pushdown), p95 in the full 8k-row join",
		clients:   2,
		fsync:     "n/a",
		refShare:  1,
		classes:   []string{"lookup", "path", "page_join", "group_by", "full_join"},
		traceSize: func(sz size) size { sz.metaPool = 64; return sz },
		build: func(e *env) error {
			sys := mdm.New()
			if err := buildSynthetic(sys, e.size.metaConcepts, metaFeatures, true); err != nil {
				return err
			}
			e.install(sys)
			return nil
		},
		script: func(e *env, sz size, rng *rand.Rand) []op {
			concepts, pool := sz.metaConcepts, sz.metaPool
			features := concepts * metaFeatures
			sparqlOp := func(class string, j int, q string, rows, limit, offset int) op {
				path := "/api/sparql"
				if limit >= 0 {
					path = fmt.Sprintf("/api/sparql?limit=%d&offset=%d", limit, offset)
				}
				return op{class: class, kind: kindSPARQL, id: class + "/" + strconv.Itoa(j), method: http.MethodPost,
					path: path, body: queryBody(q), status: 200, rows: rows, query: q, limit: limit, offset: offset}
			}
			var ops []op
			for j := 0; j < pool; j++ {
				// Each class draws every text of its pool once per round.
				// Variable names carry j so that the pool is 'pool'
				// distinct texts even where the query shape is fixed.
				c, f := fmt.Sprintf("?c%d", j), fmt.Sprintf("?f%d", j)
				// Parameters depend on j alone, so text j is the same text
				// whatever the pool size (the traced sample uses a prefix).
				pick := j * 3 % concepts
				leaf := concepts - 1 - j
				ops = append(ops,
					sparqlOp("lookup", j, inGlobal("?f", "<"+synthConcept(pick)+"> G:hasFeature ?f"), metaFeatures, -1, -1),
					sparqlOp("path", j, inGlobal("?a", "<"+synthConcept(leaf)+"> rdfs:subClassOf+ ?a"), treeDepth(leaf), -1, -1),
					// Offsets stay small: a page at offset k keeps a top-(k+20)
					// heap, and the class is there for LIMIT pushdown.
					sparqlOp("page_join", j, inGlobal(c+" "+f, c+" rdf:type G:Concept . "+c+" G:hasFeature "+f), 20, 20, j),
					sparqlOp("group_by", j, inGlobal(c+" (COUNT("+f+") AS ?n)", c+" G:hasFeature "+f)+" GROUP BY "+c, concepts, -1, -1),
					sparqlOp("full_join", j, inGlobal(c+" "+f, c+" rdf:type G:Concept . "+c+" G:hasFeature "+f+" . "+f+" rdf:type G:Feature"),
						features, -1, -1),
				)
			}
			return shuffle(ops, rng)
		},
		warm: warmTenth,
	}
}
