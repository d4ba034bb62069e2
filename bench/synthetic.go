package main

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"

	"mdm"
	"mdm/internal/relalg"
	"mdm/internal/schema"
)

const synthNS = "http://bench.mdm.example/onto/"

func synthConcept(i int) string    { return fmt.Sprintf("%sC%d", synthNS, i) }
func synthFeature(i, j int) string { return fmt.Sprintf("%sc%d_f%d", synthNS, i, j) }

// buildSynthetic declares concepts × features of steward metadata through
// the facade: concept i has features f0..f(features-1) with f0 its
// identifier, a chain relation C(i-1) —next→ C(i), and, when tree is
// set, a 3-ary rdfs:subClassOf tree (parent of i is (i-1)/3). That is
// 3·features+5 triples per concept in the global graph.
func buildSynthetic(sys *mdm.System, concepts, features int, tree bool) error {
	for i := 0; i < concepts; i++ {
		c := synthConcept(i)
		if err := sys.AddConcept(c, fmt.Sprintf("Concept %d", i)); err != nil {
			return err
		}
		for j := 0; j < features; j++ {
			f := synthFeature(i, j)
			if err := sys.AddFeature(f, fmt.Sprintf("c%d_f%d", i, j)); err != nil {
				return err
			}
			if err := sys.AttachFeature(c, f); err != nil {
				return err
			}
		}
		if err := sys.MarkIdentifier(synthFeature(i, 0)); err != nil {
			return err
		}
		if i == 0 {
			continue
		}
		if err := sys.RelateConcepts(synthConcept(i-1), synthNS+"next", c); err != nil {
			return err
		}
		if tree {
			if err := sys.AddSubClass(c, synthConcept((i-1)/3)); err != nil {
				return err
			}
		}
	}
	return nil
}

// treeDepth is the number of proper ancestors of concept i in the 3-ary
// subclass tree: the closed-form row count of `C(i) subClassOf+ ?a`.
func treeDepth(i int) int {
	d := 0
	for ; i > 0; i = (i - 1) / 3 {
		d++
	}
	return d
}

// versionPlayers is the payload of schema version v of the players
// source: the base rows plus one player first seen in that version, every
// row carrying the attributes ext_2..ext_v that versions 2..v each added
// (one non-breaking addition per release). Version 1 is the base payload.
// With versions 1..v registered the Figure 8 walk therefore answers
// len(base) + v - 1 distinct rows, and version v's signature has
// 7 + v - 1 attributes.
func versionPlayers(base []schema.Doc, v int) []schema.Doc {
	if v < 2 {
		return base
	}
	docs := make([]schema.Doc, 0, len(base)+1)
	for _, d := range base {
		nd := make(schema.Doc, len(d)+v)
		for k, val := range d {
			nd[k] = val
		}
		docs = append(docs, nd)
	}
	docs = append(docs, row("id", 100000+v, "pName", fmt.Sprintf("Release %d Signing", v),
		"height", 181.5, "weight", 165, "score", 70, "foot", "left", "teamId", 25))
	for _, d := range docs {
		for e := 2; e <= v; e++ {
			d[fmt.Sprintf("ext_%d", e)] = relalg.String(fmt.Sprintf("e%d", e))
		}
	}
	return docs
}

// docsJSON renders documents as the JSON array a REST source would serve.
func docsJSON(docs []schema.Doc) []byte {
	out := make([]map[string]any, len(docs))
	for i, d := range docs {
		m := make(map[string]any, len(d))
		for k, v := range d {
			switch v.T {
			case relalg.TypeString:
				m[k] = v.S
			case relalg.TypeInt:
				m[k] = v.I
			case relalg.TypeFloat:
				m[k] = v.F
			case relalg.TypeBool:
				m[k] = v.B
			}
		}
		out[i] = m
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // maps of scalars always marshal
	}
	return b
}

// payloadServer is the bench-owned loopback source provider of the
// steward workload: it serves fixed JSON payloads at /<wrapper name>.
type payloadServer struct {
	srv      *http.Server
	base     string
	payloads map[string][]byte
}

func startPayloadServer(payloads map[string][]byte) (*payloadServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &payloadServer{base: "http://" + ln.Addr().String(), payloads: payloads}
	p.srv = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, ok := p.payloads[r.URL.Path[1:]]
		if !ok {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(body)
	})}
	go func() { _ = p.srv.Serve(ln) }()
	return p, nil
}

func (p *payloadServer) url(name string) string { return p.base + "/" + name }

func (p *payloadServer) close() { _ = p.srv.Close() }
