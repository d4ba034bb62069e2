package main

import (
	"context"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"mdm"
	"mdm/internal/bdi"
	"mdm/internal/wrapper"
)

// stewardOpts is how the persistent system is opened: the mdmd default
// fsync mode (none) and no background compactor — the script's explicit
// POST /api/admin/compact stands in for the maintenance tick, so byte and
// record counts repeat exactly.
var stewardOpts = mdm.StoreOptions{CompactInterval: 0}

// stewardState is the persistent workload's moving parts.
type stewardState struct {
	payload *payloadServer
	baseDir string // the sealed base store every round starts from
	liveDir string // this round's copy
	round   int
	// attached lists the wrappers the live system knows, in release
	// order; a restart re-attaches them because wrappers are code, not
	// stored data.
	attached []string
}

func stewardPersist() *spec {
	return &spec{
		name:     "steward_persist",
		why:      "writes beside reads on a persistent store: release cycles, explicit compaction and restarts exercise release, bdi, tdb, segment and store while walks and metadata queries keep answering",
		clients:  1,
		fsync:    "none",
		refShare: 2.0 / 3,
		classes:  []string{"register", "suggest", "define", "compact", "saved_fig8", "src_wrappers", "src_attributes", "restart"},
		// A whole round: 80 walks and 40 metadata queries, but only ten of
		// each write class and one restart; more would not fit the run.
		traceSize: func(sz size) size { return sz },
		build:     stewardBuild,
		script:    stewardScript,
		warm: func(script []op) []op {
			// The first release cycle, then a restart.
			var out []op
			for _, o := range script {
				if o.version == 2 || o.kind == kindRestart {
					out = append(out, o)
				}
			}
			return out
		},
		beginRound: stewardBeginRound,
		endRound:   stewardEndRound,
		teardown: func(e *env) {
			if e.steward != nil && e.steward.payload != nil {
				e.steward.payload.close()
			}
			_ = os.RemoveAll(e.dir)
		},
	}
}

// stewardBuild generates the payloads, then builds and seals the base
// store: baseConcepts × 8 features of steward metadata plus the football
// ontology over HTTP wrappers, and the saved Figure 8 walk.
func stewardBuild(e *env) error {
	st := &stewardState{baseDir: filepath.Join(e.dir, "base")}
	e.steward = st
	payloads := map[string][]byte{}
	for _, fw := range footballWrappers(paperPlayers(), paperTeams()) {
		payloads[fw.name] = docsJSON(fw.docs)
	}
	for v := 2; v <= e.size.cycles+1; v++ {
		payloads[versionName(v)] = docsJSON(versionPlayers(paperPlayers(), v))
	}
	var err error
	if st.payload, err = startPayloadServer(payloads); err != nil {
		return err
	}
	if err := os.RemoveAll(e.dir); err != nil {
		return err
	}
	sys, err := mdm.OpenWith(st.baseDir, stewardOpts)
	if err != nil {
		return err
	}
	if err := buildSynthetic(sys, e.size.baseConcepts, metaFeatures, false); err != nil {
		return err
	}
	if err := footballGlobal(sys); err != nil {
		return err
	}
	for _, fw := range footballWrappers(nil, nil) {
		w, err := st.httpWrapper(fw.name, fw.source)
		if err != nil {
			return err
		}
		if _, err := sys.RegisterWrapper(w); err != nil {
			return err
		}
	}
	if err := footballMappings(sys); err != nil {
		return err
	}
	e.install(sys)
	if err := e.post("/api/walks", []byte(`{"name":"fig8",`+fig8WalkJSON[1:])); err != nil {
		return err
	}
	return sys.Close() // compacts: the base store is one sealed segment
}

func (st *stewardState) httpWrapper(name, source string) (*wrapper.HTTP, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return wrapper.NewHTTP(ctx, name, source, st.payload.url(name))
}

// sourceOf names the data source of a wrapper the steward workload knows.
func sourceOf(name string) string {
	for _, fw := range footballWrappers(nil, nil) {
		if fw.name == name {
			return fw.source
		}
	}
	return srcPlayers // every later wrapper is a players schema version
}

// openLive opens the live directory and re-attaches the given wrappers to
// the registry (the ontology already describes them).
func (e *env) openLive(names []string) (*mdm.System, error) {
	sys, err := mdm.OpenWith(e.steward.liveDir, stewardOpts)
	if err != nil {
		return nil, err
	}
	if err := e.attach(sys, names); err != nil {
		sys.Close()
		return nil, err
	}
	return sys, nil
}

// attach builds an HTTP wrapper for every name and registers it with
// sys's wrapper registry, behind the fetch decorator while tracing.
func (e *env) attach(sys *mdm.System, names []string) error {
	for _, name := range names {
		w, err := e.steward.httpWrapper(name, sourceOf(name))
		if err != nil {
			return err
		}
		var reg wrapper.Wrapper = w
		if e.tracer != nil {
			reg = e.tracer.wrap(w)
		}
		if err := sys.Wrappers().Register(reg); err != nil {
			return err
		}
	}
	return nil
}

func stewardBeginRound(e *env) error {
	st := e.steward
	st.round++
	st.liveDir = filepath.Join(e.dir, "round-"+strconv.Itoa(st.round))
	if err := copyDir(st.baseDir, st.liveDir); err != nil {
		return err
	}
	st.attached = st.attached[:0]
	for _, fw := range footballWrappers(nil, nil) {
		st.attached = append(st.attached, fw.name)
	}
	sys, err := e.openLive(st.attached)
	if err != nil {
		return err
	}
	e.install(sys)
	return nil
}

func stewardEndRound(e *env) error {
	err := e.sys.Close()
	if rerr := os.RemoveAll(e.steward.liveDir); err == nil {
		err = rerr
	}
	return err
}

// released notes a wrapper the REST surface just registered, so that a
// restart re-attaches it; during the traced pass it is also put behind
// the fetch decorator (it is the latest release, so re-registering it
// keeps the release order).
func (e *env) released(name string) error {
	e.steward.attached = append(e.steward.attached, name)
	if e.tracer == nil {
		return nil
	}
	reg := e.sys.Wrappers()
	w, ok := reg.Get(name)
	if !ok {
		return fmt.Errorf("released wrapper %s is not registered", name)
	}
	reg.Remove(name)
	return reg.Register(e.tracer.wrap(w))
}

// storeFingerprint is what must survive a restart unchanged: the triple
// count and the answer to a fixed metadata query.
func (e *env) storeFingerprint() (string, error) {
	res, err := e.sys.SPARQL("SELECT ?w ?a WHERE { GRAPH <" + sourceGraph + "> { ?w <" + hasAttribute + "> ?a } }")
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%d triples, %d rows, crc %08x",
		e.sys.Ontology().Dataset().Len(), res.Len(), crc32.ChecksumIEEE([]byte(res.Table()))), nil
}

// restart is the steward workload's restart op: Close, OpenWith,
// re-attach every wrapper; its latency covers exactly those. It then
// asserts that the store answers as it did before.
func (e *env) restart(ctx context.Context) (time.Duration, error) {
	before, err := e.storeFingerprint()
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	if err := e.sys.Close(); err != nil {
		return 0, fmt.Errorf("restart: close: %w", err)
	}
	sys, err := e.openLive(e.steward.attached)
	if err != nil {
		return 0, fmt.Errorf("restart: open: %w", err)
	}
	lat := time.Since(t0)
	e.install(sys)
	after, err := e.storeFingerprint()
	if err != nil {
		return lat, err
	}
	if before != after {
		return lat, fmt.Errorf("restart changed the store: %s before, %s after", before, after)
	}
	return lat, ctx.Err()
}

// stewardScript is one round: cycles release cycles with a restart in the
// middle. Cycle c releases players schema version v = c+2:
//
//	register, suggest, define   the release
//	compact                     the only durability point REST offers
//	8 saved walks, 4 metadata queries over the source graph
//
// Writes keep their order; rng permutes the twelve reads of each cycle.
// Every expectation is a closed form in v. Eight walks to four queries
// (not six to six) because the median op of a round must lie well inside
// one class: at six to six it is the boundary between the sub-millisecond
// calls and the slowest release call, and latency_p50_ms jumps by a
// factor of three from run to run; at eight to four it is a walk.
func stewardScript(e *env, sz size, rng *rand.Rand) []op {
	st := e.steward
	players := bdi.SourceIRI(srcPlayers).Value
	wrappersQ := "SELECT ?w WHERE { GRAPH <" + sourceGraph + "> { <" + players + "> <" + hasWrapper + "> ?w } }"
	attrsQ := "SELECT ?w ?a WHERE { GRAPH <" + sourceGraph + "> { <" + players + "> <" + hasWrapper + "> ?w . ?w <" + hasAttribute + "> ?a } }"
	var ops []op
	for c := 0; c < sz.cycles; c++ {
		v := c + 2
		name, prev, tag := versionName(v), versionName(v-1), "/v"+strconv.Itoa(v)
		if v == 2 {
			prev = "w1"
		}
		ops = append(ops,
			op{class: "register", kind: kindRegister, id: "register" + tag, method: http.MethodPost, path: "/api/wrappers",
				body:   mustJSON(map[string]string{"name": name, "source": srcPlayers, "url": st.payload.url(name)}),
				status: 201, rows: -1, version: v},
			op{class: "suggest", kind: kindSuggest, id: "suggest" + tag, method: http.MethodGet,
				path: "/api/mappings/" + name + "/suggest?from=" + prev, status: 200, rows: -1, version: v},
			op{class: "define", kind: kindDefine, id: "define" + tag, method: http.MethodPost, path: "/api/mappings",
				status: 201, rows: -1, version: v},
			op{class: "compact", kind: kindCompact, id: "compact", method: http.MethodPost, path: "/api/admin/compact",
				status: 200, rows: -1, version: v},
		)
		// With versions 1..v released: the walk unions v payloads that
		// each add one player; the players source has v version wrappers
		// plus w5; version k has k+6 attributes and w5 two.
		reads := make([]op, 0, 12)
		for i := 0; i < 8; i++ {
			reads = append(reads, op{class: "saved_fig8", kind: kindSavedWalk, id: "saved_fig8" + tag, method: http.MethodPost,
				path: "/api/walks/fig8/run", status: 200, rows: len(paperPlayers()) + v - 1, limit: -1, offset: -1, version: v})
		}
		for i := 0; i < 2; i++ {
			reads = append(reads,
				op{class: "src_wrappers", kind: kindSPARQL, id: "src_wrappers" + tag, method: http.MethodPost, path: "/api/sparql",
					body: queryBody(wrappersQ), status: 200, rows: v + 1, query: wrappersQ, limit: -1, offset: -1, version: v},
				op{class: "src_attributes", kind: kindSPARQL, id: "src_attributes" + tag, method: http.MethodPost, path: "/api/sparql",
					body: queryBody(attrsQ), status: 200, rows: v*(v+1)/2 + 6*v + 2, query: attrsQ, limit: -1, offset: -1, version: v})
		}
		ops = append(ops, shuffle(reads, rng)...)
		if c+1 == sz.cycles/2 {
			ops = append(ops, op{class: "restart", kind: kindRestart, id: "restart", rows: -1})
		}
	}
	return ops
}

// copyDir copies a directory tree of regular files.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, ierr := d.Info(); ierr == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}
