package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"mdm"
	"mdm/internal/obs"
	"mdm/internal/rest"
)

// opKind says which facade path an op takes; the layer probes replay an
// op as direct calls according to its kind.
type opKind int

const (
	kindWalk       opKind = iota // POST /api/query, JSON walk body
	kindWalkSPARQL               // POST /api/query/sparql
	kindSavedWalk                // POST /api/walks/{name}/run
	kindSPARQL                   // POST /api/sparql
	kindRegister                 // POST /api/wrappers
	kindSuggest                  // GET  /api/mappings/{w}/suggest
	kindDefine                   // POST /api/mappings, body taken from the suggestion
	kindCompact                  // POST /api/admin/compact
	kindRestart                  // Close -> OpenWith -> re-attach wrappers (not HTTP)
)

// op is one scripted request together with its expected answer.
type op struct {
	class  string
	kind   opKind
	id     string // answer identity: ops with equal id must answer byte-identically
	method string
	path   string // URL path and query
	body   []byte
	status int
	rows   int  // closed-form expected row count; -1 when the answer carries no rows
	ndjson bool // rows arrive as NDJSON lines after one header line

	// What the probes need to replay the op without HTTP.
	query         string // SPARQL text (kindSPARQL, kindWalkSPARQL)
	limit, offset int    // page bounds, -1 when absent
	version       int    // steward: the players schema version released by this cycle
}

// spec describes one workload.
type spec struct {
	name    string
	why     string
	clients int
	fsync   string // WAL fsync mode of the system under test, "n/a" for in-memory
	classes []string
	// refShare is how closely the workload's speed follows the reference
	// kernel's: a round's slowness is the kernel's to this power. The walk
	// and metadata workloads follow it one to one (fitted exponents
	// 0.9–1.3 over 30–60 runs each); steward_persist, four fifths of whose
	// time is compaction and reopening (sequential encoding and file
	// writes), loses only 17% where the kernel loses 40% (fitted 0.5–0.8).
	refShare float64
	// traceSize shrinks a round to the traced single-client sample: at
	// least 50 ops of every read class.
	traceSize func(sz size) size
	// build generates the data and constructs the system under test
	// through public APIs, leaving e.sys (in-memory workloads) or a sealed
	// base store (steward) behind.
	build func(e *env) error
	// script returns one round's ops at the given size. Class counts and
	// parameters are the same for every seed; rng only permutes the order.
	script func(e *env, sz size, rng *rand.Rand) []op
	// warm returns the discarded warm-up ops given a round's script.
	warm func(script []op) []op
	// beginRound/endRound bracket every round outside the measured
	// window (steward: open a fresh copy of the base store / close it).
	beginRound func(e *env) error
	endRound   func(e *env) error
	teardown   func(e *env)
}

// size scales the workloads' datasets and scripts: 1 is the benchmark,
// the smoke test runs at a fraction of it.
type size struct {
	evolvedVersions int
	evolvedRepeat   int // ops per weight unit per round
	bulkPlayers     int
	bulkTeams       int
	bulkRepeat      int
	metaConcepts    int
	metaPool        int // distinct query texts per class = ops per class per round
	baseConcepts    int
	cycles          int  // release cycles per steward round; a restart follows cycle cycles/2
	quick           bool // smoke test: one traced round, whatever the class counts
}

var fullSize = size{
	evolvedVersions: 16,
	evolvedRepeat:   100,
	bulkPlayers:     10000,
	bulkTeams:       1000,
	bulkRepeat:      12,
	metaConcepts:    1000,
	metaPool:        256,
	baseConcepts:    3000,
	cycles:          10,
}

const metaFeatures = 8

// env is one constructed system under test, served on a loopback
// listener in this process.
type env struct {
	spec *spec
	size size
	dir  string // scratch directory (persistent workloads)

	sys     *mdm.System
	handler atomic.Pointer[http.Handler]
	srv     *http.Server
	base    string
	client  *http.Client

	tracer *tracer // non-nil only during the traced pass
	// probeReads makes the client probe every read op right after its
	// traced request (see probe.go).
	probeReads bool

	answers   sync.Map // op id -> crc32 of the first answer
	steward   *stewardState
	probeData *probeData
}

// serve starts the loopback HTTP server; the handler is swappable so a
// steward restart keeps the listener and the client connections.
func (e *env) serve() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	e.base = "http://" + ln.Addr().String()
	e.srv = &http.Server{
		Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			(*e.handler.Load()).ServeHTTP(w, r)
		}),
		ReadHeaderTimeout: 5 * time.Second,
	}
	go func() { _ = e.srv.Serve(ln) }()
	e.client = &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: e.spec.clients,
			MaxConnsPerHost:     e.spec.clients,
			DisableCompression:  true,
		},
	}
	return nil
}

// install puts sys behind the REST surface exactly as mdmd deploys it by
// default (slow-query log at 250ms; the log itself is discarded).
func (e *env) install(sys *mdm.System) {
	e.sys = sys
	api := rest.NewServer(sys)
	api.SlowLog = obs.NewSlowLogWriter(io.Discard, 250*time.Millisecond)
	var h http.Handler = api
	if e.tracer != nil {
		h = e.tracer.middleware(api)
	}
	e.handler.Store(&h)
}

func (e *env) close() {
	if e.srv != nil {
		_ = e.srv.Close()
	}
	if e.client != nil {
		e.client.CloseIdleConnections()
	}
	if e.spec.teardown != nil {
		e.spec.teardown(e)
	}
}

// post issues one set-up request and requires a 2xx answer.
func (e *env) post(path string, body []byte) error {
	resp, err := e.client.Post(e.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("POST %s: status %d: %s", path, resp.StatusCode, data)
	}
	return nil
}

// setUp builds a workload's system, starts serving it and runs the
// warm-up pass; it returns how long all of that took.
func setUp(ctx context.Context, sp *spec, sz size, dir string, seed int64) (*env, time.Duration, error) {
	t0 := time.Now()
	e := &env{spec: sp, size: sz, dir: dir}
	if err := e.serve(); err != nil {
		return nil, 0, err
	}
	if err := sp.build(e); err != nil {
		e.close()
		return nil, 0, fmt.Errorf("%s: build: %w", sp.name, err)
	}
	script := sp.script(e, sz, rand.New(rand.NewSource(seed)))
	res, err := e.runRound(ctx, sp.warm(script), sp.clients)
	if err == nil {
		err = e.endRound()
	}
	if err == nil && res.failed > 0 {
		err = fmt.Errorf("%d of %d warm-up ops failed: %v", res.failed, res.ops, res.failures)
	}
	if err != nil {
		e.close()
		return nil, 0, fmt.Errorf("%s: warm-up: %w", sp.name, err)
	}
	return e, time.Since(t0), nil
}

// warmTenth is the warm-up of the stateless workloads: of every class
// the first tenth of its ops in script order, so that the warm-up — and
// with it setup_s — is the same multiset of ops whatever the seed. (The
// first tenth of the whole script was, on omq_bulk, anything from seven
// 7 ms pages to seven 70 ms NDJSON drains.)
func warmTenth(script []op) []op {
	total, taken := map[string]int{}, map[string]int{}
	for i := range script {
		total[script[i].class]++
	}
	var warm []op
	for _, o := range script {
		if taken[o.class] < (total[o.class]+9)/10 {
			taken[o.class]++
			warm = append(warm, o)
		}
	}
	return warm
}
