package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"mdm"
	"mdm/internal/rdf"
	"mdm/internal/schema"
	"mdm/internal/sparql"
	"mdm/internal/store"
	"mdm/internal/tdb"
	"mdm/internal/tdb/segment"
	"mdm/internal/wrapper"
)

// The layer probes replay the ops of the traced sample as direct calls
// into each layer's public functions, with the same inputs the requests
// carried, and record the same span records as the in-line tracer. An
// op's facade calls form one mdm.call span; the layers beneath it are
// then replayed one by one (their spans name mdm.call as parent but are
// recorded after it, not inside it), so that
//
//	mdm self = mdm.call − its replayed children
//	federate.run self = federate.run − the wrapper.fetch spans inside it
//
// Every probe runs on the live system of the workload. A read op (a walk
// or a metadata query) is probed right after its traced request, on the
// same state and within the same milliseconds, because rest self time is
// the in-line handler span minus the probe's mdm.call and this sandbox's
// speed drifts between passes. A write op cannot be replayed beside its
// request (the release already happened), so on the steward workload the
// writes are probed in a round of their own, in script order.
//
// Allocations are counted in yet another replay (runtime.ReadMemStats
// around one Rewrite, one cached-plan drain), apart from every timed call:
// ReadMemStats stops the world and flushes every allocation cache, which
// slows the calls after it.

// probeData is what the probes learn besides spans.
type probeData struct {
	ops            int
	countAllocs    bool        // the allocation-counting replay is running
	rewriteAllocs  uint64      // Mallocs over every Rewrite of the round
	execAllocs     uint64      // Mallocs over every cached-plan SPARQL drain
	mapping        mdm.Mapping // the pending suggestion (steward)
	compactions    int
	compactBytes   int64
	walRecords     int
	releases       int
	diskBytes      int64
	diskTriples    int
	matchNs        int64
	matchTriples   int
	triples, terms int
}

func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// timed runs f and records it as a span of the op in flight.
func (e *env) timed(name, parent string, f func() error) error {
	start := time.Now()
	err := f()
	e.tracer.record(span{Name: name, Parent: parent}, start, time.Now())
	return err
}

func (k opKind) isRead() bool {
	return k == kindWalk || k == kindWalkSPARQL || k == kindSavedWalk || k == kindSPARQL
}

// countAllocs replays script once only to count the allocations of its
// rewrites and cached-plan drains; its spans are dropped.
func (e *env) countAllocs(ctx context.Context, script []op) error {
	e.probeData = &probeData{ops: len(script), countAllocs: true}
	err := e.replay(ctx, script, func(opKind) bool { return true })
	e.tracer.take()
	*e.probeData = probeData{ops: len(script),
		rewriteAllocs: e.probeData.rewriteAllocs, execAllocs: e.probeData.execAllocs}
	return err
}

// replay probes the ops of script whose kind keep accepts, as a round of
// its own.
func (e *env) replay(ctx context.Context, script []op, keep func(opKind) bool) error {
	if e.spec.beginRound != nil {
		if err := e.spec.beginRound(e); err != nil {
			return err
		}
	}
	for i := range script {
		if o := &script[i]; keep(o.kind) {
			e.tracer.begin(i, o.class)
			if err := e.probeOp(ctx, o); err != nil {
				return err
			}
		}
	}
	e.probeDataset()
	return e.endRound()
}

// probeOp replays one op through direct calls.
func (e *env) probeOp(ctx context.Context, o *op) error {
	settle()
	e.tracer.probing = true
	defer func() { e.tracer.probing = false }()
	var err error
	switch o.kind {
	case kindWalk, kindWalkSPARQL, kindSavedWalk:
		err = e.probeWalk(ctx, o)
	case kindSPARQL:
		err = e.probeSPARQL(ctx, o)
	case kindRegister:
		err = e.probeRegister(o)
	case kindSuggest:
		err = e.probeSuggest(o)
	case kindDefine:
		err = e.timed("mdm.call", "rest.handler", func() error {
			return e.timed("bdi.define_mapping", "mdm.call", func() error { return e.sys.DefineMapping(e.probeData.mapping) })
		})
	case kindCompact:
		err = e.probeCompact()
	case kindRestart:
		err = e.probeRestart()
	}
	if err != nil {
		return fmt.Errorf("probe %s: %w", o.id, err)
	}
	return nil
}

func (e *env) probeWalk(ctx context.Context, o *op) error {
	sys := e.sys
	opts := mdm.QueryOpts{Limit: o.limit, Offset: o.offset}
	var walk *mdm.Walk
	var rows int

	if e.probeData.countAllocs {
		walk = fig8Walk(sys)
		if o.kind == kindWalkSPARQL {
			var err error
			if walk, err = sys.WalkFromSPARQL(o.query); err != nil {
				return err
			}
		}
		m0 := mallocs()
		_, err := sys.Rewrite(walk)
		e.probeData.rewriteAllocs += mallocs() - m0
		return err
	}

	// The facade calls the handler makes, back to back.
	err := e.timed("mdm.call", "rest.handler", func() error {
		switch o.kind {
		case kindWalkSPARQL:
			if err := e.timed("rewrite.parse", "mdm.call", func() (err error) {
				walk, err = sys.WalkFromSPARQL(o.query)
				return err
			}); err != nil {
				return err
			}
		case kindSavedWalk:
			if err := e.timed("store.find", "mdm.call", func() error {
				if _, ok := sys.Metadata().FindOne("walks", store.Doc{"name": "fig8"}); !ok {
					return fmt.Errorf("saved walk fig8 not found")
				}
				return nil
			}); err != nil {
				return err
			}
			walk = fig8Walk(sys)
		default:
			walk = fig8Walk(sys)
		}
		cur, _, err := sys.QueryRun(ctx, walk, opts)
		if err != nil {
			return err
		}
		defer cur.Close()
		for cur.Next(ctx) {
			rows++
		}
		return cur.Err()
	})
	if err != nil {
		return err
	}
	if rows != o.rows {
		return fmt.Errorf("facade answered %d rows, want %d", rows, o.rows)
	}

	// The layers beneath, replayed one at a time.
	start := time.Now()
	res, err := sys.Rewrite(walk)
	end := time.Now()
	if err != nil {
		return err
	}
	e.tracer.record(span{Name: "rewrite.rewrite", Parent: "mdm.call", N: len(res.CQs)}, start, end)

	var cur *mdm.WalkCursor
	if err := e.timed("federate.run", "mdm.call", func() (err error) {
		cur, err = sys.Federation().RunWith(ctx, res.Plan, opts)
		return err
	}); err != nil {
		return err
	}
	defer cur.Close()
	start = time.Now()
	rows = 0
	for cur.Next(ctx) {
		rows++
	}
	e.tracer.record(span{Name: "federate.drain", Parent: "mdm.call", Rows: rows}, start, time.Now())
	return cur.Err()
}

// pagedQuery parses an op's query and applies its page override, as
// System.SPARQLPage does.
func pagedQuery(o *op) (*sparql.Query, error) {
	q, err := sparql.Parse(o.query)
	if err != nil {
		return nil, err
	}
	if o.limit >= 0 {
		q.Limit = o.limit
	}
	if o.offset >= 0 {
		q.Offset = o.offset
	}
	return q, nil
}

func drainSPARQL(ctx context.Context, cur *sparql.Cursor) (rows int, err error) {
	defer cur.Close()
	for cur.Next(ctx) {
		rows++
	}
	return rows, cur.Err()
}

func (e *env) probeSPARQL(ctx context.Context, o *op) error {
	sys := e.sys
	ds := sys.Ontology().Dataset()
	var rows int

	if e.probeData.countAllocs {
		q, err := pagedQuery(o)
		if err != nil {
			return err
		}
		c1, err := sparql.EvalCursor(ds, q) // compiles the plan onto q
		if err != nil {
			return err
		}
		c1.Close()
		m0 := mallocs()
		c2, err := sparql.EvalCursor(ds, q)
		if err != nil {
			return err
		}
		_, err = drainSPARQL(ctx, c2)
		e.probeData.execAllocs += mallocs() - m0
		return err
	}

	if err := e.timed("mdm.call", "rest.handler", func() error {
		cur, err := sys.SPARQLPage(o.query, o.limit, o.offset)
		if err != nil {
			return err
		}
		rows, err = drainSPARQL(ctx, cur)
		return err
	}); err != nil {
		return err
	}
	if rows != o.rows {
		return fmt.Errorf("facade answered %d rows, want %d", rows, o.rows)
	}

	var q *sparql.Query
	if err := e.timed("sparql.parse", "mdm.call", func() (err error) {
		q, err = pagedQuery(o)
		return err
	}); err != nil {
		return err
	}
	// Planning cost is what a fresh Query pays over a re-evaluated one
	// (which finds its compiled plan cached on the Query).
	start := time.Now()
	c1, err := sparql.EvalCursor(ds, q)
	fresh := time.Since(start)
	if err != nil {
		return err
	}
	c1.Close()
	start = time.Now()
	c2, err := sparql.EvalCursor(ds, q)
	if err != nil {
		return err
	}
	cached := time.Since(start)
	rows, err = drainSPARQL(ctx, c2)
	end := time.Now()
	if err != nil {
		return err
	}
	// The plan span is a difference of two durations, not an interval
	// that was observed; it is placed right before the execution.
	e.tracer.record(span{Name: "sparql.plan", Parent: "mdm.call"}, start.Add(-max(fresh-cached, 0)), start)
	e.tracer.record(span{Name: "sparql.exec", Parent: "mdm.call", Rows: rows}, start, end)
	return nil
}

func (e *env) probeRegister(o *op) error {
	st := e.steward
	name := versionName(o.version)
	err := e.timed("mdm.call", "rest.handler", func() error {
		// What wrapper.NewHTTP does to the sample, on its own.
		if err := e.timed("schema.extract", "mdm.call", func() error {
			_, _, err := schema.ExtractSignature(name, schema.FormatJSON, st.payload.payloads[name])
			return err
		}); err != nil {
			return err
		}
		var w *wrapper.HTTP
		if err := e.timed("wrapper.new_http", "mdm.call", func() (err error) {
			w, err = st.httpWrapper(name, srcPlayers)
			return err
		}); err != nil {
			return err
		}
		return e.timed("release.register", "mdm.call", func() error {
			_, err := e.sys.RegisterWrapper(e.tracer.wrap(w))
			return err
		})
	})
	st.attached = append(st.attached, name)
	e.probeData.releases++
	return err
}

func (e *env) probeSuggest(o *op) error {
	name, prev := versionName(o.version), versionName(o.version-1)
	if o.version == 2 {
		prev = "w1"
	}
	return e.timed("mdm.call", "rest.handler", func() error {
		return e.timed("release.suggest", "mdm.call", func() (err error) {
			e.probeData.mapping, _, err = e.sys.SuggestMapping(prev, name)
			return err
		})
	})
}

func segFiles(dir string) map[string]int64 {
	out := map[string]int64{}
	entries, _ := os.ReadDir(dir)
	for _, ent := range entries {
		if info, err := ent.Info(); err == nil && !ent.IsDir() {
			out[ent.Name()] = info.Size()
		}
	}
	return out
}

func (e *env) probeCompact() error {
	pd := e.probeData
	ontDir := filepath.Join(e.steward.liveDir, "ontology")
	before := segFiles(ontDir)
	pd.walRecords += e.sys.Storage().WALRecords()
	err := e.timed("mdm.call", "rest.handler", func() error {
		return e.timed("tdb.compact", "mdm.call", e.sys.CompactStorage)
	})
	for name, size := range segFiles(ontDir) {
		if strings.HasSuffix(name, ".seg") {
			if _, old := before[name]; !old {
				pd.compactBytes += size
			}
		}
	}
	pd.compactions++
	return err
}

// probeRestart times the restart's parts: the closing compaction, then
// the storage engines' cold opens alone (tdb, the metadata store, one
// segment load), then the facade open and the wrapper re-attachment.
func (e *env) probeRestart() error {
	st, pd := e.steward, e.probeData
	ontDir := filepath.Join(st.liveDir, "ontology")
	err := e.timed("mdm.call", "rest.handler", func() error {
		if err := e.timed("tdb.close", "mdm.call", e.sys.Close); err != nil {
			return err
		}
		var sys *mdm.System
		if err := e.timed("mdm.open", "mdm.call", func() (err error) {
			sys, err = mdm.OpenWith(st.liveDir, stewardOpts)
			return err
		}); err != nil {
			return err
		}
		e.sys = sys
		return e.timed("wrapper.new_http", "mdm.call", func() error { return e.attach(sys, st.attached) })
	})
	if err != nil {
		return err
	}
	e.install(e.sys)

	// Replays on a copy, so the live store is left alone.
	scratch := filepath.Join(e.dir, "probe-open")
	defer os.RemoveAll(scratch)
	if err := copyDir(st.liveDir, scratch); err != nil {
		return err
	}
	if err := e.timed("tdb.open", "mdm.open", func() error {
		ts, err := tdb.OpenWith(filepath.Join(scratch, "ontology"), stewardOpts)
		if err != nil {
			return err
		}
		return ts.Close()
	}); err != nil {
		return err
	}
	if err := e.timed("store.open", "mdm.open", func() error {
		_, err := store.Open(filepath.Join(scratch, "meta"))
		return err
	}); err != nil {
		return err
	}
	ds := e.sys.Ontology().Dataset()
	segPath := filepath.Join(scratch, "probe.seg")
	if err := e.timed("segment.write", "tdb.compact", func() error {
		_, err := segment.WriteFile(segPath, segment.DatasetOps(ds))
		return err
	}); err != nil {
		return err
	}
	if err := e.timed("segment.load", "tdb.open", func() error {
		_, err := segment.LoadFile(segPath, rdf.NewDataset())
		return err
	}); err != nil {
		return err
	}
	pd.diskBytes = dirBytes(ontDir)
	pd.diskTriples = ds.Len()
	return nil
}

// probeDataset measures the rdf layer on the workload's hot pattern —
// every (?, hasFeature, ?) of the global graph, or every (?,
// hasAttribute, ?) of the source graph on the steward workload — and
// sizes the dataset.
func (e *env) probeDataset() {
	pd := e.probeData
	ds := e.sys.Ontology().Dataset()
	pd.triples, pd.terms = ds.Len(), ds.Dict().Len()
	graph, pred := globalGraph, hasFeature
	if e.steward != nil {
		graph, pred = sourceGraph, hasAttribute
	}
	g, ok := ds.Lookup(rdf.IRI(graph))
	if !ok {
		return
	}
	p, ok := g.IDOf(rdf.IRI(pred))
	if !ok {
		return
	}
	const passes = 20
	start := time.Now()
	n := 0
	for i := 0; i < passes; i++ {
		g.EachMatchIDs(rdf.AnyID, p, rdf.AnyID, func(_, _, _ rdf.TermID) bool { n++; return true })
	}
	pd.matchNs, pd.matchTriples = int64(time.Since(start)), n
}
