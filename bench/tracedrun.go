package main

import (
	"context"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"time"
)

// tracedResult is what the traced pass and the probes add to a run.
type tracedResult struct {
	perLayer    map[string]metric
	file        string
	ops, failed int
	failures    []string
}

// agg sums the spans of one name.
type agg struct {
	ns   int64
	n    int
	rows int
	cqs  int
}

// aggregate sums spans by name and by (name, class).
func aggregate(spans []span) (byName map[string]*agg, byClass map[[2]string]*agg) {
	byName, byClass = map[string]*agg{}, map[[2]string]*agg{}
	for _, s := range spans {
		key := [2]string{s.Name, s.Class}
		if byName[s.Name] == nil {
			byName[s.Name] = &agg{}
		}
		if byClass[key] == nil {
			byClass[key] = &agg{}
		}
		for _, a := range []*agg{byName[s.Name], byClass[key]} {
			a.ns += s.EndNs - s.StartNs
			a.n++
			a.rows += s.Rows
			a.cqs += s.N
		}
	}
	return byName, byClass
}

// traceFile is the document written to trace_<workload>.json.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	// Inline spans come from the traced single-client pass: client.request
	// contains rest.handler (middleware) contains wrapper.fetch
	// (decorator), nested by time. Probe spans come from the replay of
	// the same ops as direct calls (probe.go); each names its parent, and
	// replayed children are recorded after their parent, not inside it.
	Inline []span `json:"inline_spans"`
	Probe  []span `json:"probe_spans"`
	// MetricsDeltas is GET /metrics after minus before the untraced
	// multi-client pass (counters and histogram sums/counts that moved).
	MetricsDeltas map[string]float64 `json:"metrics_deltas"`
	// LayerSelfUs is each layer's self time per op; its sum over the
	// client.request mean is bench.self_time_coverage_pct.
	LayerSelfUs map[string]float64 `json:"layer_self_us_per_op"`
	// Classes gives, per op class, the mean client.request and
	// rest.handler spans (traced pass) and the mean mdm.call (probes).
	Classes  map[string]map[string]float64 `json:"class_mean_us"`
	PerLayer map[string]metric             `json:"per_layer"`
}

// tracedRun is the second, traced part of a run: an untraced
// single-client pass over a fixed sample, the same sample with the
// in-line tracer on, then the layer probes; from those and the /metrics
// deltas of the untraced multi-client pass it derives every per-layer
// metric. End-to-end metrics never come from here.
func (e *env) tracedRun(ctx context.Context, cfg config, script []op, passA *passResult, deltas map[string]float64) (*tracedResult, error) {
	if !e.size.quick {
		script = e.spec.script(e, e.spec.traceSize(e.size), rand.New(rand.NewSource(cfg.seed)))
	}
	passB, err := e.runPass(ctx, script, 1, time.Hour, 1)
	if err != nil {
		return nil, err
	}

	stateless := e.spec.beginRound == nil
	e.tracer = newTracer()
	if stateless {
		e.install(e.sys)
		if err := e.tracer.decorate(e.sys); err != nil {
			return nil, err
		}
	}
	if err := e.countAllocs(ctx, script); err != nil {
		return nil, err
	}
	e.probeReads = true
	passC, err := e.runPass(ctx, script, 1, time.Hour, 1)
	e.probeReads = false
	if err != nil {
		return nil, err
	}
	if stateless {
		e.probeDataset()
	} else if err := e.replay(ctx, script, func(k opKind) bool { return !k.isRead() }); err != nil {
		return nil, err
	}
	var inline, probe []span
	for _, s := range e.tracer.take() {
		if s.probe {
			probe = append(probe, s)
		} else {
			inline = append(inline, s)
		}
	}
	e.tracer = nil
	if stateless {
		e.install(e.sys)
	}

	res := &tracedResult{
		ops: passB.ops + passC.ops, failed: passB.failed + passC.failed,
		failures: append(passB.failures, passC.failures...),
	}
	tf := &traceFile{Workload: e.spec.name, Seed: cfg.seed, Inline: inline, Probe: probe, MetricsDeltas: deltas}
	e.perLayer(tf, passA, &passB, &passC)
	res.perLayer = tf.PerLayer

	if err := os.MkdirAll(cfg.traceDir, 0o755); err != nil {
		return nil, err
	}
	res.file = filepath.Join(cfg.traceDir, "trace_"+e.spec.name+".json")
	data, err := json.Marshal(tf)
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(res.file, data, 0o644); err != nil {
		return nil, err
	}
	return res, nil
}

// perLayer derives the per-layer metrics. "Per op" always divides by
// every op of the sample, whichever classes reach the layer, so that
// layer times add up to the request time.
func (e *env) perLayer(tf *traceFile, passA, passB, passC *passResult) {
	in, inClass := aggregate(tf.Inline)
	pr, prClass := aggregate(tf.Probe)
	pd := e.probeData
	opsA, opsC, opsP := float64(passA.ops), float64(passC.ops), float64(pd.ops)
	get := func(m map[string]*agg, name string) *agg {
		if a := m[name]; a != nil {
			return a
		}
		return &agg{}
	}
	usC := func(name string) float64 { return float64(get(in, name).ns) / 1e3 / opsC }
	usP := func(name string) float64 { return float64(get(pr, name).ns) / 1e3 / opsP }
	meanMs := func(name string) float64 {
		a := get(pr, name)
		if a.n == 0 {
			return 0
		}
		return float64(a.ns) / 1e6 / float64(a.n)
	}
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}

	request := usC("client.request")
	handler := usC("rest.handler") + usC("bench.restart")
	call := usP("mdm.call")
	var children int64
	for _, s := range tf.Probe {
		if s.Parent == "mdm.call" {
			children += s.EndNs - s.StartNs
		}
	}

	// federate.run self: the run minus what the wrapper fetches inside
	// it cover (they overlap each other: the scatter is concurrent).
	byOp := map[int][]span{}
	for _, s := range tf.Probe {
		if s.Name == "wrapper.fetch" {
			byOp[s.OpID] = append(byOp[s.OpID], s)
		}
	}
	var scatterSelf, probeFetch int64
	for _, s := range tf.Probe {
		if s.Name == "federate.run" {
			c := covered(byOp[s.OpID], s.StartNs, s.EndNs)
			scatterSelf += s.EndNs - s.StartNs - c
			probeFetch += c
		}
	}

	// rest self per 1000 rows on the two full-drain encodings.
	perKrow := func(class string) float64 {
		h, c := inClass[[2]string{"rest.handler", class}], prClass[[2]string{"mdm.call", class}]
		d := prClass[[2]string{"federate.drain", class}]
		if h == nil || c == nil || d == nil || d.rows == 0 {
			return 0
		}
		self := float64(h.ns)/float64(h.n) - float64(c.ns)/float64(c.n)
		return max(self, 0) / 1e3 / (float64(d.rows) / float64(d.n)) * 1000
	}

	hits, misses := tf.MetricsDeltas[`mdm_sparql_plan_cache_total{result="hit"}`], tf.MetricsDeltas[`mdm_sparql_plan_cache_total{result="miss"}`]
	cacheGets := sumPrefix(tf.MetricsDeltas, "mdm_federate_source_cache_hits_total") +
		sumPrefix(tf.MetricsDeltas, "mdm_federate_source_cache_misses_total") +
		sumPrefix(tf.MetricsDeltas, "mdm_federate_source_cache_inflight_dedup_total")

	layers := map[string]float64{
		"client":   request - handler,
		"rest":     max(handler-call, 0),
		"mdm":      max(call-float64(children)/1e3/opsP, 0),
		"rewrite":  usP("rewrite.parse") + usP("rewrite.rewrite"),
		"federate": float64(scatterSelf)/1e3/opsP + usP("federate.drain"),
		"wrapper":  float64(probeFetch)/1e3/opsP + usP("wrapper.new_http"),
		"schema":   usP("schema.extract"),
		"sparql":   usP("sparql.parse") + usP("sparql.plan") + usP("sparql.exec"),
		"release":  usP("release.register") + usP("release.suggest"),
		"bdi":      usP("bdi.define_mapping"),
		"tdb":      usP("tdb.compact") + usP("tdb.close") + usP("mdm.open"),
		"store":    usP("store.find"),
	}
	var selfSum float64
	for _, v := range layers {
		selfSum += v
	}
	tf.LayerSelfUs = layers

	tf.Classes = map[string]map[string]float64{}
	for _, c := range e.spec.classes {
		mean := func(m map[[2]string]*agg, name string) float64 {
			a := m[[2]string{name, c}]
			if a == nil || a.n == 0 {
				return 0
			}
			return float64(a.ns) / 1e3 / float64(a.n)
		}
		tf.Classes[c] = map[string]float64{
			"client.request": mean(inClass, "client.request"),
			"rest.handler":   mean(inClass, "rest.handler") + mean(inClass, "bench.restart"),
			"mdm.call":       mean(prClass, "mdm.call"),
		}
	}

	latA := sortedSamples(passA.samples())
	// The traced pass's window also holds the interleaved probes, so the
	// two single-client passes are compared on their mean request latency.
	meanLatency := func(p *passResult) float64 {
		var ns int64
		for _, s := range p.samples() {
			ns += s.ns
		}
		return float64(ns) / float64(p.ops)
	}
	latB, latC := meanLatency(passB), meanLatency(passC)
	tf.PerLayer = map[string]metric{
		"client.transport_us_per_op": {layers["client"], "us"},
		"client.latency_p99_ms":      {ms(latA[rank(len(latA), 0.99)].ns), "ms"},

		"rest.self_us_per_op":       {layers["rest"], "us"},
		"rest.response_kb_per_op":   {sumPrefix(tf.MetricsDeltas, "mdm_http_response_bytes_total") / 1024 / opsA, "KiB"},
		"rest.json_us_per_krow":     {perKrow("full_json"), "us"},
		"rest.ndjson_us_per_krow":   {perKrow("full_ndjson"), "us"},
		"mdm.self_us_per_op":        {layers["mdm"], "us"},
		"rewrite.parse_us_per_op":   {usP("rewrite.parse"), "us"},
		"rewrite.rewrite_us_per_op": {usP("rewrite.rewrite"), "us"},
		"rewrite.allocs_per_op":     {float64(pd.rewriteAllocs) / opsP, "count"},
		"rewrite.cqs_per_op":        {float64(get(pr, "rewrite.rewrite").cqs) / opsP, "count"},

		"federate.scatter_self_us_per_op": {float64(scatterSelf) / 1e3 / opsP, "us"},
		"federate.drain_us_per_op":        {usP("federate.drain"), "us"},
		"federate.rows_per_op":            {float64(get(pr, "federate.drain").rows) / opsP, "count"},
		"federate.fetches_per_op":         {sumPrefix(tf.MetricsDeltas, "mdm_federate_fetch_attempts_total") / opsA, "count"},
		"federate.inflight_dedup_ratio":   {ratio(sumPrefix(tf.MetricsDeltas, "mdm_federate_source_cache_inflight_dedup_total"), cacheGets), "ratio"},

		"wrapper.fetch_us_per_op":               {usC("wrapper.fetch"), "us"},
		"wrapper.rows_fetched_per_row_returned": {ratio(float64(get(in, "wrapper.fetch").rows), float64(passC.rowsBack)), "ratio"},
		"schema.extract_us_per_op":              {usP("schema.extract"), "us"},

		"sparql.parse_us_per_op":         {usP("sparql.parse"), "us"},
		"sparql.plan_us_per_op":          {usP("sparql.plan"), "us"},
		"sparql.exec_us_per_op":          {usP("sparql.exec"), "us"},
		"sparql.rows_per_op":             {float64(get(pr, "sparql.exec").rows) / opsP, "count"},
		"sparql.allocs_per_op":           {float64(pd.execAllocs) / opsP, "count"},
		"sparql.plan_cache_hit_ratio":    {ratio(hits, hits+misses), "ratio"},
		"sparql.parallel_batches_per_op": {tf.MetricsDeltas["mdm_sparql_parallel_batches_total"] / opsA, "count"},

		"rdf.match_ns_per_triple": {ratio(float64(pd.matchNs), float64(pd.matchTriples)), "ns"},
		"rdf.triples":             {float64(pd.triples), "count"},
		"rdf.dict_terms":          {float64(pd.terms), "count"},

		"release.register_us_per_op":   {usP("release.register"), "us"},
		"bdi.define_mapping_us_per_op": {usP("bdi.define_mapping"), "us"},

		"tdb.compact_ms":                {meanMs("tdb.compact"), "ms"},
		"tdb.bytes_written_per_compact": {ratio(float64(pd.compactBytes), float64(pd.compactions)), "bytes"},
		"tdb.open_ms":                   {meanMs("tdb.open"), "ms"},
		"store.open_ms":                 {meanMs("store.open"), "ms"},
		"tdb.disk_bytes_per_triple":     {ratio(float64(pd.diskBytes), float64(pd.diskTriples)), "bytes"},
		"tdb.wal_records_per_release":   {ratio(float64(pd.walRecords), float64(pd.releases)), "count"},
		"segment.write_ms":              {meanMs("segment.write"), "ms"},
		"segment.load_ms":               {meanMs("segment.load"), "ms"},
		"store.find_us_per_op":          {usP("store.find"), "us"},

		"go.gc_cycles_per_kop":   {float64(passA.mem.gcCycles) / opsA * 1000, "count"},
		"go.gc_pause_ms_per_kop": {float64(passA.mem.gcPauseNs) / 1e6 / opsA * 1000, "ms"},

		"bench.trace_overhead_pct":     {(latC - latB) / latB * 100, "%"},
		"bench.self_time_coverage_pct": {ratio(selfSum, request) * 100, "%"},
	}
}
