package main

import (
	"context"
	"encoding/json"
	"os"
	"sort"
	"testing"
)

// smokeSize is about 1% of the benchmark: every workload still builds its
// system, serves it, runs its whole script shape (including a steward
// restart) and checks every answer, in well under a second each.
var smokeSize = size{
	evolvedVersions: 4,
	evolvedRepeat:   3,
	bulkPlayers:     300,
	bulkTeams:       30,
	bulkRepeat:      2,
	metaConcepts:    60,
	metaPool:        4,
	baseConcepts:    40,
	cycles:          2,
	quick:           true,
}

func smokeConfig(t *testing.T, trace bool) config {
	return config{seed: defaultSeed, seconds: 0.05, trace: trace, size: smokeSize, setups: 1,
		dir: t.TempDir(), traceDir: t.TempDir()}
}

// benchmarkFile is the part of ../BENCHMARK.json the program must agree
// with.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
		Bound      float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) *benchmarkFile {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return &bf
}

func TestSmokeEndToEnd(t *testing.T) {
	for _, sp := range specs() {
		t.Run(sp.name, func(t *testing.T) {
			rep, res, err := runWorkload(context.Background(), smokeConfig(t, false), sp)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("attempted %d, failed %d: %v", res.Attempted, res.Failed, rep.Failures)
			}
			for name := range bounds {
				if m, ok := res.Metrics[name]; !ok || !(m.Value > 0) {
					t.Errorf("end-to-end metric %s = %+v, want a positive value", name, m)
				}
			}
			for _, c := range sp.classes {
				if rep.Classes[c].Samples == 0 {
					t.Errorf("class %s has no samples", c)
				}
			}
		})
	}
}

func TestSmokeTraced(t *testing.T) {
	for _, sp := range specs() {
		t.Run(sp.name, func(t *testing.T) {
			cfg := smokeConfig(t, true)
			rep, res, err := runWorkload(context.Background(), cfg, sp)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct {
				t.Fatalf("attempted %d, failed %d: %v", res.Attempted, res.Failed, rep.Failures)
			}
			if _, err := os.Stat(rep.TraceFile); err != nil {
				t.Errorf("trace file: %v", err)
			}
			// Layers a workload does not reach must read zero, layers it
			// lives in must not.
			walks := sp.name != "meta_sparql"
			persistent := sp.name == "steward_persist"
			for name, want := range map[string]bool{
				"rewrite.rewrite_us_per_op": walks,
				"wrapper.fetch_us_per_op":   walks,
				"sparql.exec_us_per_op":     !walks || persistent,
				"tdb.compact_ms":            persistent,
				"segment.write_ms":          persistent,
			} {
				if got := res.Metrics[name].Value > 0; got != want {
					t.Errorf("%s = %v, want non-zero: %v", name, res.Metrics[name].Value, want)
				}
			}
			if c := res.Metrics["bench.self_time_coverage_pct"].Value; c < 50 || c > 150 {
				t.Errorf("layer self times cover %.0f%% of the request spans", c)
			}
		})
	}
}

// TestBenchmarkFileAgrees keeps BENCHMARK.json and the program in step:
// same workloads, same metric names and units, same bounds.
func TestBenchmarkFileAgrees(t *testing.T) {
	bf := loadBenchmarkFile(t)
	var want, got []string
	for _, sp := range specs() {
		want = append(want, sp.name)
	}
	for _, w := range bf.Workloads {
		got = append(got, w.Name)
	}
	if !equalStrings(got, want) {
		t.Errorf("workloads %v, the program runs %v", got, want)
	}

	// One op in one round is enough to make both metric sets appear.
	one := &passResult{ops: 1, elapsed: 1, perRound: []roundResult{{ops: 1, elapsed: 1, samples: []sample{{}}, slow: 1}}}
	units := map[string]string{}
	for name, m := range endToEnd(&report{}, one, []float64{1}, []float64{1}) {
		units[name] = m.Unit
	}
	tf := &traceFile{MetricsDeltas: map[string]float64{}}
	(&env{spec: &spec{}, probeData: &probeData{ops: 1}}).perLayer(tf, one, one, one)
	layer := map[string]string{}
	for name, m := range tf.PerLayer {
		layer[name] = m.Unit
	}
	if len(bf.EndToEnd) != len(bounds) {
		t.Errorf("%d end-to-end metrics listed, the program reports %d", len(bf.EndToEnd), len(bounds))
	}
	for _, m := range bf.EndToEnd {
		if b, ok := bounds[m.Name]; !ok || b.bound != m.Bound || units[m.Name] != m.Unit {
			t.Errorf("end-to-end %s: listed unit %q bound %v, the program has unit %q bound %v",
				m.Name, m.Unit, m.Bound, units[m.Name], b.bound)
		}
	}

	if len(bf.PerLayer) != len(layer) {
		t.Errorf("%d per-layer metrics listed, the program reports %d", len(bf.PerLayer), len(layer))
	}
	for _, m := range bf.PerLayer {
		if u, ok := layer[m.Name]; !ok || u != m.Unit {
			t.Errorf("per-layer %s: listed unit %q, the program has %q (known: %v)", m.Name, m.Unit, u, ok)
		}
	}
}

func equalStrings(a, b []string) bool {
	a, b = append([]string(nil), a...), append([]string(nil), b...)
	sort.Strings(a)
	sort.Strings(b)
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestCountJSONRows(t *testing.T) {
	for _, tc := range []struct {
		body string
		want int
	}{
		{`{"columns":["a"],"rows":[["x"],["y, ]"],["\"[z"]],"sparql":"SELECT [ ]"}`, 3},
		{`{"rows":[],"vars":["c"]}`, 0},
		{`{"algebra":["π[a](w1)"],"columns":["rows"],"rows":[["1","2"]]}`, 1},
		{`{"error":"boom"}`, -1},
	} {
		if got := countJSONRows([]byte(tc.body)); got != tc.want {
			t.Errorf("countJSONRows(%s) = %d, want %d", tc.body, got, tc.want)
		}
	}
}
