// Command bench is the MDM serving benchmark: it builds an mdm.System
// the way mdmd deploys it, serves it on a loopback listener in this
// process, and drives it closed-loop over real HTTP with a seeded op
// script. See README.md in this directory for the workloads, the
// metrics and how to read the output.
//
//	bench -workload NAME [-seed N] [-seconds S] [-trace 0|1] [-out FILE]
//	bench -selfcheck [-seconds S]
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// -trace 0, the per-layer metrics with -trace 1. The line before it is a
// fuller report (environment, per-class latencies, failures).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// Default seed, and the second seed to cross-check a result on.
const (
	defaultSeed    = 1
	crossCheckSeed = 2
)

// The benchmark pins its parallelism: this sandbox has two cores, which
// the server and at most two client goroutines share.
const pinnedProcs = 2

// Set-up repeats (see runWorkload): at least minSetups, and cheap
// set-ups until they add up to setupFloor, but never more than maxSetups.
const (
	minSetups  = 3
	setupFloor = 1500 * time.Millisecond
	maxSetups  = 15
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string
	dir      string // scratch root for persistent stores
	traceDir string // where trace_<workload>.json goes
	size     size
	setups   int           // least number of timed set-ups
	floor    time.Duration // cheap set-ups repeat until they add up to this
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type classStats struct {
	Samples int     `json:"samples"`
	P50ms   float64 `json:"p50_ms"`
	P95ms   float64 `json:"p95_ms"`
}

// report is everything one run learned, for people.
type report struct {
	Workload   string  `json:"workload"`
	Why        string  `json:"why"`
	Seed       int64   `json:"seed"`
	Clients    int     `json:"clients"`
	Fsync      string  `json:"fsync"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"git_commit"`
	Seconds    float64 `json:"seconds"`

	Rounds          int                   `json:"rounds"`
	OpsPerRound     int                   `json:"ops_per_round"`
	WindowS         float64               `json:"window_s"`
	OpsAttempted    int                   `json:"ops_attempted"`
	OpsFailed       int                   `json:"ops_failed"`
	Failures        []string              `json:"failures,omitempty"`
	SamplesBeyond95 int                   `json:"samples_beyond_p95"`
	P50Class        string                `json:"latency_p50_class"`
	P95Class        string                `json:"latency_p95_class"`
	Classes         map[string]classStats `json:"classes"`
	// What the clock read, before scaling by the reference kernel: every
	// set-up, the pooled (all-rounds) values, the medians over rounds and
	// each round's own values, with the machine's slowness beside them.
	SetupS          []float64          `json:"setup_runs_s,omitempty"`
	SetupSlow       []float64          `json:"setup_runs_slowness,omitempty"`
	Pooled          map[string]float64 `json:"pooled_over_all_rounds_unscaled"`
	Unscaled        map[string]float64 `json:"median_over_rounds_unscaled"`
	RoundThroughput []float64          `json:"round_throughput_ops_s_unscaled"`
	RoundP50ms      []float64          `json:"round_latency_p50_ms_unscaled"`
	RoundP95ms      []float64          `json:"round_latency_p95_ms_unscaled"`
	RoundSlow       []float64          `json:"round_slowness"`
	RefNominalMs    float64            `json:"reference_kernel_nominal_ms"`
	RefShare        float64            `json:"reference_kernel_share"`
	EndToEnd        map[string]metric  `json:"end_to_end"`
	PerLayer        map[string]metric  `json:"per_layer,omitempty"`
	TraceFile       string             `json:"trace_file,omitempty"`
}

func main() { os.Exit(run()) }

func run() int {
	runtime.GOMAXPROCS(pinnedProcs)
	cfg := config{size: fullSize, setups: minSetups, floor: setupFloor}
	var trace int
	var selfcheck bool
	flag.StringVar(&cfg.workload, "workload", "", "workload to run (default: all four, one after another)")
	flag.Int64Var(&cfg.seed, "seed", defaultSeed, fmt.Sprintf("seed that orders the op script (cross-check results on %d)", crossCheckSeed))
	flag.Float64Var(&cfg.seconds, "seconds", 25, "measured window, in seconds")
	flag.IntVar(&trace, "trace", 0, "1: run the traced pass and the layer probes, report per-layer metrics")
	flag.StringVar(&cfg.out, "out", "", "also write the report(s) to this file")
	flag.StringVar(&cfg.dir, "dir", filepath.Join(".bench_build", "tmp"), "scratch directory for persistent stores")
	flag.StringVar(&cfg.traceDir, "trace-dir", filepath.Join("bench", "out"), "directory for trace_<workload>.json")
	flag.BoolVar(&selfcheck, "selfcheck", false, "run every workload twice and fail unless the two sets agree within the bounds")
	flag.Parse()
	cfg.trace = trace != 0
	cfg.dir = filepath.Join(cfg.dir, fmt.Sprintf("run-%d", os.Getpid()))
	defer os.RemoveAll(cfg.dir)

	ctx := context.Background()
	if selfcheck {
		if err := runSelfcheck(ctx, cfg); err != nil {
			fmt.Fprintln(os.Stderr, "bench: selfcheck:", err)
			return 1
		}
		return 0
	}
	todo := specs()
	if cfg.workload != "" {
		sp := specByName(cfg.workload)
		if sp == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", cfg.workload)
			return 2
		}
		todo = []*spec{sp}
	}
	var reports []*report
	status := 0
	for _, sp := range todo {
		rep, res, err := runWorkload(ctx, cfg, sp)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", sp.name, err)
			return 1
		}
		reports = append(reports, rep)
		printJSON(rep)
		printJSON(res)
		if !res.Correct {
			status = 1 // a failed op fails the run, after its metrics are printed
		}
	}
	if cfg.out != "" {
		data, _ := json.MarshalIndent(reports, "", "  ")
		if err := os.WriteFile(cfg.out, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	return status
}

func printJSON(v any) {
	data, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	fmt.Println(string(data))
}

func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// runWorkload runs one workload: set-up (several times, timed), the
// measured untraced pass and, with cfg.trace, the traced pass and the
// layer probes.
func runWorkload(ctx context.Context, cfg config, sp *spec) (*report, *result, error) {
	var (
		e                 *env
		setups, setupSlow []float64
	)
	// Set-up is repeated (the last one is kept and measured on) so that
	// setup_s is a median: at least cfg.setups times, and cheap set-ups
	// until they add up to cfg.floor. The reference kernel is timed
	// between them. The traced run reports no end-to-end metric and sets
	// up once.
	var spent time.Duration
	ref := refKernel()
	for i := 0; i == 0 || (!cfg.trace && i < maxSetups && (i < cfg.setups || spent < cfg.floor)); i++ {
		if e != nil {
			e.close()
		}
		var took time.Duration
		var err error
		e, took, err = setUp(ctx, sp, cfg.size, filepath.Join(cfg.dir, sp.name), cfg.seed)
		if err != nil {
			return nil, nil, err
		}
		refAfter := refKernel()
		setups = append(setups, took.Seconds())
		setupSlow = append(setupSlow, refFactor(sp.refShare, ref, refAfter))
		spent += took
		ref = refAfter
	}
	defer e.close()

	script := sp.script(e, cfg.size, rand.New(rand.NewSource(cfg.seed)))
	budget := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		budget /= 3
	}
	before, err := e.scrape()
	if err != nil {
		return nil, nil, err
	}
	pass, err := e.runPass(ctx, script, sp.clients, budget, 0)
	if err != nil {
		return nil, nil, err
	}
	after, err := e.scrape()
	if err != nil {
		return nil, nil, err
	}

	rep := &report{
		Workload: sp.name, Why: sp.why, Seed: cfg.seed, Clients: sp.clients, Fsync: sp.fsync,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: gitCommit(), Seconds: cfg.seconds,
		Rounds: len(pass.perRound), OpsPerRound: len(script), WindowS: pass.elapsed.Seconds(),
		OpsAttempted: pass.ops, OpsFailed: pass.failed, Failures: pass.failures,
		SetupS: setups, SetupSlow: setupSlow, RefNominalMs: ms(int64(refNominal)), RefShare: sp.refShare,
	}
	rep.EndToEnd = endToEnd(rep, &pass, setups, setupSlow)
	res := &result{Correct: pass.failed == 0, Attempted: pass.ops, Failed: pass.failed, Metrics: rep.EndToEnd}

	if cfg.trace {
		tr, err := e.tracedRun(ctx, cfg, script, &pass, counterDeltas(before, after))
		if err != nil {
			return nil, nil, err
		}
		rep.PerLayer, rep.TraceFile = tr.perLayer, tr.file
		res.Attempted += tr.ops
		res.Failed += tr.failed
		res.Correct = res.Failed == 0
		rep.OpsAttempted, rep.OpsFailed = res.Attempted, res.Failed
		rep.Failures = append(rep.Failures, tr.failures...)
		res.Metrics = rep.PerLayer
	}
	return rep, res, nil
}

// endToEnd computes the seven end-to-end metrics of a measured pass and
// of the timed set-ups, and fills in the report's latency breakdown.
func endToEnd(rep *report, p *passResult, setups, setupSlow []float64) map[string]metric {
	lat := sortedSamples(p.samples())
	i50, i95 := rank(len(lat), 0.50), rank(len(lat), 0.95)
	rep.P50Class, rep.P95Class = classNear(lat, lat[i50].ns), classNear(lat, lat[i95].ns)
	rep.SamplesBeyond95 = len(lat) - 1 - i95
	rep.Classes = map[string]classStats{}
	byClass := map[string][]sample{}
	for _, s := range lat { // already sorted, so each class's slice is too
		byClass[s.class] = append(byClass[s.class], s)
	}
	for c, ss := range byClass {
		rep.Classes[c] = classStats{Samples: len(ss), P50ms: ms(ss[rank(len(ss), 0.50)].ns), P95ms: ms(ss[rank(len(ss), 0.95)].ns)}
	}
	// Throughput and the latency percentiles are medians over the rounds
	// of each round's own value, scaled to the reference kernel's nominal
	// speed: every round is the same multiset of ops, a median over rounds
	// shrugs off the short stretches in which the sandbox's neighbours
	// slow the machine down, and the scaling takes out the long ones. The
	// unscaled values are reported beside them.
	var thr, p50, p95, slow []float64      // as the clock read
	var thrN, p50N, p95N, setupN []float64 // at nominal speed
	for _, r := range p.perRound {
		rl := sortedSamples(r.samples)
		t := float64(r.ops) / r.elapsed.Seconds()
		l50, l95 := ms(rl[rank(len(rl), 0.50)].ns), ms(rl[rank(len(rl), 0.95)].ns)
		thr, p50, p95, slow = append(thr, t), append(p50, l50), append(p95, l95), append(slow, r.slow)
		thrN, p50N, p95N = append(thrN, t*r.slow), append(p50N, l50/r.slow), append(p95N, l95/r.slow)
	}
	for i, s := range setups {
		setupN = append(setupN, s/setupSlow[i])
	}
	ops := float64(p.ops)
	rep.Pooled = map[string]float64{
		"throughput_ops_s": ops / p.elapsed.Seconds(),
		"latency_p50_ms":   ms(lat[i50].ns),
		"latency_p95_ms":   ms(lat[i95].ns),
	}
	rep.Unscaled = map[string]float64{
		"throughput_ops_s": median(thr),
		"latency_p50_ms":   median(p50),
		"latency_p95_ms":   median(p95),
		"setup_s":          median(setups),
	}
	rep.RoundThroughput, rep.RoundP50ms, rep.RoundP95ms, rep.RoundSlow = thr, p50, p95, slow
	return map[string]metric{
		"throughput_ops_s": {median(thrN), "ops/s"},
		"latency_p50_ms":   {median(p50N), "ms"},
		"latency_p95_ms":   {median(p95N), "ms"},
		"allocs_per_op":    {float64(p.mem.mallocs) / ops, "count"},
		"alloc_kb_per_op":  {float64(p.mem.bytes) / 1024 / ops, "KiB"},
		"heap_mb":          {float64(p.heapBytes) / (1 << 20), "MiB"},
		"setup_s":          {median(setupN), "s"},
	}
}
