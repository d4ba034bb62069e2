// Command benchgate is the per-layer performance gate: it runs every
// Benchmark* of the root module's six benchmarked packages at a fixed
// iteration count and compares each case's allocs/op and B/op with the
// committed BENCH_baseline.json. Allocation counts at a fixed b.N do not
// depend on how fast the machine is, so the committed file holds on any
// runner; ns/op is printed and never gated, because a committed file
// cannot carry another machine's clock — a timing claim is made with
// bench/'s ten alternating pairs (bench/README.md).
//
// The file keeps, per case, the lowest and highest value the baseline's
// own ten runs read. A case passes when the median of this run's ten
// lies inside that band widened by max(1, 0.5 %) on both sides. It
// fails when the median is above (worse), when it is below (better: the
// file is stale, so the gain is not yet protected — rerun with -update
// and commit), and when a case exists on one side only.
//
// Usage, from the repo root:
//
//	go run ./tools/benchgate           # gate; nonzero exit on any failure
//	go run ./tools/benchgate -update   # rewrite BENCH_baseline.json
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

const baselinePath = "BENCH_baseline.json"

// goTestArgs is the one way the suite is run, for the gate and for
// -update alike. -cpu is pinned because the case name carries it and
// sync.Pool keeps a cache per P; 3x keeps the two half-second storage
// cases (full compaction, WAL replay) inside a two-minute run.
var goTestArgs = []string{"test", "-run", "^$", "-bench", ".", "-benchmem", "-benchtime=3x", "-count=10", "-cpu=2",
	".", "./internal/rdf", "./internal/sparql", "./internal/federate", "./internal/rest", "./internal/tdb"}

// band is the span one measure read over the baseline's runs: lowest,
// highest.
type band [2]float64

// entry is one case of the committed file.
type entry struct {
	Allocs band `json:"allocs_per_op"`
	Bytes  band `json:"bytes_per_op"`
}

// samples holds every run of one case, one slice per measure.
type samples struct{ ns, bytes, allocs []float64 }

func main() {
	update := flag.Bool("update", false, "rewrite "+baselinePath+" from this run instead of comparing with it")
	flag.Parse()
	cmd := exec.Command("go", goTestArgs...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		os.Stdout.Write(out)
		fatal(fmt.Errorf("go %s: %w", strings.Join(goTestArgs, " "), err))
	}
	run, err := parse(bytes.NewReader(out))
	if err != nil {
		fatal(err)
	}
	if *update {
		if err := os.WriteFile(baselinePath, render(run), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("benchgate: wrote %d cases to %s\n", len(run), baselinePath)
		return
	}
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		fatal(err)
	}
	var base map[string]entry
	if err := json.Unmarshal(data, &base); err != nil {
		fatal(fmt.Errorf("%s: %w", baselinePath, err))
	}
	if n := gate(os.Stdout, base, run); n > 0 {
		fmt.Fprintf(os.Stderr, "benchgate: %d failure(s)\n", n)
		os.Exit(1)
	}
	fmt.Println("benchgate: ok")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchgate:", err)
	os.Exit(1)
}

// procSuffix is the -GOMAXPROCS suffix `go test` appends to a benchmark
// name (absent at GOMAXPROCS=1; no case of this repo ends in -digits).
var procSuffix = regexp.MustCompile(`-\d+$`)

// parse reads `go test -bench -benchmem` output. Cases are keyed
// "<package> <name>", the name as printed minus the -GOMAXPROCS suffix.
func parse(r io.Reader) (map[string]*samples, error) {
	run := map[string]*samples{}
	pkg := ""
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 2 && f[0] == "pkg:" {
			pkg = f[1]
		}
		// A result line is the name, b.N, then value/unit pairs.
		if len(f) < 4 || len(f)%2 != 0 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		name := pkg + " " + procSuffix.ReplaceAllString(f[0], "")
		s := run[name]
		if s == nil {
			s = &samples{}
			run[name] = s
		}
		for i := 2; i < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				return nil, fmt.Errorf("%s: value %q: %w", name, f[i], err)
			}
			switch f[i+1] {
			case "ns/op":
				s.ns = append(s.ns, v)
			case "B/op":
				s.bytes = append(s.bytes, v)
			case "allocs/op":
				s.allocs = append(s.allocs, v)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for name, s := range run {
		if len(s.allocs) == 0 || len(s.allocs) != len(s.bytes) || len(s.allocs) != len(s.ns) {
			return nil, fmt.Errorf("%s: %d ns/op, %d B/op, %d allocs/op readings; want the same number of each (-benchmem)",
				name, len(s.ns), len(s.bytes), len(s.allocs))
		}
	}
	return run, nil
}

// render is the baseline file for a run: one case per line, sorted, so
// that a refresh diffs case by case.
func render(run map[string]*samples) []byte {
	lines := make([]string, 0, len(run))
	for name, s := range run {
		// A string and two pairs of floats: Marshal cannot fail.
		k, _ := json.Marshal(name)
		e, _ := json.Marshal(entry{Allocs: span(s.allocs), Bytes: span(s.bytes)})
		lines = append(lines, fmt.Sprintf("  %s: %s", k, e))
	}
	sort.Strings(lines)
	return []byte("{\n" + strings.Join(lines, ",\n") + "\n}\n")
}

func span(v []float64) band {
	b := band{v[0], v[0]}
	for _, x := range v {
		b[0], b[1] = math.Min(b[0], x), math.Max(b[1], x)
	}
	return b
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return (s[(len(s)-1)/2] + s[len(s)/2]) / 2
}

// verdict places a run's median against a baseline band widened by
// max(1, 0.5 %): "" inside, otherwise what is wrong with it.
func verdict(b band, got float64) string {
	switch {
	case got > b[1]+math.Max(1, b[1]*0.005):
		return "worse"
	case got < b[0]-math.Max(1, b[0]*0.005):
		return "better, so the baseline is stale: run with -update and commit it"
	}
	return ""
}

// gate prints one line per case and one per failure, and returns the
// number of failures.
func gate(w io.Writer, base map[string]entry, run map[string]*samples) int {
	names := make([]string, 0, len(base)+len(run))
	for name := range base {
		names = append(names, name)
	}
	for name := range run {
		if _, ok := base[name]; !ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	failures := 0
	fail := func(format string, args ...any) {
		failures++
		fmt.Fprintf(w, "FAIL "+format+"\n", args...)
	}
	for _, name := range names {
		want, inBase := base[name]
		got, inRun := run[name]
		switch {
		case !inRun:
			fail("%s: in %s but not in this run (deleted or renamed? run with -update)", name, baselinePath)
			continue
		case !inBase:
			fail("%s: in this run but not in %s (new? run with -update)", name, baselinePath)
			continue
		}
		allocs, bytes := median(got.allocs), median(got.bytes)
		fmt.Fprintf(w, "%-78s %10.0f allocs/op %12.0f B/op %14.0f ns/op (not gated)\n", name, allocs, bytes, median(got.ns))
		if v := verdict(want.Allocs, allocs); v != "" {
			fail("%s: allocs/op %.0f against baseline %.0f–%.0f: %s", name, allocs, want.Allocs[0], want.Allocs[1], v)
		}
		if v := verdict(want.Bytes, bytes); v != "" {
			fail("%s: B/op %.0f against baseline %.0f–%.0f: %s", name, bytes, want.Bytes[0], want.Bytes[1], v)
		}
	}
	return failures
}
