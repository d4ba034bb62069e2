package main

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"testing"
)

// output renders canned `go test -bench -benchmem -count=10` output for
// cases given as {"<package> <name>", B/op, allocs/op}: ten identical
// lines per case, procs as the GOMAXPROCS suffix.
func output(procs int, cases ...[3]any) string {
	var sb strings.Builder
	last := ""
	for _, c := range cases {
		pkg, name, _ := strings.Cut(c[0].(string), " ")
		if pkg != last {
			last = pkg
			fmt.Fprintf(&sb, "goos: linux\ngoarch: amd64\npkg: %s\ncpu: canned\n", pkg)
		}
		for i := 0; i < 10; i++ {
			fmt.Fprintf(&sb, "%s-%d   \t       3\t     %d ns/op\t  12.50 MB/s\t   %d B/op\t     %d allocs/op\n",
				name, procs, 1000+i, c[1], c[2])
		}
	}
	sb.WriteString("PASS\nok  \t" + last + "\t1.234s\n")
	return sb.String()
}

func TestGate(t *testing.T) {
	const (
		meta  = "mdm BenchmarkSPARQLMetadataQuery"
		fig8  = "mdm BenchmarkFig8Rewriting"
		sweep = "mdm BenchmarkRewriteWrappersSweep/versions=16"
		deliv = "mdm/internal/rest BenchmarkDeliver/json/rows=10000"
	)
	base := map[string]entry{
		meta:  {Allocs: band{45, 45}, Bytes: band{5818, 5818}},
		fig8:  {Allocs: band{474, 476}, Bytes: band{64029, 64141}},
		sweep: {Allocs: band{2990, 2992}, Bytes: band{472400, 472528}},
		deliv: {Allocs: band{1222, 1230}, Bytes: band{4316400, 4316900}},
	}
	healthy := [][3]any{{meta, 5818, 45}, {fig8, 64100, 475}, {sweep, 472500, 2991}, {deliv, 4316500, 1225}}
	with := func(i int, c [3]any) [][3]any {
		out := append([][3]any(nil), healthy...)
		out[i] = c
		return out
	}
	for _, tc := range []struct {
		name     string
		procs    int
		cases    [][3]any
		failures []string // substrings, one per expected FAIL line, each naming its case
	}{
		{name: "inside the bands", procs: 2, cases: healthy},
		{name: "another core count, same names", procs: 8, cases: healthy},
		{name: "at the widened edge: +1 alloc on a small case", procs: 2, cases: with(0, [3]any{meta, 5818, 46})},
		{name: "at the widened edge: +0.5% on a large one", procs: 2, cases: with(1, [3]any{fig8, 64141 + 320, 478})},
		{name: "allocs +2", procs: 2, cases: with(0, [3]any{meta, 5818, 47}),
			failures: []string{meta + ": allocs/op 47 against baseline 45–45: worse"}},
		{name: "allocs -2 is a stale file", procs: 2, cases: with(0, [3]any{meta, 5818, 43}),
			failures: []string{meta + ": allocs/op 43 against baseline 45–45: better, so the baseline is stale"}},
		{name: "bytes +1% on a sub-benchmark with = and /", procs: 2, cases: with(2, [3]any{sweep, 477300, 2991}),
			failures: []string{sweep + ": B/op 477300 against baseline 472400–472528: worse"}},
		{name: "case missing from the run", procs: 2, cases: healthy[:3],
			failures: []string{deliv + ": in BENCH_baseline.json but not in this run"}},
		{name: "case missing from the file", procs: 2, cases: append(with(0, healthy[0]), [3]any{"mdm/internal/rest BenchmarkDeliver/csv", 10, 1}),
			failures: []string{"mdm/internal/rest BenchmarkDeliver/csv: in this run but not in BENCH_baseline.json"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run, err := parse(strings.NewReader(output(tc.procs, tc.cases...)))
			if err != nil {
				t.Fatal(err)
			}
			var report strings.Builder
			n := gate(&report, base, run)
			if n != len(tc.failures) {
				t.Errorf("gate = %d failures, want %d\n%s", n, len(tc.failures), report.String())
			}
			for _, want := range tc.failures {
				if !strings.Contains(report.String(), "FAIL "+want) {
					t.Errorf("report lacks %q:\n%s", "FAIL "+want, report.String())
				}
			}
			if n == 0 && !strings.Contains(report.String(), "ns/op (not gated)") {
				t.Errorf("a passing report prints ns/op ungated:\n%s", report.String())
			}
		})
	}
}

// TestParseMedianAndSpan pins the two reductions on uneven readings: the
// gate compares medians, -update records the whole span.
func TestParseMedianAndSpan(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("pkg: mdm\n")
	for _, a := range []int{51, 40, 43, 43, 44, 43, 43, 45, 43, 43} {
		fmt.Fprintf(&sb, "BenchmarkSPARQLMetadataQuery-2 \t 3 \t 9000 ns/op \t 5624 B/op \t %d allocs/op\n", a)
	}
	run, err := parse(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	s := run["mdm BenchmarkSPARQLMetadataQuery"]
	if s == nil || len(s.allocs) != 10 {
		t.Fatalf("parsed %v", run)
	}
	if got := median(s.allocs); got != 43 {
		t.Errorf("median = %v, want 43", got)
	}
	if got := span(s.allocs); got != (band{40, 51}) {
		t.Errorf("span = %v, want 40–51", got)
	}
	// What -update writes from a run reads back as a baseline that run passes.
	var base map[string]entry
	if err := json.Unmarshal(render(run), &base); err != nil {
		t.Fatalf("render: %v\n%s", err, render(run))
	}
	if n := gate(io.Discard, base, run); n != 0 || len(base) != 1 {
		t.Errorf("a run fails the baseline rendered from it: %d failures over %d cases", n, len(base))
	}
	if _, err := parse(strings.NewReader("pkg: mdm\nBenchmarkNoMem-2 \t 3 \t 9000 ns/op\n")); err == nil {
		t.Error("a result line without B/op and allocs/op parsed")
	}
}
