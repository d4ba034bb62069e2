package main

import (
	"context"
	"fmt"
	"math"
	"strings"
)

// bounds is the allowed relative worsening of each end-to-end metric
// (BENCHMARK.json carries the same numbers) and which way is worse. The
// timed metrics carry the widest bound a benchmark may have: scaled by
// the reference kernel, ten runs of one commit still spread by 3–16%
// while the sandbox's neighbours are busy, and a bound should be some
// three times the spread (README.md, "Bounds"). The counted metrics
// repeat to 0.00–1.5%.
var bounds = map[string]struct {
	bound       float64
	higherWorse bool
}{
	"throughput_ops_s": {0.25, false},
	"latency_p50_ms":   {0.25, true},
	"latency_p95_ms":   {0.25, true},
	"allocs_per_op":    {0.02, true},
	"alloc_kb_per_op":  {0.02, true},
	"heap_mb":          {0.10, true},
	"setup_s":          {0.25, true},
}

// allocsAgreement is how closely allocs_per_op must repeat between two
// sets of runs of the same commit, whichever way it moves.
const allocsAgreement = 0.005

// selfcheckOrder is the order in which the runs of the two sets, A and B,
// of one workload alternate. ABBA puts both sets at the same mean
// position in time, so whatever drift of the sandbox's speed the
// reference kernel leaves in moves both alike.
const selfcheckOrder = "ABBA"

// runSelfcheck runs every workload in two sets of runs, alternating, and
// fails unless the sets agree: each end-to-end metric of set B (the mean
// of its runs) within its bound of set A's, allocs_per_op within 0.5%
// both ways, no failed op, and latency_p50_ms / latency_p95_ms landing in
// the same op class in every run. Each run measures half of -seconds.
func runSelfcheck(ctx context.Context, cfg config) error {
	cfg.seconds /= 2
	var problems []string
	for _, sp := range specs() {
		sets := map[byte]map[string]float64{'A': {}, 'B': {}}
		var p50, p95 []string
		for i := range selfcheckOrder {
			rep, res, err := runWorkload(ctx, cfg, sp)
			if err != nil {
				return fmt.Errorf("%s: %w", sp.name, err)
			}
			if !res.Correct {
				return fmt.Errorf("%s: %d of %d ops failed: %v", sp.name, res.Failed, res.Attempted, rep.Failures)
			}
			printJSON(rep)
			for name, m := range rep.EndToEnd {
				sets[selfcheckOrder[i]][name] += m.Value / float64(strings.Count(selfcheckOrder, selfcheckOrder[i:i+1]))
			}
			p50, p95 = append(p50, rep.P50Class), append(p95, rep.P95Class)
		}
		for name, bd := range bounds {
			va, vb := sets['A'][name], sets['B'][name]
			worse := (vb - va) / va
			if !bd.higherWorse {
				worse = (va - vb) / va
			}
			fmt.Printf("selfcheck %-16s %-17s %12.4f %12.4f  %+6.2f%% (bound %.0f%%)\n",
				sp.name, name, va, vb, worse*100, bd.bound*100)
			if worse > bd.bound {
				problems = append(problems, fmt.Sprintf("%s %s: %.4f then %.4f, worse by %.1f%% > %.0f%%",
					sp.name, name, va, vb, worse*100, bd.bound*100))
			}
		}
		if va, vb := sets['A']["allocs_per_op"], sets['B']["allocs_per_op"]; math.Abs(vb-va)/va > allocsAgreement {
			problems = append(problems, fmt.Sprintf("%s allocs_per_op: %.1f and %.1f differ by more than %.1f%%",
				sp.name, va, vb, allocsAgreement*100))
		}
		fmt.Printf("selfcheck %-16s p50 in %v, p95 in %v\n", sp.name, p50, p95)
		if !allEqual(p50) || !allEqual(p95) {
			problems = append(problems, fmt.Sprintf("%s: latency percentiles moved class: p50 in %v, p95 in %v", sp.name, p50, p95))
		}
	}
	if len(problems) > 0 {
		return fmt.Errorf("the two sets disagree:\n  %s", strings.Join(problems, "\n  "))
	}
	fmt.Println("selfcheck: the two sets agree within the bounds")
	return nil
}

func allEqual(s []string) bool {
	for _, v := range s {
		if v != s[0] {
			return false
		}
	}
	return true
}
