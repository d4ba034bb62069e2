package main

import "sort"

func sortedSamples(samples []sample) []sample {
	out := append([]sample(nil), samples...)
	sort.Slice(out, func(i, j int) bool { return out[i].ns < out[j].ns })
	return out
}

// rank is the index of the q-quantile of n sorted samples (nearest rank).
func rank(n int, q float64) int {
	i := int(q*float64(n)+0.999999) - 1
	return min(max(i, 0), n-1)
}

// classNear names the op class a latency percentile landed in: the class
// with the most samples within 10% of it. (The class of the one sample
// at the percentile would flip between classes of equal cost.)
func classNear(sorted []sample, ns int64) string {
	lo, hi := ns-ns/10, ns+ns/10
	count := map[string]int{}
	best := ""
	for _, s := range sorted {
		if s.ns < lo || s.ns > hi {
			continue
		}
		count[s.class]++
		if c := count[s.class]; c > count[best] || (c == count[best] && s.class < best) {
			best = s.class
		}
	}
	return best
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
