package main

import (
	"encoding/json"
	"math"
	"runtime"
	"strconv"
	"time"
)

// The reference kernel is the benchmark's yardstick for the machine's
// speed. This sandbox shares its memory system with neighbours, and the
// speed of allocation-heavy Go code drifts by a third or more over
// minutes, whole runs long; no statistic inside a run removes that. So a
// fixed piece of work that belongs to the benchmark, not to the program
// under test, is timed right before and right after every round, and the
// round's timings are expressed at the speed the kernel shows against
// refNominal (see scaled). Two thirds of the kernel (on a quiet machine)
// are the kind of work a request is made of — small allocations, string
// keys in a map, a JSON encoding, with the collector running — and one
// third is a register-only loop that the neighbours do not move; that
// blend followed the four workloads through a regime change with
// r = 0.96–0.98 (README.md, "The reference kernel").
//
// The kernel must never change: changing it rescales every timed metric.
const (
	refRows      = 8192
	refAllocReps = 8
	refSpinIters = 9 << 20
	// refNominal is the kernel's time on this machine in a quiet hour; it
	// only fixes the scale, so that the metrics read as they would then.
	refNominal = 60 * time.Millisecond
)

type refRow struct {
	ID   int     `json:"id"`
	Name string  `json:"name"`
	Team string  `json:"team"`
	H    float64 `json:"h"`
}

// refKernel does the fixed work once and returns how long it took.
func refKernel() time.Duration {
	t0 := time.Now()
	var sum uint64
	for rep := 0; rep < refAllocReps; rep++ {
		byName := make(map[string]*refRow, 1024)
		rows := make([]*refRow, 0, refRows)
		for i := 0; i < refRows; i++ {
			r := &refRow{ID: i, Name: "player-" + strconv.Itoa(i), Team: "team-" + strconv.Itoa(i%512), H: float64(i) * 0.5}
			byName[r.Name] = r
			rows = append(rows, r)
		}
		for _, r := range rows {
			if o, ok := byName["player-"+strconv.Itoa((r.ID*7)%refRows)]; ok {
				sum += uint64(o.ID)
			}
		}
		b, _ := json.Marshal(rows)
		sum += uint64(len(b))
	}
	x := uint64(88172645463325252) + sum
	for i := 0; i < refSpinIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	d := time.Since(t0)
	runtime.KeepAlive(x) // the loop's result is used, so the loop stays
	return d
}

// refFactor is how much slower than nominal a workload ran, given the
// reference-kernel timings taken around the measured stretch: 1.25 means
// everything took a quarter longer than it would have in a quiet hour.
// share is the workload's spec.refShare: the kernel's slowness counts to
// that power.
func refFactor(share float64, before, after time.Duration) float64 {
	return math.Pow(float64(before+after)/2/float64(refNominal), share)
}
