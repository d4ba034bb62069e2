package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"net/http"
	"runtime"
	"sync"
	"time"
	"unsafe"
)

// sample is one completed op's client-observed latency.
type sample struct {
	class string
	ns    int64
}

// roundResult is what one round of the script produced.
type roundResult struct {
	ops, failed int
	elapsed     time.Duration
	samples     []sample
	failures    []string // first few failure descriptions
	rowsBack    int64    // walk rows returned to the client
	mem         memDelta
	// slow is how much slower than nominal the workload ran over the
	// round's window, from the reference kernel (refFactor); 1 if not taken.
	slow float64
}

// memDelta is the process-wide runtime.MemStats movement over a window.
type memDelta struct {
	mallocs, bytes uint64
	gcCycles       uint32
	gcPauseNs      uint64
}

func (d *memDelta) add(o memDelta) {
	d.mallocs += o.mallocs
	d.bytes += o.bytes
	d.gcCycles += o.gcCycles
	d.gcPauseNs += o.gcPauseNs
}

func memSince(before *runtime.MemStats) memDelta {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	return memDelta{
		mallocs:   after.Mallocs - before.Mallocs,
		bytes:     after.TotalAlloc - before.TotalAlloc,
		gcCycles:  after.NumGC - before.NumGC,
		gcPauseNs: after.PauseTotalNs - before.PauseTotalNs,
	}
}

const maxFailuresKept = 5

// client is one closed-loop caller: it sends its next request only after
// the previous answer has been read in full.
type client struct {
	e    *env
	buf  bytes.Buffer
	prev []byte // previous answer, for ops whose body derives from it
}

// do executes one op and verifies its answer. The latency covers the
// request up to the last body byte; verification is outside it.
func (c *client) do(ctx context.Context, o *op, opID int) (lat time.Duration, rows int, err error) {
	e := c.e
	if e.tracer != nil {
		e.tracer.begin(opID, o.class)
	}
	if o.kind == kindRestart {
		t0 := time.Now()
		lat, err = e.restart(ctx)
		if e.tracer != nil {
			// A restart is not a request; bench.restart stands where
			// rest.handler would, so the span arithmetic stays uniform.
			e.tracer.record(span{Name: "client.request"}, t0, t0.Add(lat))
			e.tracer.record(span{Name: "bench.restart", Parent: "client.request"}, t0, t0.Add(lat))
		}
		return lat, 0, err
	}
	body := o.body
	if o.kind == kindDefine {
		var sug struct {
			Mapping json.RawMessage `json:"mapping"`
		}
		if err := json.Unmarshal(c.prev, &sug); err != nil || len(sug.Mapping) == 0 {
			return 0, 0, fmt.Errorf("%s: no mapping suggestion to define (%v)", o.id, err)
		}
		body = sug.Mapping
	}
	if e.tracer != nil {
		settle()
	}
	t0 := time.Now()
	req, err := http.NewRequestWithContext(ctx, o.method, e.base+o.path, bytes.NewReader(body))
	if err != nil {
		return 0, 0, err
	}
	if len(body) > 0 {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := e.client.Do(req)
	if err != nil {
		return 0, 0, fmt.Errorf("%s: %w", o.id, err)
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	t1 := time.Now()
	lat = t1.Sub(t0)
	if e.tracer != nil {
		e.tracer.record(span{Name: "client.request"}, t0, t1)
	}
	if err != nil {
		return lat, 0, fmt.Errorf("%s: read body: %w", o.id, err)
	}
	answer := c.buf.Bytes()
	if o.kind == kindSuggest {
		c.prev = append(c.prev[:0], answer...)
	}
	if resp.StatusCode != o.status {
		return lat, 0, fmt.Errorf("%s: status %d, want %d: %.200s", o.id, resp.StatusCode, o.status, answer)
	}
	if o.kind == kindRegister {
		if err := e.released(versionName(o.version)); err != nil {
			return lat, 0, err
		}
	}
	if o.rows >= 0 {
		if o.ndjson {
			rows = bytes.Count(answer, []byte{'\n'}) - 1 // minus the header line
		} else {
			rows = countJSONRows(answer)
		}
		if rows != o.rows {
			return lat, rows, fmt.Errorf("%s: %d rows, want %d", o.id, rows, o.rows)
		}
	}
	sum := crc32.ChecksumIEEE(answer)
	if first, seen := e.answers.LoadOrStore(o.id, sum); seen && first.(uint32) != sum {
		return lat, rows, fmt.Errorf("%s: answer checksum %08x differs from the first answer %08x", o.id, sum, first)
	}
	if e.probeReads && o.kind.isRead() {
		return lat, rows, e.probeOp(ctx, o)
	}
	return lat, rows, nil
}

// countJSONRows counts the elements of the top-level "rows" array of a
// JSON object without decoding it (the client shares two cores with the
// server, so its per-answer work is kept to a byte scan); -1 if absent.
func countJSONRows(b []byte) int {
	depth, rowsAt, n := 0, -1, 0
	pending := false
	for i := 0; i < len(b); i++ {
		switch b[i] {
		case '"':
			if depth == 1 && rowsAt < 0 && bytes.HasPrefix(b[i:], []byte(`"rows":`)) {
				pending = true
			}
			// Skip the string: find the closing quote that is not escaped.
			for i++; i < len(b); i++ {
				j := bytes.IndexByte(b[i:], '"')
				if j < 0 {
					return -1
				}
				i += j
				bs := 0
				for k := i - 1; k >= 0 && b[k] == '\\'; k-- {
					bs++
				}
				if bs%2 == 0 {
					break
				}
			}
		case '[', '{':
			depth++
			if pending {
				rowsAt, pending = depth, false
			} else if rowsAt > 0 && depth == rowsAt+1 {
				n++
			}
		case ']', '}':
			if depth == rowsAt {
				return n
			}
			depth--
		}
	}
	return -1
}

// runRound drives one script with the given number of closed-loop
// clients pulling ops in script order, and accounts latency, failures
// and allocation over exactly that window. The caller ends the round
// with endRound once it has read what it needs from the live system.
func (e *env) runRound(ctx context.Context, script []op, clients int) (roundResult, error) {
	if e.spec.beginRound != nil {
		if err := e.spec.beginRound(e); err != nil {
			return roundResult{}, fmt.Errorf("begin round: %w", err)
		}
	}
	res := roundResult{ops: len(script), samples: make([]sample, len(script)), slow: 1}
	var (
		mu   sync.Mutex
		next int
		wg   sync.WaitGroup
	)
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := &client{e: e}
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(script) {
					return
				}
				o := &script[i]
				lat, rows, err := cl.do(ctx, o, i)
				mu.Lock()
				res.samples[i] = sample{class: o.class, ns: int64(lat)}
				if o.kind != kindSPARQL {
					res.rowsBack += int64(rows)
				}
				if err != nil {
					res.failed++
					if len(res.failures) < maxFailuresKept {
						res.failures = append(res.failures, err.Error())
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	res.elapsed = time.Since(t0)
	res.mem = memSince(&before)
	return res, ctx.Err()
}

// endRound tears down what beginRound set up.
func (e *env) endRound() error {
	if e.spec.endRound == nil {
		return nil
	}
	if err := e.spec.endRound(e); err != nil {
		return fmt.Errorf("end round: %w", err)
	}
	return nil
}

// passResult aggregates the rounds of one measured pass.
type passResult struct {
	perRound    []roundResult // each round's own window and samples
	ops, failed int
	elapsed     time.Duration // sum of the rounds' windows
	failures    []string
	rowsBack    int64
	mem         memDelta
	// heapBytes is HeapAlloc after forced GCs at the end of the window,
	// the system still live, less the latency samples this pass itself
	// holds (their number follows the machine's speed).
	heapBytes uint64
}

// samples pools every round's latency samples.
func (p *passResult) samples() []sample {
	var all []sample
	for _, r := range p.perRound {
		all = append(all, r.samples...)
	}
	return all
}

// runPass repeats whole rounds of the script until about budget has been
// measured (never fewer than one round, never more than maxRounds when
// that is positive). Whole rounds keep the op mix — and therefore the
// per-op allocation counts — identical however fast the machine is. The
// reference kernel is timed before the first round and after every round,
// outside the rounds' windows; a round's slowness comes from the two
// timings around it.
func (e *env) runPass(ctx context.Context, script []op, clients int, budget time.Duration, maxRounds int) (passResult, error) {
	var p passResult
	runtime.GC()
	ref := refKernel()
	for {
		r, err := e.runRound(ctx, script, clients)
		after := refKernel()
		r.slow, ref = refFactor(e.spec.refShare, ref, after), after
		p.perRound = append(p.perRound, r)
		p.ops += r.ops
		p.failed += r.failed
		p.elapsed += r.elapsed
		p.rowsBack += r.rowsBack
		p.mem.add(r.mem)
		for _, f := range r.failures {
			if len(p.failures) < maxFailuresKept {
				p.failures = append(p.failures, f)
			}
		}
		if err != nil {
			return p, err
		}
		mean := p.elapsed / time.Duration(len(p.perRound))
		done := p.elapsed+mean/2 >= budget || (maxRounds > 0 && len(p.perRound) >= maxRounds)
		if done {
			// Twice: the second cycle empties the sync.Pool victim caches
			// the first one filled, so what is left is the resident
			// ontology and the program's own caches.
			runtime.GC()
			runtime.GC()
			var m runtime.MemStats
			runtime.ReadMemStats(&m)
			p.heapBytes = m.HeapAlloc - uint64(p.ops)*uint64(unsafe.Sizeof(sample{}))
		}
		if err := e.endRound(); err != nil {
			return p, err
		}
		if done {
			return p, nil
		}
	}
}
