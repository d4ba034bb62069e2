package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"time"
)

// SlowEntry is one slow-query log record, written as a single JSON
// line. The query text itself is never logged — only its hash — so the
// log can be shipped without leaking query contents.
type SlowEntry struct {
	Time       string             `json:"time"`
	Endpoint   string             `json:"endpoint"`
	QueryHash  string             `json:"query_hash,omitempty"`
	DurationMS float64            `json:"duration_ms"`
	Status     int                `json:"status,omitempty"`
	StagesMS   map[string]float64 `json:"stages_ms,omitempty"`
	Plan       string             `json:"plan,omitempty"`
	Attrs      map[string]string  `json:"attrs,omitempty"` // the trace's annotations: rewrite_cache, rows, ...
	Rows       int64              `json:"rows"`
	Partial    bool               `json:"partial,omitempty"`
	Missing    []MissingSource    `json:"missing,omitempty"`
	Sources    []SourceReport     `json:"sources,omitempty"` // walks: every source fetch, as in the EXPLAIN report
}

// MissingSource is one federated source that failed within a
// partial-results query, with its error classification.
type MissingSource struct {
	Source string `json:"source"`
	Class  string `json:"class"`
}

// SlowLog writes one JSON line per query slower than Threshold. When
// backed by a file it rotates by size: path → path.1 → path.2, keeping
// Keep generations. A nil *SlowLog is inert.
type SlowLog struct {
	Threshold time.Duration
	MaxBytes  int64 // rotation trigger; 0 means 8 MiB
	Keep      int   // rotated generations kept; 0 means 2

	mu   sync.Mutex
	w    io.Writer // non-file sink (tests, stderr); no rotation
	path string
	f    *os.File
	size int64
}

// NewSlowLog opens (appending) a file-backed slow-query log.
func NewSlowLog(path string, threshold time.Duration) (*SlowLog, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("slowlog: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("slowlog: %w", err)
	}
	return &SlowLog{Threshold: threshold, path: path, f: f, size: st.Size()}, nil
}

// NewSlowLogWriter returns a slow log writing to w without rotation.
func NewSlowLogWriter(w io.Writer, threshold time.Duration) *SlowLog {
	return &SlowLog{Threshold: threshold, w: w}
}

// Enabled reports whether a query of duration d should be logged.
func (l *SlowLog) Enabled(d time.Duration) bool {
	return l != nil && d >= l.Threshold
}

// Record writes one entry unconditionally (the threshold check is
// Enabled, at the call site, so callers skip building the entry for
// fast queries). Stamps Time if unset.
func (l *SlowLog) Record(e SlowEntry) error {
	if l == nil {
		return nil
	}
	if e.Time == "" {
		e.Time = time.Now().UTC().Format(time.RFC3339Nano)
	}
	line, err := json.Marshal(e)
	if err != nil {
		return err
	}
	line = append(line, '\n')
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		if l.w == nil {
			return nil
		}
		_, err = l.w.Write(line)
		return err
	}
	maxBytes := l.MaxBytes
	if maxBytes == 0 {
		maxBytes = 8 << 20
	}
	if l.size+int64(len(line)) > maxBytes && l.size > 0 {
		if err := l.rotate(); err != nil {
			return err
		}
	}
	n, err := l.f.Write(line)
	l.size += int64(n)
	return err
}

// rotate shifts path.(keep-1) … path.1, path → path.1 and reopens a
// fresh file. Caller holds the mutex.
func (l *SlowLog) rotate() error {
	keep := l.Keep
	if keep == 0 {
		keep = 2
	}
	if err := l.f.Close(); err != nil {
		return err
	}
	os.Remove(fmt.Sprintf("%s.%d", l.path, keep))
	for i := keep - 1; i >= 1; i-- {
		os.Rename(fmt.Sprintf("%s.%d", l.path, i), fmt.Sprintf("%s.%d", l.path, i+1))
	}
	if err := os.Rename(l.path, l.path+".1"); err != nil && !os.IsNotExist(err) {
		return err
	}
	f, err := os.OpenFile(l.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		l.f = nil
		return err
	}
	l.f, l.size = f, 0
	return nil
}

// Close closes the underlying file, if any.
func (l *SlowLog) Close() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f != nil {
		err := l.f.Close()
		l.f = nil
		return err
	}
	return nil
}
