// Package tdb provides durable storage for an rdf.Dataset, replacing the
// Jena TDB persistence engine used by the original MDM implementation.
//
// The design is an epoch-based segment store in front of a write-ahead
// log:
//
//   - MANIFEST lists the live, immutable on-disk segments (see the
//     segment subpackage: a dict block of interned terms plus ID-triple
//     blocks per graph, checksummed) in apply order;
//   - wal.jsonl holds one JSON record per mutation since the last seal.
//
// Open loads the manifest's segments (binary decode straight into the
// dataset dictionary and ID indexes — no Turtle parsing) and then
// replays the WAL tail, so startup is O(segments + WAL tail), not
// O(full history re-parse). Checkpoint seals the WAL tail into a new
// delta segment in O(tail); Compact rewrites the live dataset against a
// fresh dictionary into a single full segment, dropping dead dictionary
// terms and tombstoned triples, and swaps the compacted dataset in as a
// new EPOCH — readers that pinned the previous epoch (PinSnapshot) keep
// draining their snapshot untouched. Both publish the manifest with a
// temp-file + rename, so a crash mid-seal leaves the previous manifest
// + WAL recovery point intact.
//
// # Durability
//
// By default WAL appends are flushed to the OS (bufio.Flush) but NOT
// fsynced: a process crash loses at most the record being written, but
// an OS crash or power failure can lose any records the kernel had not
// yet written back. Opt into fsync durability with Options.Sync:
// SyncAlways fsyncs every append; SyncBatch fsyncs at most every
// Options.SyncInterval. A truncated final WAL record (torn write during
// a crash) is tolerated and trimmed at the next Open; an undecodable
// record with further records after it is mid-file corruption and fails
// Open with the byte offset.
package tdb

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"mdm/internal/rdf"
	"mdm/internal/tdb/segment"
)

const walFile = "wal.jsonl"

// SyncMode selects WAL fsync behavior; see Options.Sync.
type SyncMode int

const (
	// SyncNone (default) flushes appends to the OS without fsync.
	SyncNone SyncMode = iota
	// SyncAlways fsyncs the WAL after every append.
	SyncAlways
	// SyncBatch marks the WAL dirty on append and fsyncs it from a
	// background goroutine every Options.SyncInterval.
	SyncBatch
)

// Options configures OpenWith. The zero value reproduces Open's
// historical behavior: no fsync, no background maintenance.
type Options struct {
	// Sync selects the WAL durability mode.
	Sync SyncMode
	// SyncInterval is the SyncBatch flush period (default 5ms).
	SyncInterval time.Duration
	// CompactInterval, when > 0, starts the background compactor: every
	// interval the store seals the WAL tail once it reaches
	// CompactWALThreshold records and runs a full compaction when the
	// dictionary or segment list has grown enough (see maintain).
	CompactInterval time.Duration
	// CompactWALThreshold is the WAL record count that triggers a
	// background checkpoint (default 4096).
	CompactWALThreshold int
}

func (o Options) withDefaults() Options {
	if o.SyncInterval <= 0 {
		o.SyncInterval = 5 * time.Millisecond
	}
	if o.CompactWALThreshold <= 0 {
		o.CompactWALThreshold = 4096
	}
	return o
}

// Store is a durable rdf.Dataset. All mutations must go through the
// Store's methods so they hit the WAL; reads can use the Dataset
// directly (or PinSnapshot for compaction-isolated reads). Store is
// safe for concurrent use.
type Store struct {
	mu   sync.Mutex
	dir  string
	opts Options

	// cur is the live epoch; retired holds epochs replaced by a
	// compaction that still have outstanding pins.
	cur      *epoch
	retired  map[uint64]*epoch
	epochSeq uint64

	// man is the segment manifest; nil for a store that has never sealed
	// a segment.
	man *segment.Manifest

	wal        *os.File
	walBuf     *bufio.Writer
	walRecords int
	walDirty   bool // SyncBatch: append since last fsync
	closed     bool

	// swapHook, when set, runs epoch swaps inside a caller-provided
	// quiescence window (see SetSwapHook).
	swapHook func(swap func(old *rdf.Dataset) *rdf.Dataset)

	// lastSealed fingerprints the dataset at the last durable point, so
	// the background compactor can detect mutations that bypassed the
	// WAL (the mdm facade writes through the ontology); lastFullDict is
	// the dictionary size right after the last full compaction.
	lastSealed   dsFingerprint
	lastFullDict int

	bgStop, bgDone     chan struct{}
	syncStop, syncDone chan struct{}
}

type dsFingerprint struct {
	version  uint64
	len, dic int
}

func fingerprint(ds *rdf.Dataset) dsFingerprint {
	return dsFingerprint{version: ds.Version(), len: ds.Len(), dic: ds.Dict().Len()}
}

// walRecord is one logged mutation.
type walRecord struct {
	Op     string    `json:"op"` // add | remove | drop | prefix
	Quad   *jsonQuad `json:"quad,omitempty"`
	Graph  *jsonTerm `json:"graph,omitempty"`
	Prefix string    `json:"prefix,omitempty"`
	NS     string    `json:"ns,omitempty"`
}

// jsonTerm is the WAL encoding of an rdf.Term.
type jsonTerm struct {
	K  uint8  `json:"k"`
	V  string `json:"v"`
	DT string `json:"dt,omitempty"`
	LG string `json:"lg,omitempty"`
}

// jsonQuad serializes as a compact JSON array of 3 or 4 terms via the
// custom (Un)MarshalJSON methods below.
type jsonQuad struct {
	S, P, O jsonTerm
	G       *jsonTerm
}

func encTerm(t rdf.Term) jsonTerm {
	return jsonTerm{K: uint8(t.Kind), V: t.Value, DT: t.Datatype, LG: t.Lang}
}

func decTerm(j jsonTerm) rdf.Term {
	return rdf.Term{Kind: rdf.TermKind(j.K), Value: j.V, Datatype: j.DT, Lang: j.LG}
}

func encQuad(q rdf.Quad) *jsonQuad {
	jq := &jsonQuad{S: encTerm(q.S), P: encTerm(q.P), O: encTerm(q.O)}
	if !q.Graph.IsZero() {
		g := encTerm(q.Graph)
		jq.G = &g
	}
	return jq
}

func (jq *jsonQuad) quad() rdf.Quad {
	q := rdf.Quad{Triple: rdf.T(decTerm(jq.S), decTerm(jq.P), decTerm(jq.O))}
	if jq.G != nil {
		q.Graph = decTerm(*jq.G)
	}
	return q
}

// MarshalJSON flattens the quad to a compact array-of-terms form.
func (jq *jsonQuad) MarshalJSON() ([]byte, error) {
	arr := []jsonTerm{jq.S, jq.P, jq.O}
	if jq.G != nil {
		arr = append(arr, *jq.G)
	}
	return json.Marshal(arr)
}

// UnmarshalJSON reverses MarshalJSON.
func (jq *jsonQuad) UnmarshalJSON(b []byte) error {
	var arr []jsonTerm
	if err := json.Unmarshal(b, &arr); err != nil {
		return err
	}
	if len(arr) != 3 && len(arr) != 4 {
		return fmt.Errorf("tdb: quad record has %d terms", len(arr))
	}
	jq.S, jq.P, jq.O = arr[0], arr[1], arr[2]
	if len(arr) == 4 {
		g := arr[3]
		jq.G = &g
	}
	return nil
}

// Open loads (or creates) a store rooted at dir with default options.
func Open(dir string) (*Store, error) {
	return OpenWith(dir, Options{})
}

// OpenWith loads (or creates) a store rooted at dir. If
// opts.CompactInterval > 0 the background compactor is started
// immediately; facade-style embedders that need to wire a swap hook
// first should leave it zero and call SetSwapHook + StartAutoCompact.
func OpenWith(dir string, opts Options) (*Store, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("tdb: create dir: %w", err)
	}
	ds := rdf.NewDataset()
	s := &Store{
		dir:      dir,
		opts:     opts,
		retired:  make(map[uint64]*epoch),
		epochSeq: 1,
	}

	man, err := segment.LoadManifest(dir)
	if err != nil {
		return nil, fmt.Errorf("tdb: %w", err)
	}
	if man != nil {
		// Sweep crash leftovers (sealed-but-unpublished segments, temp
		// manifests), then stream-load the live segments.
		man.Sweep(dir)
		for _, name := range man.Segments {
			if _, err := segment.LoadFile(filepath.Join(dir, name), ds); err != nil {
				return nil, fmt.Errorf("tdb: corrupt segment: %w", err)
			}
		}
		s.man = man
	} else if _, err := os.Stat(filepath.Join(dir, "snapshot.trig")); err == nil {
		// Opening a pre-segment store as empty would silently drop its
		// data at the next compaction.
		return nil, fmt.Errorf("tdb: %s holds a pre-segment snapshot.trig store; PR 12 is the last release that migrates it (open and compact it there once)", dir)
	}

	s.cur = &epoch{seq: s.epochSeq, ds: ds}
	if err := s.replayWAL(); err != nil {
		return nil, err
	}
	wal, err := os.OpenFile(filepath.Join(dir, walFile), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("tdb: open wal: %w", err)
	}
	s.wal = wal
	s.walBuf = bufio.NewWriter(wal)
	s.lastSealed = fingerprint(ds)
	s.lastFullDict = ds.Dict().Len()

	if opts.Sync == SyncBatch {
		s.syncStop, s.syncDone = make(chan struct{}), make(chan struct{})
		go s.syncLoop()
	}
	if opts.CompactInterval > 0 {
		s.StartAutoCompact(opts.CompactInterval, opts.CompactWALThreshold)
	}
	s.observeSegments()
	return s, nil
}

// replayWAL applies the WAL tail to the live dataset. A torn FINAL
// record (crash mid-append) is tolerated: the torn bytes are counted on
// mdm_tdb_wal_torn_bytes_total and trimmed from the file so later
// appends cannot bury corruption mid-file. An undecodable record with more data after it is
// mid-file corruption and fails the open, naming the byte offset.
func (s *Store) replayWAL() error {
	path := filepath.Join(s.dir, walFile)
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("tdb: open wal for replay: %w", err)
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 1<<16)
	// WAL records cluster by graph (MDM mutates one named graph at a
	// time), so cache the last graph to skip a dataset lookup per record.
	var cache graphCache
	var off int64 // offset of the first byte not yet known-good
	for {
		line, rerr := r.ReadBytes('\n')
		rec := bytes.TrimSpace(line)
		if len(rec) > 0 {
			var w walRecord
			if uerr := json.Unmarshal(rec, &w); uerr != nil {
				// Torn tail or mid-file corruption? Anything after this
				// line means the file kept growing past the bad record,
				// which a torn final append cannot produce.
				rest, _ := io.ReadAll(r)
				if len(bytes.TrimSpace(rest)) > 0 {
					return fmt.Errorf("tdb: corrupt wal record at byte offset %d: %w", off, uerr)
				}
				torn := int64(len(line) + len(rest))
				obsTornBytes.Add(float64(torn))
				if terr := os.Truncate(path, off); terr != nil {
					return fmt.Errorf("tdb: trim torn wal tail: %w", terr)
				}
				return nil
			}
			s.applyLocked(w, &cache)
			s.walRecords++
		}
		off += int64(len(line))
		if rerr == io.EOF {
			return nil
		}
		if rerr != nil {
			return fmt.Errorf("tdb: read wal: %w", rerr)
		}
	}
}

// graphCache memoizes the most recent Dataset.Graph resolution during
// WAL replay.
type graphCache struct {
	name  rdf.Term
	graph *rdf.Graph
}

func (c *graphCache) get(ds *rdf.Dataset, name rdf.Term) *rdf.Graph {
	if c.graph == nil || c.name != name {
		c.graph = ds.Graph(name)
		c.name = name
	}
	return c.graph
}

func (c *graphCache) invalidate() { c.graph = nil }

func (s *Store) applyLocked(rec walRecord, cache *graphCache) {
	switch rec.Op {
	case "add":
		if rec.Quad != nil {
			q := rec.Quad.quad()
			_, _ = cache.get(s.cur.ds, q.Graph).Add(q.Triple)
		}
	case "remove":
		if rec.Quad != nil {
			q := rec.Quad.quad()
			// Removing from a graph that does not exist must stay a
			// no-op: resolving it through Dataset.Graph would create the
			// graph and bump Dataset.Version for nothing.
			if g, ok := s.cur.ds.Lookup(q.Graph); ok {
				if cache.graph != nil && cache.name != q.Graph {
					cache.invalidate()
				}
				g.Remove(q.Triple)
			}
		}
	case "drop":
		if rec.Graph != nil {
			s.cur.ds.DropGraph(decTerm(*rec.Graph))
			cache.invalidate()
		}
	case "prefix":
		s.cur.ds.Prefixes().Bind(rec.Prefix, rec.NS)
	}
}

func (s *Store) append(rec walRecord) error {
	if s.closed {
		return errors.New("tdb: store is closed")
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("tdb: encode wal record: %w", err)
	}
	if _, err := s.walBuf.Write(append(b, '\n')); err != nil {
		return fmt.Errorf("tdb: append wal: %w", err)
	}
	if err := s.walBuf.Flush(); err != nil {
		return fmt.Errorf("tdb: flush wal: %w", err)
	}
	switch s.opts.Sync {
	case SyncAlways:
		if err := s.wal.Sync(); err != nil {
			return fmt.Errorf("tdb: fsync wal: %w", err)
		}
		obsWALFsyncs.Inc()
	case SyncBatch:
		s.walDirty = true
	}
	s.walRecords++
	return nil
}

// syncLoop is the SyncBatch flusher: fsync the WAL at most once per
// SyncInterval, and only when an append happened since the last fsync.
func (s *Store) syncLoop() {
	defer close(s.syncDone)
	t := time.NewTicker(s.opts.SyncInterval)
	defer t.Stop()
	for {
		select {
		case <-s.syncStop:
			return
		case <-t.C:
		}
		s.mu.Lock()
		if !s.closed && s.walDirty {
			if err := s.wal.Sync(); err != nil {
				obsMaintErrors.Inc()
			}
			s.walDirty = false
			obsWALFsyncs.Inc()
		}
		s.mu.Unlock()
	}
}

// Dataset returns the live dataset (the current epoch). Mutate only
// through Store methods. After a compaction this returns a DIFFERENT
// dataset; long-running readers that must not observe the swap should
// use PinSnapshot.
func (s *Store) Dataset() *rdf.Dataset {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cur.ds
}

// AddQuad durably inserts a quad.
func (s *Store) AddQuad(q rdf.Quad) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !q.Triple.Valid() {
		return fmt.Errorf("tdb: invalid quad %s", q)
	}
	added, err := s.cur.ds.AddQuad(q)
	if err != nil {
		return err
	}
	if !added {
		return nil // no-op, nothing to log
	}
	return s.append(walRecord{Op: "add", Quad: encQuad(q)})
}

// AddTriple durably inserts a triple into the default graph.
func (s *Store) AddTriple(t rdf.Triple) error {
	return s.AddQuad(rdf.Quad{Triple: t})
}

// RemoveQuad durably removes a quad, reporting whether it was present.
// Removing from a named graph that does not exist is a no-op: it does
// not create the graph (and so does not bump Dataset.Version or
// invalidate plan caches).
func (s *Store) RemoveQuad(q rdf.Quad) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	g, ok := s.cur.ds.Lookup(q.Graph)
	if !ok || !g.Remove(q.Triple) {
		return false, nil
	}
	return true, s.append(walRecord{Op: "remove", Quad: encQuad(q)})
}

// DropGraph durably removes an entire named graph.
func (s *Store) DropGraph(name rdf.Term) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.cur.ds.DropGraph(name) {
		return nil
	}
	g := encTerm(name)
	return s.append(walRecord{Op: "drop", Graph: &g})
}

// BindPrefix durably registers a prefix binding.
func (s *Store) BindPrefix(prefix, ns string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cur.ds.Prefixes().Bind(prefix, ns)
	return s.append(walRecord{Op: "prefix", Prefix: prefix, NS: ns})
}

// WALRecords returns the number of WAL records since the last seal
// (including records replayed at Open).
func (s *Store) WALRecords() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.walRecords
}

// Close stops background maintenance, flushes and closes the WAL. The
// store cannot be used afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	if s.bgStop != nil {
		close(s.bgStop)
		<-s.bgDone
	}
	if s.syncStop != nil {
		close(s.syncStop)
		<-s.syncDone
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.walBuf.Flush(); err != nil {
		s.wal.Close()
		return err
	}
	if s.opts.Sync != SyncNone {
		if err := s.wal.Sync(); err != nil {
			s.wal.Close()
			return fmt.Errorf("tdb: fsync wal: %w", err)
		}
	}
	return s.wal.Close()
}
