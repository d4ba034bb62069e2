// Package tdb provides durable storage for an rdf.Dataset, replacing the
// Jena TDB persistence engine used by the original MDM implementation.
//
// The design is a segment store in front of a write-ahead log:
//
//   - MANIFEST lists the live, immutable on-disk segments (see the
//     segment subpackage: a dict block of interned terms plus ID-triple
//     blocks per graph, checksummed) in apply order;
//   - wal.jsonl holds one JSON record per Commit since the last seal:
//     {"ops":[...]}, the batch of mutations one caller made together.
//
// Every mutation is a Commit: the batch is encoded into one record,
// appended with one write, and then applied to the live dataset. The mdm
// facade commits the whole write set of an ontology mutator (a wrapper's
// source graph triples and release record; a mapping graph's drop and
// refill; a prefix binding). A record is replayed as a whole or not at
// all, so what a caller was told succeeded is on the log, and what a
// crash tore is gone entirely.
//
// The store is append-only: an op adds a triple, binds a prefix or drops
// a whole named graph, and nothing removes a single triple. A WAL line or
// segment block holding a triple removal (which no shipping writer ever
// emitted, though earlier releases could read one) fails the open with
// the file and the byte offset; it is never skipped, and never trimmed as
// a torn tail.
//
// Open loads the manifest's segments (binary decode straight into the
// dataset dictionary and ID indexes — no Turtle parsing) and then
// replays the WAL tail, so startup is O(segments + WAL tail), not
// O(full history re-parse). Checkpoint seals the WAL tail into a new
// delta segment in O(tail); Compact writes the live dataset as a single
// full segment that replaces the chain, leaving dropped graphs and the
// dictionary terms only they used out of the file. Both are disk
// operations: a store serves one dataset from OpenWith to Close, readers
// are never moved, and the in-memory dictionary sheds its dead terms at
// the next open (see docs/STORAGE.md, "Readers and compaction"). Both
// publish the manifest with a temp-file + rename, so a crash mid-seal
// leaves the previous manifest + WAL recovery point intact. Maintain is
// the policy that picks between them; neither is what makes a write
// durable — the WAL is — they bound the next open and the disk the
// history takes.
//
// # Durability
//
// By default a WAL append is handed to the OS (one write(2)) but NOT
// fsynced: an acknowledged commit survives a crash of the process
// (kill -9 included), but an OS crash or power failure can lose any
// records the kernel had not yet written back. Options.Fsync opts into
// power-cut durability: every append is fsynced before Commit returns.
// A truncated final WAL record (torn write during a crash) is tolerated
// and trimmed at the next Open; an undecodable record with further
// records after it is mid-file corruption and fails Open with the byte
// offset.
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

// Options configures OpenWith. The zero value is Open's: no fsync, no
// background maintenance.
type Options struct {
	// Fsync fsyncs the WAL after every append, so an acknowledged commit
	// survives an OS crash or a power cut, not only a crash of the
	// process. A failed fsync fails the Commit (the batch is applied and
	// logged; only its durability is unknown), and Close returns its own.
	Fsync bool
	// CompactInterval, when > 0, starts the background compactor: every
	// interval the store runs the Maintain policy, leaving a WAL tail of
	// fewer than compactWALThreshold ops where it is.
	CompactInterval time.Duration
}

// Store is a durable rdf.Dataset. All mutations must go through the
// Store's methods so they hit the WAL; reads use the Dataset directly.
// Store is safe for concurrent use.
type Store struct {
	mu   sync.Mutex
	dir  string
	opts Options

	// ds is the one dataset the store serves, from OpenWith to Close.
	ds *rdf.Dataset

	// man is the segment manifest; nil for a store that has never sealed
	// a segment.
	man *segment.Manifest

	// wal is opened O_APPEND and written one whole record per write(2).
	// walBytes is its length, the point a failed append is cut back to;
	// walRecords and walOps count the records and the ops in them since
	// the last seal.
	wal        *os.File
	walBytes   int64
	walRecords int
	walOps     int
	closed     bool

	bgStop, bgDone chan struct{}
}

var errClosed = errors.New("tdb: store is closed")

// walRecord is one WAL line: the ops of one Commit. A line decodes and
// is replayed as a whole or not at all.
type walRecord struct {
	Ops []walOp `json:"ops"`
}

// walOp is the WAL encoding of an rdf.Op.
type walOp struct {
	Op string `json:"op"` // add | drop | prefix
	// Quad is s, p, o and, for a named graph, the graph (add).
	Quad   []jsonTerm `json:"quad,omitempty"`
	Graph  *jsonTerm  `json:"graph,omitempty"` // drop
	Prefix string     `json:"prefix,omitempty"`
	NS     string     `json:"ns,omitempty"`
}

// jsonTerm is the WAL encoding of an rdf.Term.
type jsonTerm struct {
	K  uint8  `json:"k"`
	V  string `json:"v"`
	DT string `json:"dt,omitempty"`
	LG string `json:"lg,omitempty"`
}

func encTerm(t rdf.Term) jsonTerm {
	return jsonTerm{K: uint8(t.Kind), V: t.Value, DT: t.Datatype, LG: t.Lang}
}

func decTerm(j jsonTerm) rdf.Term {
	return rdf.Term{Kind: rdf.TermKind(j.K), Value: j.V, Datatype: j.DT, Lang: j.LG}
}

var walOpNames = [...]string{rdf.OpAdd: "add", rdf.OpDrop: "drop", rdf.OpPrefix: "prefix"}

// encodeRecord renders ops as one WAL line, rejecting what replay would
// refuse: a record is never written that the next open cannot read.
func encodeRecord(ops []rdf.Op) ([]byte, error) {
	rec := walRecord{Ops: make([]walOp, len(ops))}
	for i, op := range ops {
		if err := rdf.CheckOp(op); err != nil {
			return nil, err
		}
		w := walOp{Op: walOpNames[op.Kind]}
		switch op.Kind {
		case rdf.OpAdd:
			w.Quad = []jsonTerm{encTerm(op.Quad.S), encTerm(op.Quad.P), encTerm(op.Quad.O)}
			if !op.Quad.Graph.IsZero() {
				w.Quad = append(w.Quad, encTerm(op.Quad.Graph))
			}
		case rdf.OpDrop:
			g := encTerm(op.Quad.Graph)
			w.Graph = &g
		case rdf.OpPrefix:
			w.Prefix, w.NS = op.Prefix, op.NS
		}
		rec.Ops[i] = w
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("tdb: encode wal record: %w", err)
	}
	return append(line, '\n'), nil
}

// decodeRecord is encodeRecord's inverse. A line that is not a record —
// bad JSON, no ops, an unknown op, a malformed quad — is an error: replay
// treats it as damage, never as an empty record. A record holding a
// triple removal is segment.ErrRemove, which replay refuses instead.
func decodeRecord(line []byte) ([]rdf.Op, error) {
	var rec walRecord
	if err := json.Unmarshal(line, &rec); err != nil {
		return nil, err
	}
	if len(rec.Ops) == 0 {
		return nil, errors.New("record holds no ops")
	}
	ops := make([]rdf.Op, len(rec.Ops))
	for i, w := range rec.Ops {
		var op rdf.Op
		switch w.Op {
		case "add":
			if len(w.Quad) != 3 && len(w.Quad) != 4 {
				return nil, fmt.Errorf("quad of %d terms", len(w.Quad))
			}
			op.Kind = rdf.OpAdd
			op.Quad.Triple = rdf.T(decTerm(w.Quad[0]), decTerm(w.Quad[1]), decTerm(w.Quad[2]))
			if len(w.Quad) == 4 {
				op.Quad.Graph = decTerm(w.Quad[3])
			}
		case "drop":
			if w.Graph == nil {
				return nil, errors.New("drop names no graph")
			}
			op = rdf.Op{Kind: rdf.OpDrop, Quad: rdf.Quad{Graph: decTerm(*w.Graph)}}
		case "prefix":
			op = rdf.Op{Kind: rdf.OpPrefix, Prefix: w.Prefix, NS: w.NS}
		case "remove":
			return nil, segment.ErrRemove
		default:
			return nil, fmt.Errorf("unknown op %q", w.Op)
		}
		if err := rdf.CheckOp(op); err != nil {
			return nil, err
		}
		ops[i] = op
	}
	return ops, nil
}

// Open loads (or creates) a store rooted at dir with default options.
func Open(dir string) (*Store, error) {
	return OpenWith(dir, Options{})
}

// OpenWith loads (or creates) a store rooted at dir. If
// opts.CompactInterval > 0 the background maintenance tick is started
// before it returns.
func OpenWith(dir string, opts Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("tdb: create dir: %w", err)
	}
	s := &Store{dir: dir, opts: opts, ds: rdf.NewDataset()}

	man, err := segment.LoadManifest(dir)
	if err != nil {
		return nil, fmt.Errorf("tdb: %w", err)
	}
	if man != nil {
		// Sweep crash leftovers (sealed-but-unpublished segments, temp
		// manifests), then stream-load the live segments.
		man.Sweep(dir)
		for _, name := range man.Segments {
			if _, err := segment.LoadFile(filepath.Join(dir, name), s.ds); err != nil {
				return nil, fmt.Errorf("tdb: load segment: %w", err)
			}
		}
		s.man = man
	} else if _, err := os.Stat(filepath.Join(dir, "snapshot.trig")); err == nil {
		// Opening a pre-segment store as empty would silently drop its
		// data at the next compaction.
		return nil, fmt.Errorf("tdb: %s holds a pre-segment snapshot.trig store; PR 12 is the last release that migrates it (open and compact it there once)", dir)
	}

	if err := s.replayWAL(); err != nil {
		return nil, err
	}
	wal, err := os.OpenFile(filepath.Join(dir, walFile), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("tdb: open wal: %w", err)
	}
	s.wal = wal

	if opts.CompactInterval > 0 {
		s.bgStop, s.bgDone = make(chan struct{}), make(chan struct{})
		go s.maintainLoop()
	}
	s.observeSegments()
	return s, nil
}

// walDamage describes the first line of a WAL file that is not a record.
type walDamage struct {
	err  error
	size int64 // bytes from the line's first byte to the end of the file
	last bool  // nothing but blank space follows: a torn final append
}

// eachWALRecord calls fn with the ops of every record of the WAL file at
// path, in order, and returns the length of the prefix that decoded. It
// stops at the first line that is not a record and describes it, and
// fails at the first record that holds a triple removal, naming the file
// and the line's byte offset.
func eachWALRecord(path string, fn func(ops []rdf.Op)) (good int64, dmg *walDamage, err error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil, nil
	}
	if err != nil {
		return 0, nil, fmt.Errorf("tdb: open wal: %w", err)
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 1<<16)
	for {
		line, rerr := r.ReadBytes('\n')
		if rec := bytes.TrimSpace(line); len(rec) > 0 {
			ops, derr := decodeRecord(rec)
			if errors.Is(derr, segment.ErrRemove) {
				return good, nil, fmt.Errorf("tdb: %s: record at byte offset %d: %w", path, good, derr)
			}
			if derr != nil {
				tail, terr := io.ReadAll(r)
				if terr != nil {
					return good, nil, fmt.Errorf("tdb: read wal: %w", terr)
				}
				return good, &walDamage{err: derr, size: int64(len(line) + len(tail)), last: len(bytes.TrimSpace(tail)) == 0}, nil
			}
			fn(ops)
		}
		good += int64(len(line))
		if rerr == io.EOF {
			return good, nil, nil
		}
		if rerr != nil {
			return good, nil, fmt.Errorf("tdb: read wal: %w", rerr)
		}
	}
}

// replayWAL applies the WAL tail to the live dataset, record by record:
// a record's ops are applied together or, when its line does not decode,
// not at all. A torn FINAL record (crash mid-append) is tolerated: the
// torn bytes are counted on mdm_tdb_wal_torn_bytes_total and trimmed
// from the file so later appends cannot bury corruption mid-file. An
// undecodable record with more data after it is mid-file corruption —
// the file kept growing past it, which a torn final append cannot
// produce — and fails the open, naming the byte offset. So does a
// record holding a triple removal, wherever it is, and the file is left
// as it was.
func (s *Store) replayWAL() error {
	path := filepath.Join(s.dir, walFile)
	good, dmg, err := eachWALRecord(path, func(ops []rdf.Op) {
		s.ds.Apply(ops)
		s.walRecords++
		s.walOps += len(ops)
	})
	if err != nil {
		return err
	}
	if dmg != nil {
		if !dmg.last {
			return fmt.Errorf("tdb: corrupt wal record at byte offset %d: %w", good, dmg.err)
		}
		obsTornBytes.Add(float64(dmg.size))
		if err := os.Truncate(path, good); err != nil {
			return fmt.Errorf("tdb: trim torn wal tail: %w", err)
		}
	}
	s.walBytes = good
	return nil
}

// Commit durably applies ops as one batch: they are encoded into a
// single WAL record, appended with one write, and only then applied to
// the live dataset, in order. The record is replayed as a whole or not
// at all, so a crash can never leave part of a batch behind, and a batch
// that could not be logged is not applied. Without Options.Fsync an
// acknowledged batch survives a crash of the process, not of the machine;
// with it, a failed fsync is reported after the batch is applied (the
// record is in the log, only its durability is unknown).
func (s *Store) Commit(ops []rdf.Op) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.commitLocked(ops)
}

func (s *Store) commitLocked(ops []rdf.Op) error {
	if s.closed {
		return errClosed
	}
	if len(ops) == 0 {
		return nil
	}
	line, err := encodeRecord(ops)
	if err != nil {
		return err
	}
	if _, err := s.wal.Write(line); err != nil {
		// Cut a partial line back off, or the next append would bury it
		// mid-file and fail the next open.
		_ = s.wal.Truncate(s.walBytes) // best effort: the write error is what the caller must see
		return fmt.Errorf("tdb: append wal: %w", err)
	}
	s.walBytes += int64(len(line))
	s.walRecords++
	s.walOps += len(ops)
	s.ds.Apply(ops)
	if s.opts.Fsync {
		if err := s.wal.Sync(); err != nil {
			return fmt.Errorf("tdb: fsync wal: %w", err)
		}
		obsWALFsyncs.Inc()
	}
	return nil
}

// Dataset returns the store's dataset: the same one from OpenWith to
// Close, whatever maintenance runs in between. Mutate only through Store
// methods.
func (s *Store) Dataset() *rdf.Dataset { return s.ds }

// WALRecords returns the number of WAL records since the last seal
// (including records replayed at Open). One Commit is one record however
// many ops it carries.
func (s *Store) WALRecords() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.walRecords
}

// Close stops background maintenance and closes the WAL, syncing it
// first with Options.Fsync. The store cannot be used afterwards.
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
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.opts.Fsync {
		if err := s.wal.Sync(); err != nil {
			s.wal.Close()
			return fmt.Errorf("tdb: fsync wal: %w", err)
		}
	}
	return s.wal.Close()
}
