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
	"time"

	"mdm/internal/rdf"
	"mdm/internal/tdb/segment"
)

// maxDeltaSegments is the segment count at which background maintenance
// folds the delta chain into one full segment.
const maxDeltaSegments = 16

// Checkpoint seals the current WAL tail into a new delta segment and
// truncates the WAL: an O(tail) durability point, unlike Compact's
// O(dataset) rewrite. A crash between publishing the manifest and
// truncating the WAL replays the sealed ops on top of the segment at the
// next open; every op is idempotent against its own effect, so the
// recovered dataset is unchanged.
func (s *Store) Checkpoint() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.checkpointLocked()
}

func (s *Store) checkpointLocked() error {
	if s.closed {
		return errors.New("tdb: store is closed")
	}
	if err := s.walBuf.Flush(); err != nil {
		return fmt.Errorf("tdb: flush wal: %w", err)
	}
	if s.walRecords == 0 {
		return nil
	}
	defer timeObs(obsCheckpointDur)()
	ops, err := s.readWALOps()
	if err != nil {
		return err
	}
	man := s.man
	if man == nil {
		man = &segment.Manifest{NextSeq: 1}
	}
	name := segment.SegmentName(man.NextSeq)
	if _, err := segment.WriteFile(filepath.Join(s.dir, name), ops); err != nil {
		return fmt.Errorf("tdb: seal delta segment: %w", err)
	}
	next := man.Clone()
	next.Segments = append(next.Segments, name)
	next.NextSeq++
	if err := next.Write(s.dir); err != nil {
		// The orphaned segment file is swept at the next open.
		return fmt.Errorf("tdb: %w", err)
	}
	s.man = next
	if err := s.truncateWALLocked(); err != nil {
		return err
	}
	s.lastSealed = fingerprint(s.cur.ds)
	obsCheckpoints.Inc()
	s.observeSegments()
	return nil
}

// Compact rewrites the live dataset into a single full segment against a
// fresh dictionary (dropping dead terms and superseded delta segments),
// publishes a one-segment manifest, truncates the WAL and installs the
// compacted dataset as a new epoch. Readers holding a PinSnapshot keep
// their pre-compaction view; everyone else sees the new epoch on their
// next Dataset call.
//
// When a swap hook is registered (SetSwapHook), the epoch swap — and the
// segment IO feeding it — runs inside the hook's quiescence window, so
// writers that bypass the Store see an atomic dataset hand-over.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.compactLocked()
}

func (s *Store) compactLocked() error {
	if s.closed {
		return errors.New("tdb: store is closed")
	}
	defer timeObs(obsCompactDur)()
	var cerr error
	swap := func(old *rdf.Dataset) *rdf.Dataset {
		compacted := old.CompactedClone()
		if err := s.sealFullLocked(compacted); err != nil {
			cerr = err
			return nil // seal failed: stay on the old dataset
		}
		s.swapEpochLocked(compacted)
		return compacted
	}
	if s.swapHook != nil {
		s.swapHook(swap)
	} else {
		swap(s.cur.ds)
	}
	return cerr
}

// sealFullLocked writes ds as a full segment, publishes the manifest and
// resets the WAL. Caller holds s.mu.
func (s *Store) sealFullLocked(ds *rdf.Dataset) error {
	seq := uint64(1)
	if s.man != nil {
		seq = s.man.NextSeq
	}
	name := segment.SegmentName(seq)
	if _, err := segment.WriteFile(filepath.Join(s.dir, name), segment.DatasetOps(ds)); err != nil {
		return fmt.Errorf("tdb: seal full segment: %w", err)
	}
	next := &segment.Manifest{Segments: []string{name}, NextSeq: seq + 1}
	if err := next.Write(s.dir); err != nil {
		return fmt.Errorf("tdb: %w", err)
	}
	// The manifest is the recovery point: everything below is cleanup
	// that a crash can at worst leave for the next open to redo.
	s.man = next
	if err := s.truncateWALLocked(); err != nil {
		return err
	}
	next.Sweep(s.dir)
	s.lastSealed = fingerprint(ds)
	s.lastFullDict = ds.Dict().Len()
	obsCompactions.Inc()
	s.observeSegments()
	return nil
}

// truncateWALLocked empties the WAL after its contents became durable in
// a segment. Caller holds s.mu.
func (s *Store) truncateWALLocked() error {
	if err := s.walBuf.Flush(); err != nil {
		return fmt.Errorf("tdb: flush wal: %w", err)
	}
	if err := s.wal.Truncate(0); err != nil {
		return fmt.Errorf("tdb: truncate wal: %w", err)
	}
	if _, err := s.wal.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("tdb: rewind wal: %w", err)
	}
	s.walBuf.Reset(s.wal)
	s.walRecords = 0
	s.walDirty = false
	if s.opts.Sync != SyncNone {
		if err := s.wal.Sync(); err != nil {
			return fmt.Errorf("tdb: fsync wal: %w", err)
		}
	}
	return nil
}

// readWALOps re-reads the WAL tail as segment ops for sealing. Unlike
// replayWAL this tolerates nothing: the tail was written by this
// process, so any undecodable record is a bug or concurrent tampering.
func (s *Store) readWALOps() ([]segment.Op, error) {
	f, err := os.Open(filepath.Join(s.dir, walFile))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("tdb: open wal for checkpoint: %w", err)
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 1<<16)
	var ops []segment.Op
	for {
		line, rerr := r.ReadBytes('\n')
		if rec := bytes.TrimSpace(line); len(rec) > 0 {
			var w walRecord
			if err := json.Unmarshal(rec, &w); err != nil {
				return nil, fmt.Errorf("tdb: checkpoint: undecodable wal record: %w", err)
			}
			if op, ok := walOp(w); ok {
				ops = append(ops, op)
			}
		}
		if rerr == io.EOF {
			return ops, nil
		}
		if rerr != nil {
			return nil, fmt.Errorf("tdb: read wal: %w", rerr)
		}
	}
}

func walOp(w walRecord) (segment.Op, bool) {
	switch w.Op {
	case "add":
		if w.Quad != nil {
			return segment.Op{Kind: segment.OpAdd, Quad: w.Quad.quad()}, true
		}
	case "remove":
		if w.Quad != nil {
			return segment.Op{Kind: segment.OpRemove, Quad: w.Quad.quad()}, true
		}
	case "drop":
		if w.Graph != nil {
			return segment.Op{Kind: segment.OpDrop, Quad: rdf.Quad{Graph: decTerm(*w.Graph)}}, true
		}
	case "prefix":
		return segment.Op{Kind: segment.OpPrefix, Prefix: w.Prefix, NS: w.NS}, true
	}
	return segment.Op{}, false
}

// StartAutoCompact starts the background maintenance goroutine: every
// interval it seals the WAL tail into a delta segment once it holds
// walThreshold records, and escalates to a full compaction when the
// dictionary has doubled since the last one, the delta chain has grown
// past maxDeltaSegments, or the dataset changed without WAL traffic
// (writes that bypassed the Store, e.g. the mdm facade mutating through
// the ontology — only a full rewrite makes those durable). No-op if
// maintenance is already running or the store is closed; Close stops it.
func (s *Store) StartAutoCompact(interval time.Duration, walThreshold int) {
	s.mu.Lock()
	if s.closed || s.bgStop != nil {
		s.mu.Unlock()
		return
	}
	if interval <= 0 {
		interval = time.Minute
	}
	if walThreshold <= 0 {
		walThreshold = s.opts.CompactWALThreshold
	}
	s.bgStop, s.bgDone = make(chan struct{}), make(chan struct{})
	stop, done := s.bgStop, s.bgDone
	s.mu.Unlock()
	go func() {
		defer close(done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
			}
			s.maintain(walThreshold)
		}
	}()
}

// maintain is one background maintenance pass.
func (s *Store) maintain(walThreshold int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	fp := fingerprint(s.cur.ds)
	segs := 0
	if s.man != nil {
		segs = len(s.man.Segments)
	}
	changed := fp != s.lastSealed
	needFull := (fp.dic >= 1024 && fp.dic >= 2*s.lastFullDict) || // dictionary doubled: GC dead terms
		segs >= maxDeltaSegments || // fold the delta chain
		(changed && s.walRecords == 0) // facade writes bypassed the WAL

	var err error
	switch {
	case needFull:
		err = s.compactLocked()
	case s.walRecords >= walThreshold:
		err = s.checkpointLocked()
	}
	if err != nil {
		obsMaintErrors.Inc()
	}
}
