package tdb

import (
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"time"

	"mdm/internal/rdf"
	"mdm/internal/tdb/segment"
)

// maxDeltaSegments is the one constant of the maintenance policy (see
// Maintain): the segment count at which the delta chain is folded into
// one full segment. Every delta costs a file read, a checksum and an
// incremental index build at open (a 50k-triple full segment plus 10
// deltas of 80 ops opens in 67 ms against 60 ms for the full segment
// alone, BenchmarkStoreOpen), and a manifest entry and a file on disk
// until then.
const maxDeltaSegments = 16

// compactWALThreshold is the WAL tail, in ops, below which the background
// tick leaves the log alone: the tail is durable where it is, and
// sealing it only shortens the next open. A release is tens of ops, so
// this is a few hundred releases of replay.
const compactWALThreshold = 4096

// The other escalation has no constant: a tail of at least as many ops
// as the store holds triples is rewritten, not sealed, because sealing
// re-reads and re-encodes the tail and costs more per op than the
// rewrite does per live triple (an 85k-op tail over 85k triples: 0.75 s
// to checkpoint, 0.65 s to compact, and the rewrite also resets the
// chain; at half that tail it is 0.33 s against 0.58 s and sealing wins).

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
		return errClosed
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
	obsCheckpoints.Inc()
	s.observeSegments()
	return nil
}

// Compact writes the live dataset as a single full segment, publishes a
// one-segment manifest (superseding every delta segment) and truncates
// the WAL. The segment writer interns terms as it meets them in the live
// triples, so the file holds no dropped graph and no term only dropped
// graphs used. Nothing changes in memory: the store keeps serving the
// dataset it opened with, and s.mu, held throughout, keeps every Commit
// out while the dataset is read.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.compactLocked()
}

// Maintain runs the store's maintenance policy now: seal the WAL tail as
// a delta segment (Checkpoint), or rewrite everything (Compact) when the
// segment chain has reached maxDeltaSegments or the tail holds as many
// ops as the store holds triples, so that rewriting is the cheaper way
// to seal it. With an empty tail and neither of those it does nothing.
// Acknowledged writes are already on the WAL; this bounds the next
// open's replay and the disk the history takes, it is not what makes
// them durable.
func (s *Store) Maintain() error {
	return s.maintain(1)
}

// maintain is one pass of the policy; a tail of fewer than minTail ops
// is left on the WAL unless a rewrite is due anyway.
func (s *Store) maintain(minTail int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	segs := 0
	if s.man != nil {
		segs = len(s.man.Segments)
	}
	switch {
	case segs >= maxDeltaSegments,
		s.walOps > 0 && s.walOps >= s.ds.Len():
		return s.compactLocked()
	case s.walOps >= minTail:
		return s.checkpointLocked()
	}
	return nil
}

// compactLocked writes the dataset as a full segment, publishes the
// manifest and resets the WAL. Caller holds s.mu.
func (s *Store) compactLocked() error {
	if s.closed {
		return errClosed
	}
	defer timeObs(obsCompactDur)()
	seq := uint64(1)
	if s.man != nil {
		seq = s.man.NextSeq
	}
	name := segment.SegmentName(seq)
	if _, err := segment.WriteFile(filepath.Join(s.dir, name), segment.DatasetOps(s.ds)); err != nil {
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
	obsCompactions.Inc()
	s.observeSegments()
	return nil
}

// truncateWALLocked empties the WAL after its contents became durable in
// a segment. Caller holds s.mu.
func (s *Store) truncateWALLocked() error {
	if err := s.wal.Truncate(0); err != nil {
		return fmt.Errorf("tdb: truncate wal: %w", err)
	}
	if _, err := s.wal.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("tdb: rewind wal: %w", err)
	}
	s.walBytes, s.walRecords, s.walOps = 0, 0, 0
	if s.opts.Fsync {
		if err := s.wal.Sync(); err != nil {
			return fmt.Errorf("tdb: fsync wal: %w", err)
		}
	}
	return nil
}

// readWALOps re-reads the WAL tail as segment ops for sealing. Unlike
// replayWAL this tolerates nothing: the tail was written by this
// process, so any undecodable record is a bug or concurrent tampering.
func (s *Store) readWALOps() ([]rdf.Op, error) {
	ops := make([]rdf.Op, 0, s.walOps)
	_, dmg, err := eachWALRecord(filepath.Join(s.dir, walFile), func(rec []rdf.Op) {
		ops = append(ops, rec...)
	})
	if err != nil {
		return nil, err
	}
	if dmg != nil {
		return nil, fmt.Errorf("tdb: checkpoint: undecodable wal record: %w", dmg.err)
	}
	return ops, nil
}

// maintainLoop is the background maintenance goroutine OpenWith starts
// when Options.CompactInterval > 0: every interval it runs the Maintain
// policy, except that a tail of fewer than compactWALThreshold ops is
// left on the WAL. Close stops it.
func (s *Store) maintainLoop() {
	defer close(s.bgDone)
	t := time.NewTicker(s.opts.CompactInterval)
	defer t.Stop()
	for {
		select {
		case <-s.bgStop:
			return
		case <-t.C:
		}
		if err := s.maintain(compactWALThreshold); err != nil && !errors.Is(err, errClosed) {
			obsMaintErrors.Inc()
		}
	}
}
