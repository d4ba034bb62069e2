package tdb

import (
	"sync"

	"mdm/internal/rdf"
)

// epoch is one immutable-after-retirement generation of the store's
// dataset. The current epoch receives writes; a compaction retires it
// and installs a fresh one. Retired epochs stay reachable only while
// readers hold pins on them.
type epoch struct {
	seq  uint64
	ds   *rdf.Dataset
	pins int
}

// Snapshot is a pinned epoch: a handle on the dataset as of PinSnapshot
// time that the compactor will not swap out from under the holder.
// Release it when done (Release is idempotent); an unreleased Snapshot
// keeps the whole retired dataset live in memory.
//
// Pinning isolates the reader from COMPACTION only: writes applied to
// the pinned epoch while it is still current remain visible, matching
// the store's documented non-snapshot read semantics. Once a compaction
// retires the epoch it is frozen, so a cursor pinned before a
// compaction drains exactly its pre-compaction view.
type Snapshot struct {
	s    *Store
	e    *epoch
	once sync.Once
}

// PinSnapshot pins the current epoch and returns its handle.
func (s *Store) PinSnapshot() *Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cur.pins++
	return &Snapshot{s: s, e: s.cur}
}

// Dataset returns the pinned dataset.
func (p *Snapshot) Dataset() *rdf.Dataset { return p.e.ds }

// Epoch returns the pinned epoch's sequence number (monotonic per
// store; bumped by each compaction swap).
func (p *Snapshot) Epoch() uint64 { return p.e.seq }

// Release drops the pin. When the last pin on a retired epoch is
// released, the epoch (and its dataset) becomes collectable.
func (p *Snapshot) Release() {
	p.once.Do(func() {
		p.s.mu.Lock()
		defer p.s.mu.Unlock()
		p.e.pins--
		if p.e != p.s.cur && p.e.pins == 0 {
			delete(p.s.retired, p.e.seq)
			obsPinnedEpochs.Dec()
		}
	})
}

// Epoch returns the current epoch's sequence number.
func (s *Store) Epoch() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epochSeq
}

// RetiredEpochs reports how many compaction-retired epochs are still
// kept alive by outstanding pins (also exported process-wide as the
// mdm_tdb_retired_pinned_epochs gauge).
func (s *Store) RetiredEpochs() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.retired)
}

// swapEpochLocked installs ds as the new current epoch. The previous
// epoch is retired; it is retained only if readers still pin it.
// Caller holds s.mu.
func (s *Store) swapEpochLocked(ds *rdf.Dataset) {
	old := s.cur
	s.epochSeq++
	s.cur = &epoch{seq: s.epochSeq, ds: ds}
	if old.pins > 0 {
		s.retired[old.seq] = old
		obsPinnedEpochs.Inc()
	}
}

// SetSwapHook registers a window around every operation that can swap
// the epoch (Compact, Maintain, the background tick). When set, such an
// operation runs as hook(swap): the hook must call swap exactly once and
// re-point whatever reads the dataset through a reference of its own at
// the dataset swap returns; nil means the epoch did not change. The hook
// is entered BEFORE the store's mutex is taken, so a facade whose
// mutators validate under their own lock and then Commit (bdi.Ontology)
// passes a hook that takes that same lock: its writers then see the
// re-pointing and the swap as one step, and both paths take the two
// locks in the same order. swap ignores its argument.
//
// Set the hook before any concurrent use of the store (and before
// StartAutoCompact); it cannot be changed afterwards.
func (s *Store) SetSwapHook(hook func(swap func(old *rdf.Dataset) *rdf.Dataset)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.swapHook = hook
}
