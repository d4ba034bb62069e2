package tdb

import (
	"time"

	"mdm/internal/obs"
)

// Storage-engine metrics. All are process-wide, cumulative across
// stores; per-store numbers are on the Store itself (WALRecords).
var (
	obsWALFsyncs = obs.Default.NewCounter("mdm_tdb_wal_fsyncs_total",
		"WAL fsyncs after a commit, in stores opened with Options.Fsync.")
	obsTornBytes = obs.Default.NewCounter("mdm_tdb_wal_torn_bytes_total",
		"WAL bytes trimmed as torn tails at open.")
	obsCheckpoints = obs.Default.NewCounter("mdm_tdb_checkpoints_total",
		"Checkpoints completed.")
	obsCompactions = obs.Default.NewCounter("mdm_tdb_compactions_total",
		"Compactions completed.")
	obsMaintErrors = obs.Default.NewCounter("mdm_tdb_maintenance_errors_total",
		"Background maintenance failures: compaction or checkpoint.")
	obsCheckpointDur = obs.Default.NewHistogram("mdm_tdb_checkpoint_duration_seconds",
		"Checkpoint (WAL tail sealed into a delta segment) durations.", obs.DefBuckets)
	obsCompactDur = obs.Default.NewHistogram("mdm_tdb_compact_duration_seconds",
		"Compaction (live dataset rewritten as one full segment) durations.", obs.DefBuckets)
	// obsSegments tracks the most recently opened/maintained store's
	// live segment count (last-writer-wins across stores; mdmd runs
	// exactly one).
	obsSegments = obs.Default.NewGauge("mdm_tdb_segments",
		"Live segments in the most recently maintained store's manifest.")
)

// observeSegments publishes the manifest's live segment count; nil
// (no segment sealed yet) counts as zero.
func (s *Store) observeSegments() {
	n := 0
	if s.man != nil {
		n = len(s.man.Segments)
	}
	obsSegments.Set(float64(n))
}

// timeObs returns a closure recording elapsed time into h when called.
func timeObs(h *obs.Histogram) func() {
	t0 := time.Now()
	return func() { h.Observe(time.Since(t0).Seconds()) }
}
