package tdb

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"mdm/internal/rdf"
	"mdm/internal/tdb/segment"
)

// benchHistory builds a dataset shaped like an accumulated mdm ontology:
// n add-records across the default graph and a handful of named graphs,
// with mostly-distinct terms so the dictionary grows with the history.
func benchHistory(n int) *rdf.Dataset {
	ds := rdf.NewDataset()
	ds.Prefixes().Bind("ex", "http://ex/")
	p := rdf.IRI("http://ex/p")
	for i := 0; i < n; i++ {
		t := rdf.T(
			rdf.IRI(fmt.Sprintf("http://ex/subject/%d", i)),
			p,
			rdf.Lit(fmt.Sprintf("value-%d", i)),
		)
		if i%4 == 0 {
			ds.Graph(rdf.IRI(fmt.Sprintf("http://ex/g%d", i%8))).MustAdd(t)
		} else {
			ds.Default().MustAdd(t)
		}
	}
	return ds
}

// benchRelease is an 80-quad batch shaped like one wrapper release, with
// terms no earlier batch used.
func benchRelease(n int) []rdf.Op {
	ops := make([]rdf.Op, 80)
	g := rdf.IRI("http://ex/g0")
	for i := range ops {
		ops[i] = rdf.Op{Kind: rdf.OpAdd, Quad: rdf.Quad{Graph: g, Triple: rdf.T(
			rdf.IRI(fmt.Sprintf("http://ex/release/%d/attr/%d", n, i)),
			rdf.IRI("http://ex/p"),
			rdf.Lit(fmt.Sprintf("release-%d-%d", n, i)),
		)}}
	}
	return ops
}

// BenchmarkStoreOpen measures the cold-open cost of a 50k-record history
// in the three layouts a store can be found in.
//
//   - segment: sealed segment (binary dict + ID triples, loaded via the
//     bulk-ID fast path) plus empty WAL tail — the state after a full
//     compaction.
//   - delta-chain: that segment plus ten 80-quad delta segments — the
//     state after ten releases were checkpointed, which is what
//     maintenance leaves between full compactions.
//   - wal-replay: a 50k-record JSON WAL and no segment — a store that
//     was never checkpointed replays its entire history.
//
// The gap is the point of the engine: open cost is O(encoded live data
// + WAL tail), not O(history).
func BenchmarkStoreOpen(b *testing.B) {
	const records = 50_000
	ds := benchHistory(records)

	segDir := b.TempDir()
	if _, err := segment.WriteFile(filepath.Join(segDir, segment.SegmentName(1)), segment.DatasetOps(ds)); err != nil {
		b.Fatal(err)
	}
	man := &segment.Manifest{Version: 1, Segments: []string{segment.SegmentName(1)}, NextSeq: 2}
	if err := man.Write(segDir); err != nil {
		b.Fatal(err)
	}

	const deltas = 10
	chainDir := b.TempDir()
	chain, err := Open(chainDir)
	if err != nil {
		b.Fatal(err)
	}
	if err := chain.Commit(segment.DatasetOps(ds)); err != nil {
		b.Fatal(err)
	}
	if err := chain.Compact(); err != nil {
		b.Fatal(err)
	}
	chainRecords := records
	for i := 0; i < deltas; i++ {
		rel := benchRelease(i)
		if err := chain.Commit(rel); err != nil {
			b.Fatal(err)
		}
		if err := chain.Checkpoint(); err != nil {
			b.Fatal(err)
		}
		chainRecords += len(rel)
	}
	if err := chain.Close(); err != nil {
		b.Fatal(err)
	}

	walDir := b.TempDir()
	wal, err := encodeRecord([]rdf.Op{{Kind: rdf.OpPrefix, Prefix: "ex", NS: "http://ex/"}})
	if err != nil {
		b.Fatal(err)
	}
	for _, q := range ds.Quads() {
		line, err := encodeRecord([]rdf.Op{{Kind: rdf.OpAdd, Quad: q}})
		if err != nil {
			b.Fatal(err)
		}
		wal = append(wal, line...)
	}
	if err := os.WriteFile(filepath.Join(walDir, walFile), wal, 0o644); err != nil {
		b.Fatal(err)
	}

	for _, bc := range []struct {
		name, dir string
		records   int
	}{
		{"segment", segDir, records},
		{"delta-chain", chainDir, chainRecords},
		{"wal-replay", walDir, records},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s, err := Open(bc.dir)
				if err != nil {
					b.Fatal(err)
				}
				if s.Dataset().Len() != bc.records {
					b.Fatalf("Len = %d", s.Dataset().Len())
				}
				s.Close()
			}
		})
	}
}

// BenchmarkDurabilityPoint measures the two ways of sealing one 80-quad
// release over an 85k-triple store: Checkpoint is O(tail), Compact is
// O(dataset). Maintain picks between them; this is the gap it exploits.
// Committing the release is not timed.
func BenchmarkDurabilityPoint(b *testing.B) {
	for _, bc := range []struct {
		name string
		seal func(*Store) error
	}{
		{"checkpoint", (*Store).Checkpoint},
		{"compact", (*Store).Compact},
	} {
		b.Run(bc.name, func(b *testing.B) {
			s, err := Open(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			if err := s.Commit(segment.DatasetOps(benchHistory(85_000))); err != nil {
				b.Fatal(err)
			}
			if err := s.Compact(); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if err := s.Commit(benchRelease(i)); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if err := bc.seal(s); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestCompactShrinksDictBlock is the deterministic acceptance check of
// what a compaction leaves out of the file: with 90% of the history in a
// graph that was then dropped, a full compaction must shrink the sealed
// dictionary block by at least half (in practice ~90%).
func TestCompactShrinksDictBlock(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	defer s.Close()
	const total = 2000
	doomed := rdf.IRI("http://ex/doomed")
	for i := 0; i < total; i++ {
		q := rdf.Q(
			rdf.IRI(fmt.Sprintf("http://ex/s%d", i)),
			rdf.IRI("http://ex/p"),
			rdf.Lit(fmt.Sprintf("value-%d", i)),
			rdf.Term{},
		)
		if i < total*9/10 {
			q.Graph = doomed
		}
		if err := add(s, q); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	man, _ := segment.LoadManifest(dir)
	before, err := segment.ReadStats(filepath.Join(dir, man.Segments[0]))
	if err != nil {
		t.Fatal(err)
	}

	if err := drop(s, doomed); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	man, _ = segment.LoadManifest(dir)
	after, err := segment.ReadStats(filepath.Join(dir, man.Segments[0]))
	if err != nil {
		t.Fatal(err)
	}
	if after.DictBytes > before.DictBytes/2 {
		t.Fatalf("dict block %d -> %d bytes: shrank less than 50%%", before.DictBytes, after.DictBytes)
	}
	if got := s.Dataset().Len(); got != total/10 {
		t.Fatalf("Len after compaction = %d, want %d", got, total/10)
	}
}
