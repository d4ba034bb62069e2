package tdb

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mdm/internal/rdf"
	"mdm/internal/sparql"
	"mdm/internal/tdb/segment"
)

func ex(n string) rdf.Term { return rdf.IRI("http://ex/" + n) }

// trig renders the live dataset deterministically for oracle comparisons.
func trig(s *Store) string { return rdf.WriteDataset(s.Dataset()) }

func TestCheckpointSealsDelta(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	for i := 0; i < 10; i++ {
		if err := addT(s, rdf.T(ex(fmt.Sprintf("s%d", i)), ex("p"), rdf.IntLit(int64(i)))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if s.WALRecords() != 0 {
		t.Fatalf("WALRecords after checkpoint = %d", s.WALRecords())
	}
	// A second checkpoint with no new writes must not add a segment.
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	man, err := segment.LoadManifest(dir)
	if err != nil || man == nil {
		t.Fatalf("LoadManifest = %v, %v", man, err)
	}
	if len(man.Segments) != 1 {
		t.Fatalf("segments after idle checkpoint = %v", man.Segments)
	}

	// More writes, another checkpoint: delta segments accumulate.
	if err := add(s, rdf.Q(ex("s0"), ex("p"), rdf.Lit("named"), ex("g"))); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	man, _ = segment.LoadManifest(dir)
	if len(man.Segments) != 2 {
		t.Fatalf("segments after second checkpoint = %v", man.Segments)
	}
	want := trig(s)
	s.Close()

	s2 := openT(t, dir)
	defer s2.Close()
	if got := trig(s2); got != want {
		t.Fatalf("reopen from delta segments differs:\n%s\nwant:\n%s", got, want)
	}
}

func TestWALMidFileCorruptionNamesOffset(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	for i := 0; i < 3; i++ {
		if err := addT(s, rdf.T(ex(fmt.Sprintf("s%d", i)), ex("p"), rdf.IntLit(int64(i)))); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	path := filepath.Join(dir, walFile)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	// Clobber the middle record, keeping a valid record after it: that is
	// mid-file corruption, not a torn tail, and must fail the open.
	lines[1] = strings.Repeat("x", len(lines[1])-1) + "\n"
	if err := os.WriteFile(path, []byte(strings.Join(lines, "")), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Open(dir)
	if err == nil || !strings.Contains(err.Error(), "byte offset") {
		t.Fatalf("Open on mid-file corruption = %v, want byte-offset error", err)
	}
	wantOff := fmt.Sprintf("byte offset %d", len(lines[0]))
	if !strings.Contains(err.Error(), wantOff) {
		t.Fatalf("error %q does not name offset %q", err, wantOff)
	}
}

func TestTornWALTailTrimmedAndCounted(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	if err := addT(s, rdf.T(ex("s"), ex("p"), rdf.Lit("v"))); err != nil {
		t.Fatal(err)
	}
	s.Close()

	path := filepath.Join(dir, walFile)
	goodSize := int64(0)
	if fi, err := os.Stat(path); err == nil {
		goodSize = fi.Size()
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	const torn = `{"ops":[{"op":"add","quad":[{"k":0,"v":"to`
	f.WriteString(torn)
	f.Close()

	before := obsTornBytes.Value()
	s2 := openT(t, dir)
	if got := s2.Dataset().Default().Len(); got != 1 {
		t.Fatalf("Len after torn tail = %d, want 1", got)
	}
	if delta := obsTornBytes.Value() - before; delta != float64(len(torn)) {
		t.Fatalf("mdm_tdb_wal_torn_bytes_total delta = %v, want %d", delta, len(torn))
	}
	// The torn bytes are trimmed so the next append starts a clean line.
	if fi, err := os.Stat(path); err != nil || fi.Size() != goodSize {
		t.Fatalf("wal size after trim = %v (err %v), want %d", fi.Size(), err, goodSize)
	}
	if err := addT(s2, rdf.T(ex("s2"), ex("p"), rdf.Lit("w"))); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	s3 := openT(t, dir)
	defer s3.Close()
	if got := s3.Dataset().Default().Len(); got != 2 {
		t.Fatalf("Len after append-past-torn-tail = %d, want 2", got)
	}
}

func TestCrashMidCompactionSwept(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	for i := 0; i < 5; i++ {
		if err := addT(s, rdf.T(ex(fmt.Sprintf("s%d", i)), ex("p"), rdf.IntLit(int64(i)))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	want := trig(s)
	s.Close()

	// Simulate a crash between sealing a segment and publishing the
	// manifest: a stray sealed segment plus a temp manifest. Neither is
	// referenced by MANIFEST, so both must be swept and ignored.
	stray := filepath.Join(dir, segment.SegmentName(99))
	if err := os.WriteFile(stray, []byte("half-written segment"), 0o644); err != nil {
		t.Fatal(err)
	}
	tmpMan := filepath.Join(dir, segment.ManifestFile+".tmp")
	if err := os.WriteFile(tmpMan, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := openT(t, dir)
	defer s2.Close()
	if got := trig(s2); got != want {
		t.Fatalf("dataset after simulated crash differs:\n%s\nwant:\n%s", got, want)
	}
	if _, err := os.Stat(stray); !os.IsNotExist(err) {
		t.Errorf("unreferenced segment not swept: %v", err)
	}
	if _, err := os.Stat(tmpMan); !os.IsNotExist(err) {
		t.Errorf("temp manifest not swept: %v", err)
	}
}

func TestCheckpointCompactMixReopen(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	s.Commit([]rdf.Op{{Kind: rdf.OpPrefix, Prefix: "ex", NS: "http://ex/"}})
	for i := 0; i < 8; i++ {
		if err := addT(s, rdf.T(ex(fmt.Sprintf("a%d", i)), ex("p"), rdf.IntLit(int64(i)))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := add(s, rdf.Q(ex("a0"), ex("q"), rdf.LangLit("hei", "no"), ex("g1"))); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := drop(s, ex("g1")); err != nil {
		t.Fatal(err)
	}
	if err := addT(s, rdf.T(ex("post"), ex("p"), rdf.Lit("tail"))); err != nil {
		t.Fatal(err)
	}
	want := trig(s)
	s.Close()

	man, _ := segment.LoadManifest(dir)
	if man == nil || len(man.Segments) != 1 {
		t.Fatalf("manifest after compact = %+v", man)
	}
	s2 := openT(t, dir)
	defer s2.Close()
	if got := trig(s2); got != want {
		t.Fatalf("reopen after checkpoint/compact mix differs:\n%s\nwant:\n%s", got, want)
	}
}

// TestPreSegmentSnapshotRefused: a directory holding only the
// pre-segment snapshot.trig layout must not open as an empty store (the
// next compaction would overwrite its data); once a MANIFEST exists the
// manifest is authoritative and a stray snapshot file is ignored.
func TestPreSegmentSnapshotRefused(t *testing.T) {
	const snap = "<http://ex/s> <http://ex/p> \"snap\" .\n"
	const wal = `{"ops":[{"op":"add","quad":[{"k":0,"v":"http://ex/s"},{"k":0,"v":"http://ex/p"},{"k":1,"v":"tail"}]}]}` + "\n"
	for _, tc := range []struct {
		name     string
		manifest bool
	}{
		{"snapshot without manifest is refused", false},
		{"manifest with stray snapshot opens from the manifest", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if tc.manifest {
				s := openT(t, dir)
				if err := addT(s, rdf.T(ex("s"), ex("p"), rdf.Lit("sealed"))); err != nil {
					t.Fatal(err)
				}
				if err := s.Compact(); err != nil {
					t.Fatal(err)
				}
				s.Close()
			} else if err := os.WriteFile(filepath.Join(dir, walFile), []byte(wal), 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, "snapshot.trig"), []byte(snap), 0o644); err != nil {
				t.Fatal(err)
			}
			before := dirBytes(t, dir)

			s, err := Open(dir)
			if tc.manifest {
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				if got := s.Dataset().Len(); got != 1 || !s.Dataset().Default().Has(rdf.T(ex("s"), ex("p"), rdf.Lit("sealed"))) {
					t.Fatalf("store did not open from the manifest: Len = %d", got)
				}
				return
			}
			if err == nil {
				s.Close()
				t.Fatal("Open accepted a snapshot.trig store as empty")
			}
			if !strings.Contains(err.Error(), "snapshot.trig") || !strings.Contains(err.Error(), "PR 12") {
				t.Fatalf("error %q does not name the file and the migrating release", err)
			}
			if after := dirBytes(t, dir); after != before {
				t.Fatalf("refused open changed the directory:\n%s\nwas:\n%s", after, before)
			}
		})
	}
}

// dirBytes renders every file of dir (name and content) for
// byte-identity checks.
func dirBytes(t *testing.T, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%s: %q\n", e.Name(), data)
	}
	return b.String()
}

// TestFsyncFailureReported: with Options.Fsync a failed WAL fsync is a
// lost durability guarantee, so the Commit it follows fails and Close
// returns its own.
func TestFsyncFailureReported(t *testing.T) {
	s, err := OpenWith(t.TempDir(), Options{Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	r, w, err := os.Pipe() // a pipe takes writes and refuses fsync
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	s.mu.Lock()
	s.wal.Close()
	s.wal = w
	s.mu.Unlock()
	if err := addT(s, rdf.T(ex("s"), ex("p"), rdf.Lit("v"))); err == nil || !strings.Contains(err.Error(), "fsync") {
		t.Fatalf("Commit over a failing fsync = %v, want the fsync error", err)
	}
	if err := s.Close(); err == nil {
		t.Fatal("Close swallowed the fsync failure")
	}
}

// removeLine is a WAL record holding a triple removal, as an earlier
// release would have logged one.
const removeLine = `{"ops":[{"op":"remove","quad":[{"k":0,"v":"http://ex/s"},{"k":0,"v":"http://ex/p"},{"k":1,"v":"v"},{"k":0,"v":"http://ex/ghost"}]}]}` + "\n"

// TestRemoveOnDiskRefused: a triple removal found on disk, as the last
// WAL line, a middle one, or a segment block, fails the open with the
// file and the byte offset. It is not skipped, not trimmed as a torn
// tail, and the files are left as they were.
func TestRemoveOnDiskRefused(t *testing.T) {
	for _, tc := range []struct {
		name  string
		file  string // the file the error names
		write func(t *testing.T, dir string) int64
	}{
		{"final WAL line", walFile, func(t *testing.T, dir string) int64 {
			s := openT(t, dir)
			if err := addT(s, rdf.T(ex("s"), ex("p"), rdf.Lit("v"))); err != nil {
				t.Fatal(err)
			}
			s.Close()
			return appendWAL(t, dir, removeLine)
		}},
		{"middle WAL line", walFile, func(t *testing.T, dir string) int64 {
			appendWAL(t, dir, record(t, addOp("", "s", "v")))
			off := appendWAL(t, dir, removeLine)
			appendWAL(t, dir, record(t, addOp("", "s", "w")))
			return off
		}},
		{"segment block", segment.SegmentName(1), func(t *testing.T, dir string) int64 {
			s := openT(t, dir)
			if err := addT(s, rdf.T(ex("s"), ex("p"), rdf.Lit("v"))); err != nil {
				t.Fatal(err)
			}
			if err := s.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			s.Close()
			path := filepath.Join(dir, segment.SegmentName(1))
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			st, err := segment.ReadStats(path)
			if err != nil {
				t.Fatal(err)
			}
			// magic, the dict block, a one-byte block count: the add block's
			// op byte, which becomes the removal block's.
			off := int64(len("MDMSEG1\n")) + st.DictBytes + 1
			if data[off] != byte(rdf.OpAdd) {
				t.Fatalf("byte %d is %d, not the add block's op", off, data[off])
			}
			data[off] = 1
			// Re-seal: the footer (36 bytes) opens with the body's crc32.
			body := data[:len(data)-36]
			binary.LittleEndian.PutUint32(data[len(body):], crc32.ChecksumIEEE(body))
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			return off
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			off := tc.write(t, dir)
			before, torn := dirBytes(t, dir), obsTornBytes.Value()
			s, err := Open(dir)
			if err == nil {
				s.Close()
				t.Fatal("Open replayed a triple removal")
			}
			if !errors.Is(err, segment.ErrRemove) {
				t.Fatalf("Open = %v, want segment.ErrRemove", err)
			}
			for _, want := range []string{filepath.Join(dir, tc.file), fmt.Sprintf("byte offset %d", off), "PR 25 is the last release that reads removes"} {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error %q does not name %q", err, want)
				}
			}
			if got := obsTornBytes.Value(); got != torn {
				t.Errorf("mdm_tdb_wal_torn_bytes_total moved by %v", got-torn)
			}
			if after := dirBytes(t, dir); after != before {
				t.Errorf("refused open changed the directory:\n%s\nwas:\n%s", after, before)
			}
		})
	}
}

// record is encodeRecord for fixtures.
func record(t *testing.T, ops ...rdf.Op) string {
	t.Helper()
	line, err := encodeRecord(ops)
	if err != nil {
		t.Fatal(err)
	}
	return string(line)
}

// appendWAL appends line to dir's WAL and returns the offset it starts at.
func appendWAL(t *testing.T, dir, line string) int64 {
	t.Helper()
	f, err := os.OpenFile(filepath.Join(dir, walFile), os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(line); err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// TestCompactSealsWhatAFreshStoreWould: a compaction is a disk operation.
// The full segment of a store with 80% of its history dropped is the
// file a fresh store holding only the live quads compacts to, dead terms
// and all left out — while the store keeps serving the dataset it opened
// with, whose dictionary sheds those terms at the next open, not before.
func TestCompactSealsWhatAFreshStoreWould(t *testing.T) {
	const n = 500
	// Four quads in five go to one of two graphs that are dropped whole.
	quad := func(i int) rdf.Quad {
		g := ex(fmt.Sprint("g", i%2))
		if i%5 != 0 {
			g = ex(fmt.Sprint("dropped", i%2))
		}
		return rdf.Q(ex(fmt.Sprint("s", i)), ex("p"), rdf.Lit(fmt.Sprint("value-", i)), g)
	}
	prefix := rdf.Op{Kind: rdf.OpPrefix, Prefix: "ex", NS: "http://ex/"}
	history, live := []rdf.Op{prefix}, []rdf.Op{prefix}
	drops := []rdf.Op{
		{Kind: rdf.OpDrop, Quad: rdf.Quad{Graph: ex("dropped0")}},
		{Kind: rdf.OpDrop, Quad: rdf.Quad{Graph: ex("dropped1")}},
	}
	terms := map[rdf.Term]bool{}
	for i := 0; i < n; i++ {
		q := quad(i)
		history = append(history, rdf.Op{Kind: rdf.OpAdd, Quad: q})
		if i%5 != 0 {
			continue
		}
		live = append(live, rdf.Op{Kind: rdf.OpAdd, Quad: q})
		for _, term := range []rdf.Term{q.S, q.P, q.O, q.Graph} {
			terms[term] = true
		}
	}
	commit := func(s *Store, ops []rdf.Op) {
		t.Helper()
		if err := s.Commit(ops); err != nil {
			t.Fatal(err)
		}
	}
	// compacted compacts s and returns the bytes of the one segment its
	// manifest then lists.
	compacted := func(s *Store) []byte {
		t.Helper()
		ds := s.Dataset()
		if err := s.Compact(); err != nil {
			t.Fatal(err)
		}
		if s.Dataset() != ds {
			t.Fatal("Compact changed the dataset the store serves")
		}
		man, err := segment.LoadManifest(s.dir)
		if err != nil || len(man.Segments) != 1 {
			t.Fatalf("manifest after Compact = %+v, %v; want one segment", man, err)
		}
		seg, err := os.ReadFile(filepath.Join(s.dir, man.Segments[0]))
		if err != nil {
			t.Fatal(err)
		}
		return seg
	}
	dir := t.TempDir()
	s := openT(t, dir)
	commit(s, history)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	commit(s, drops)
	got := compacted(s)
	fresh := openT(t, t.TempDir())
	defer fresh.Close()
	commit(fresh, live)
	want := compacted(fresh)
	if !bytes.Equal(got, want) {
		t.Errorf("compacted segment (%d bytes) differs from the one a fresh store of the live quads seals (%d bytes)", len(got), len(want))
	}
	if got := s.Dataset().Dict().Len(); got <= len(terms) {
		t.Errorf("dictionary holds %d terms right after Compact; the %d live ones only after a reopen", got, len(terms))
	}
	before := trig(s)
	s.Close()
	s = openT(t, dir)
	defer s.Close()
	if got := s.Dataset().Dict().Len(); got != len(terms) {
		t.Errorf("dictionary after reopen holds %d terms, want the %d live ones", got, len(terms))
	}
	if after := trig(s); after != before {
		t.Errorf("reopen changed the dataset:\n%s\nbefore:\n%s", after, before)
	}
}

func TestSyncModesDurable(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"always", Options{Fsync: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := OpenWith(dir, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := addT(s, rdf.T(ex("s"), ex("p"), rdf.Lit(tc.name))); err != nil {
				t.Fatal(err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			s2 := openT(t, dir)
			defer s2.Close()
			if got := s2.Dataset().Default().Len(); got != 1 {
				t.Fatalf("Len after reopen = %d, want 1", got)
			}
		})
	}
}

// TestConcurrentQueriesDuringCompaction is the background-compaction
// variant of TestConcurrentQueriesDuringAppends: readers query the
// store's dataset while writers append, the maintenance tick and a
// goroutine running the policy at a 25-op threshold checkpoint, and
// explicit compactions read the same dataset to rewrite it. Run with
// -race (CI does).
func TestConcurrentQueriesDuringCompaction(t *testing.T) {
	s, err := OpenWith(t.TempDir(), Options{CompactInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	for i := 0; i < 50; i++ {
		if err := addT(s, rdf.T(ex(fmt.Sprintf("s%d", i)), ex("p"), rdf.IntLit(int64(i)))); err != nil {
			t.Fatal(err)
		}
	}

	const query = `SELECT ?s ?o WHERE { ?s <http://ex/p> ?o }`
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var qerr atomic.Value
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := s.maintain(25); err != nil {
				qerr.Store(err)
				return
			}
		}
	}()
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := sparql.Run(s.Dataset(), query); err != nil {
					qerr.Store(err)
					return
				}
			}
		}()
	}
	for i := 0; i < 300; i++ {
		if err := addT(s, rdf.T(ex(fmt.Sprintf("n%d", i)), ex("p"), rdf.IntLit(int64(i)))); err != nil {
			t.Fatal(err)
		}
		if i%50 == 0 {
			if err := s.Compact(); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	wg.Wait()
	if err := qerr.Load(); err != nil {
		t.Fatalf("concurrent query or maintenance failed: %v", err)
	}
	res, err := sparql.Run(s.Dataset(), query)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 350 {
		t.Fatalf("rows = %d, want 350", res.Len())
	}
}
