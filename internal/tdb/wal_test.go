package tdb

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"mdm/internal/rdf"
	"mdm/internal/tdb/segment"
)

func addOp(g, s, o string) rdf.Op {
	q := rdf.Quad{Triple: rdf.T(ex(s), ex("p"), rdf.Lit(o))}
	if g != "" {
		q.Graph = ex(g)
	}
	return rdf.Op{Kind: rdf.OpAdd, Quad: q}
}

// mappingBatch is shaped like bdi.Ontology.DefineMapping's write set: drop
// the graph, refill it.
func mappingBatch(g string, n int) []rdf.Op {
	ops := []rdf.Op{{Kind: rdf.OpDrop, Quad: rdf.Quad{Graph: ex(g)}}}
	for i := 0; i < n; i++ {
		ops = append(ops, addOp(g, fmt.Sprint("s", i), fmt.Sprint(g, "-", n, "-", i)))
	}
	return ops
}

func segments(t *testing.T, dir string) int {
	t.Helper()
	man, err := segment.LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if man == nil {
		return 0
	}
	return len(man.Segments)
}

// TestCommitIsOneAtomicRecord: a batch is one WAL record however many ops
// it carries, replays whole, and a tear anywhere inside it replays to the
// state before the batch.
func TestCommitIsOneAtomicRecord(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	if err := s.Commit(mappingBatch("m", 3)); err != nil {
		t.Fatal(err)
	}
	before := trig(s)
	if err := s.Commit(mappingBatch("m", 5)); err != nil {
		t.Fatal(err)
	}
	after := trig(s)
	if got := s.WALRecords(); got != 2 {
		t.Fatalf("WALRecords after two batches = %d, want 2", got)
	}
	s.Close()

	path := filepath.Join(dir, walFile)
	wal, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	s = openT(t, dir)
	if got := trig(s); got != after {
		t.Fatalf("replay of two batches:\n%s\nwant:\n%s", got, after)
	}
	s.Close()

	second := bytes.IndexByte(wal, '\n') + 1
	for cut := second + 1; cut < len(wal)-1; cut += 7 {
		if err := os.WriteFile(path, wal[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s := openT(t, dir)
		if got := trig(s); got != before {
			t.Fatalf("batch torn at byte %d replayed to:\n%s\nwant the state before it:\n%s", cut-second, got, before)
		}
		if got := s.WALRecords(); got != 1 {
			t.Fatalf("WALRecords after torn batch = %d, want 1", got)
		}
		s.Close()
	}
}

// TestCommitRejectsBatchWhole: one bad op fails the whole batch before
// anything is logged or applied.
func TestCommitRejectsBatchWhole(t *testing.T) {
	s := openT(t, t.TempDir())
	defer s.Close()
	for name, bad := range map[string]rdf.Op{
		"literal subject":    {Kind: rdf.OpAdd, Quad: rdf.Quad{Triple: rdf.T(rdf.Lit("s"), ex("p"), ex("o"))}},
		"literal graph name": {Kind: rdf.OpAdd, Quad: rdf.Quad{Triple: rdf.T(ex("s"), ex("p"), ex("o")), Graph: rdf.Lit("g")}},
		"drop of no graph":   {Kind: rdf.OpDrop},
		"unknown kind":       {Kind: 9},
	} {
		err := s.Commit([]rdf.Op{addOp("", "ok", "v"), bad})
		if err == nil {
			t.Errorf("%s: Commit accepted the batch", name)
		}
		if s.WALRecords() != 0 || s.Dataset().Len() != 0 {
			t.Fatalf("%s: rejected batch left %d records, %d triples behind", name, s.WALRecords(), s.Dataset().Len())
		}
	}
}

// TestMaintainPolicy: one row per branch of the policy. A small tail over
// a large store is sealed as a delta; each of the two escalations
// rewrites the store into one segment, which the compaction counter
// tells from sealing; an empty tail with nothing due writes nothing.
func TestMaintainPolicy(t *testing.T) {
	// base opens a store holding n sealed triples in one full segment.
	base := func(t *testing.T, n int) (*Store, string) {
		dir := t.TempDir()
		s := openT(t, dir)
		ops := make([]rdf.Op, n)
		for i := range ops {
			ops[i] = addOp("", fmt.Sprint("base", i), "v")
		}
		if err := s.Commit(ops); err != nil {
			t.Fatal(err)
		}
		if err := s.Compact(); err != nil {
			t.Fatal(err)
		}
		return s, dir
	}
	for _, tc := range []struct {
		name     string
		base     int // sealed triples the store starts from
		prepare  func(t *testing.T, s *Store)
		segments int
		rewrote  bool
	}{
		{"empty tail: nothing to do", 300, func(*testing.T, *Store) {}, 1, false},
		{"small tail: checkpoint", 300, func(t *testing.T, s *Store) {
			if err := s.Commit(mappingBatch("m", 10)); err != nil {
				t.Fatal(err)
			}
		}, 2, false},
		{"tail as long as the store: rewrite", 300, func(t *testing.T, s *Store) {
			// One mapping graph redefined 30 times: 330 ops over 310 triples.
			for i := 0; i < 30; i++ {
				if err := s.Commit(mappingBatch("m", 10)); err != nil {
					t.Fatal(err)
				}
			}
		}, 1, true},
		{"delta chain at its limit: rewrite", 300, func(t *testing.T, s *Store) {
			for i := 1; i < maxDeltaSegments; i++ {
				if err := addT(s, rdf.T(ex("base0"), ex("q"), rdf.IntLit(int64(i)))); err != nil {
					t.Fatal(err)
				}
				if err := s.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
		}, 1, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, dir := base(t, tc.base)
			defer s.Close()
			tc.prepare(t, s)
			want, compactions := trig(s), obsCompactions.Value()
			if err := s.Maintain(); err != nil {
				t.Fatal(err)
			}
			if got := segments(t, dir); got != tc.segments {
				t.Errorf("%d segments after Maintain, want %d", got, tc.segments)
			}
			if rewrote := obsCompactions.Value() != compactions; rewrote != tc.rewrote {
				t.Errorf("mdm_tdb_compactions_total moved = %v, want %v", rewrote, tc.rewrote)
			}
			if got := s.WALRecords(); got != 0 {
				t.Errorf("%d WAL records left after Maintain", got)
			}
			if got := trig(s); got != want {
				t.Errorf("Maintain changed the dataset:\n%s\nwant:\n%s", got, want)
			}
			s.Close()
			s2 := openT(t, dir)
			defer s2.Close()
			if got := trig(s2); got != want {
				t.Errorf("reopen after Maintain:\n%s\nwant:\n%s", got, want)
			}
		})
	}
}

// pinnedOps is one batch of every op kind the WAL logs: a prefix, adds
// in the default graph and in two named graphs, and the drop of one of
// them.
func pinnedOps() []rdf.Op {
	return []rdf.Op{
		{Kind: rdf.OpPrefix, Prefix: "ex", NS: "http://ex/"},
		{Kind: rdf.OpAdd, Quad: rdf.Q(ex("s1"), ex("p"), rdf.Lit("a"), rdf.Term{})},
		{Kind: rdf.OpAdd, Quad: rdf.Q(ex("s1"), ex("p"), rdf.TypedLit("7", rdf.XSDInteger), ex("g1"))},
		{Kind: rdf.OpAdd, Quad: rdf.Q(ex("s9"), ex("p"), rdf.LangLit("hei", "no"), ex("g2"))},
		{Kind: rdf.OpDrop, Quad: rdf.Quad{Graph: ex("g2")}},
	}
}

// pinnedWALRecord is pinnedOps as the WAL writer logged it before the
// triple removal op left the format.
const pinnedWALRecord = `{"ops":[{"op":"prefix","prefix":"ex","ns":"http://ex/"},{"op":"add","quad":[{"k":0,"v":"http://ex/s1"},{"k":0,"v":"http://ex/p"},{"k":1,"v":"a"}]},{"op":"add","quad":[{"k":0,"v":"http://ex/s1"},{"k":0,"v":"http://ex/p"},{"k":1,"v":"7","dt":"http://www.w3.org/2001/XMLSchema#integer"},{"k":0,"v":"http://ex/g1"}]},{"op":"add","quad":[{"k":0,"v":"http://ex/s9"},{"k":0,"v":"http://ex/p"},{"k":1,"v":"hei","lg":"no"},{"k":0,"v":"http://ex/g2"}]},{"op":"drop","graph":{"k":0,"v":"http://ex/g2"}}]}` + "\n"

// TestPinnedWALRecordReplays: a WAL line logged by an earlier release
// replays to the dataset it was logged from, and today's writer logs the
// same batch as the same line.
func TestPinnedWALRecordReplays(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, walFile), []byte(pinnedWALRecord), 0o644); err != nil {
		t.Fatal(err)
	}
	s := openT(t, dir)
	defer s.Close()
	ds := s.Dataset()
	if got := ds.Default().Triples(); len(got) != 1 || got[0] != rdf.T(ex("s1"), ex("p"), rdf.Lit("a")) {
		t.Errorf("default graph holds %v", got)
	}
	if g, ok := ds.Lookup(ex("g1")); !ok || g.Len() != 1 || !g.Has(rdf.T(ex("s1"), ex("p"), rdf.IntLit(7))) {
		t.Errorf("g1 = %v, %v", g, ok)
	}
	if names := ds.GraphNames(); len(names) != 1 {
		t.Errorf("named graphs %v, want only g1 (g2 was dropped)", names)
	}
	if iri, ok := ds.Prefixes().Expand("ex:x"); !ok || iri != "http://ex/x" {
		t.Error("prefix binding not replayed")
	}
	if got := record(t, pinnedOps()...); got != pinnedWALRecord {
		t.Errorf("the writer logs pinnedOps as\n%s\nwant\n%s", got, pinnedWALRecord)
	}
}

// FuzzWALReplay feeds arbitrary bytes to the open path as wal.jsonl. The
// invariant: damage is either a torn final record, trimmed off and
// counted, or an error naming the byte offset; it is never a panic, and
// every record before the damage is applied — none is lost silently, and
// a record is applied whole or not at all.
func FuzzWALReplay(f *testing.F) {
	rec := func(ops ...rdf.Op) []byte {
		line, err := encodeRecord(ops)
		if err != nil {
			f.Fatal(err)
		}
		return line
	}
	one := rec(addOp("", "s", "v"))
	batch := rec(mappingBatch("m", 3)...)
	misc := append(rec(
		rdf.Op{Kind: rdf.OpPrefix, Prefix: "ex", NS: "http://ex/"},
		rdf.Op{Kind: rdf.OpAdd, Quad: rdf.Quad{Triple: rdf.T(rdf.Blank("b"), ex("p"), rdf.LangLit("chat", "fr"))}},
	), removeLine...)
	f.Add(bytes.Join([][]byte{one, batch, misc}, nil))
	f.Add(append(append([]byte{}, one...), batch[:len(batch)/2]...))                       // torn batch
	f.Add(bytes.Join([][]byte{one, []byte("{\"ops\":[{\"op\":\"add\"}]}\n"), batch}, nil)) // mid-file damage
	f.Add([]byte("{\"op\":\"add\",\"quad\":[{\"k\":0,\"v\":\"s\"},{\"k\":0,\"v\":\"p\"},{\"k\":1,\"v\":\"v\"}]}\n"))
	f.Add([]byte("\n\n" + string(one) + "  \n"))

	f.Fuzz(func(t *testing.T, wal []byte) {
		// What a correct replay must do, from the line structure alone.
		want := rdf.NewDataset()
		var records int
		var good int64   // length of the prefix that holds only records
		damaged := false // a line that is not a record was seen
		garbage := false // ... and something other than blank space follows it
		refused := false // a record holding a triple removal was seen first
		for _, line := range bytes.SplitAfter(wal, []byte("\n")) {
			body := bytes.TrimSpace(line)
			switch {
			case damaged || refused:
				garbage = garbage || len(body) > 0
			case len(body) == 0:
				good += int64(len(line))
			default:
				ops, err := decodeRecord(body)
				if errors.Is(err, segment.ErrRemove) {
					refused = true
					continue
				}
				if err != nil {
					damaged = true
					continue
				}
				want.Apply(ops)
				records++
				good += int64(len(line))
			}
		}

		dir := t.TempDir()
		path := filepath.Join(dir, walFile)
		if err := os.WriteFile(path, wal, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir)
		if refused || damaged && garbage {
			if err == nil {
				s.Close()
				t.Fatalf("Open accepted a WAL damaged mid-file at byte %d", good)
			}
			if offset := fmt.Sprintf("byte offset %d", good); !strings.Contains(err.Error(), offset) {
				t.Fatalf("error %q does not name %s", err, offset)
			}
			if left, _ := os.ReadFile(path); !bytes.Equal(left, wal) {
				t.Fatal("a refused open changed the WAL")
			}
			return
		}
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		if got := s.WALRecords(); got != records {
			t.Fatalf("replayed %d records, want %d", got, records)
		}
		same := func(stage string, got *rdf.Dataset) {
			if !reflect.DeepEqual(got.Quads(), want.Quads()) {
				t.Fatalf("%s: dataset holds\n%v\nwant\n%v", stage, got.Quads(), want.Quads())
			}
		}
		same("replay", s.Dataset())
		if left, _ := os.ReadFile(path); !bytes.Equal(left, wal[:good]) {
			t.Fatalf("WAL after open is %d bytes, want the %d-byte record prefix", len(left), good)
		}
		// The trimmed log replays again, and seals, to the same dataset.
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if s, err = Open(dir); err != nil {
			t.Fatalf("second Open: %v", err)
		}
		same("second replay", s.Dataset())
		if err := s.Checkpoint(); err != nil {
			t.Fatalf("Checkpoint: %v", err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if s, err = Open(dir); err != nil {
			t.Fatalf("Open after checkpoint: %v", err)
		}
		defer s.Close()
		same("sealed", s.Dataset())
	})
}
