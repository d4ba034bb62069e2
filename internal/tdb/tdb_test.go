package tdb

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"mdm/internal/rdf"
	"mdm/internal/sparql"
	"mdm/internal/tdb/segment"
)

func openT(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// add commits quads as one record, the way every writer reaches a store.
func add(s *Store, quads ...rdf.Quad) error {
	ops := make([]rdf.Op, len(quads))
	for i, q := range quads {
		ops[i] = rdf.Op{Kind: rdf.OpAdd, Quad: q}
	}
	return s.Commit(ops)
}

// addT commits one default-graph triple as one record.
func addT(s *Store, t rdf.Triple) error { return add(s, rdf.Quad{Triple: t}) }

// drop commits the drop of a named graph as one record.
func drop(s *Store, graph rdf.Term) error {
	return s.Commit([]rdf.Op{{Kind: rdf.OpDrop, Quad: rdf.Quad{Graph: graph}}})
}

func TestOpenEmptyAndBasicAdd(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	defer s.Close()

	if err := addT(s, rdf.T(rdf.IRI("s"), rdf.IRI("p"), rdf.Lit("v"))); err != nil {
		t.Fatal(err)
	}
	if err := add(s, rdf.Q(rdf.IRI("s"), rdf.IRI("p"), rdf.Lit("n"), rdf.IRI("g"))); err != nil {
		t.Fatal(err)
	}
	if s.Dataset().Len() != 2 {
		t.Fatalf("Len = %d", s.Dataset().Len())
	}
	if s.WALRecords() != 2 {
		t.Fatalf("WALRecords = %d", s.WALRecords())
	}
}

func TestAddInvalidQuadRejected(t *testing.T) {
	s := openT(t, t.TempDir())
	defer s.Close()
	if err := addT(s, rdf.T(rdf.Lit("bad"), rdf.IRI("p"), rdf.Lit("v"))); err == nil {
		t.Fatal("invalid triple accepted")
	}
	if s.WALRecords() != 0 {
		t.Fatal("invalid triple reached the WAL")
	}
}

func TestReopenReplaysWAL(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	tr := rdf.T(rdf.IRI("http://ex/s"), rdf.IRI("http://ex/p"), rdf.TypedLit("7", rdf.XSDInteger))
	if err := addT(s, tr); err != nil {
		t.Fatal(err)
	}
	if err := add(s, rdf.Q(rdf.IRI("a"), rdf.IRI("b"), rdf.LangLit("x", "en"), rdf.IRI("g1"))); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit([]rdf.Op{{Kind: rdf.OpPrefix, Prefix: "ex", NS: "http://ex/"}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openT(t, dir)
	defer s2.Close()
	if !s2.Dataset().Default().Has(tr) {
		t.Error("default-graph triple lost across reopen")
	}
	g, ok := s2.Dataset().Lookup(rdf.IRI("g1"))
	if !ok || !g.Has(rdf.T(rdf.IRI("a"), rdf.IRI("b"), rdf.LangLit("x", "en"))) {
		t.Error("named-graph quad lost across reopen")
	}
	if iri, ok := s2.Dataset().Prefixes().Expand("ex:s"); !ok || iri != "http://ex/s" {
		t.Error("prefix binding lost across reopen")
	}
}

func TestDropSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	keep := rdf.T(rdf.IRI("keep"), rdf.IRI("p"), rdf.Lit("v"))
	if err := addT(s, keep); err != nil {
		t.Fatal(err)
	}
	if err := add(s, rdf.Q(rdf.IRI("x"), rdf.IRI("y"), rdf.Lit("z"), rdf.IRI("dropme"))); err != nil {
		t.Fatal(err)
	}
	if err := drop(s, rdf.IRI("dropme")); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2 := openT(t, dir)
	defer s2.Close()
	if !s2.Dataset().Default().Has(keep) {
		t.Error("kept triple missing")
	}
	if _, ok := s2.Dataset().Lookup(rdf.IRI("dropme")); ok {
		t.Error("dropped graph resurrected")
	}
}

func TestCompactThenReopen(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	s.Commit([]rdf.Op{{Kind: rdf.OpPrefix, Prefix: "ex", NS: "http://ex/"}})
	for i := 0; i < 20; i++ {
		if err := addT(s, rdf.T(rdf.IRI("http://ex/s"), rdf.IRI("http://ex/p"), rdf.IntLit(int64(i)))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if s.WALRecords() != 0 {
		t.Fatalf("WALRecords after compact = %d", s.WALRecords())
	}
	// Post-compaction writes land in the fresh WAL.
	if err := addT(s, rdf.T(rdf.IRI("post"), rdf.IRI("p"), rdf.Lit("v"))); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Compaction publishes a manifest naming one full segment.
	man, err := segment.LoadManifest(dir)
	if err != nil || man == nil {
		t.Fatalf("LoadManifest after compact = %v, %v", man, err)
	}
	if len(man.Segments) != 1 {
		t.Fatalf("segments after compact = %v", man.Segments)
	}
	if _, err := segment.ReadStats(filepath.Join(dir, man.Segments[0])); err != nil {
		t.Fatal(err)
	}
	s2 := openT(t, dir)
	defer s2.Close()
	if got := s2.Dataset().Default().Len(); got != 21 {
		t.Fatalf("triples after compact+reopen = %d, want 21", got)
	}
	if iri, ok := s2.Dataset().Prefixes().Expand("ex:a"); !ok || iri != "http://ex/a" {
		t.Error("prefix lost through snapshot")
	}
}

func TestTornWALRecordIgnored(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	addT(s, rdf.T(rdf.IRI("s"), rdf.IRI("p"), rdf.Lit("v")))
	s.Close()

	// Simulate a crash mid-append: truncated JSON on the last line.
	f, err := os.OpenFile(filepath.Join(dir, walFile), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"ops":[{"op":"add","quad":[{"k":0,"v":"torn`)
	f.Close()

	s2 := openT(t, dir)
	defer s2.Close()
	if got := s2.Dataset().Default().Len(); got != 1 {
		t.Fatalf("Len after torn WAL = %d, want 1", got)
	}
}

func TestClosedStoreRejectsWrites(t *testing.T) {
	s := openT(t, t.TempDir())
	s.Close()
	if err := addT(s, rdf.T(rdf.IRI("s"), rdf.IRI("p"), rdf.Lit("v"))); err == nil {
		t.Error("write after Close should fail")
	}
	if err := s.Compact(); err == nil {
		t.Error("Compact after Close should fail")
	}
	if err := s.Close(); err != nil {
		t.Errorf("double Close should be nil, got %v", err)
	}
}

func TestLiteralFidelityThroughWALAndSnapshot(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	terms := []rdf.Term{
		rdf.Lit("plain"),
		rdf.LangLit("hola", "es"),
		rdf.TypedLit("170.18", rdf.XSDDouble),
		rdf.IntLit(-42),
		rdf.BoolLit(false),
		rdf.Lit("esc \"quotes\" and\nnewline"),
	}
	for i, o := range terms {
		if err := addT(s, rdf.T(rdf.IRI("s"), rdf.IRI("p"), o)); err != nil {
			t.Fatalf("add %d: %v", i, err)
		}
	}
	s.Close()
	// Reopen (WAL replay), verify, compact (snapshot), reopen again.
	s2 := openT(t, dir)
	for _, o := range terms {
		if !s2.Dataset().Default().Has(rdf.T(rdf.IRI("s"), rdf.IRI("p"), o)) {
			t.Errorf("term %s lost in WAL replay", o)
		}
	}
	if err := s2.Compact(); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	s3 := openT(t, dir)
	defer s3.Close()
	for _, o := range terms {
		if !s3.Dataset().Default().Has(rdf.T(rdf.IRI("s"), rdf.IRI("p"), o)) {
			t.Errorf("term %s lost in snapshot round trip", o)
		}
	}
}

// TestConcurrentQueriesDuringAppends exercises the locking contract of
// the dataset-shared dictionary: SPARQL evaluation snapshots the
// append-only Dict (rdf.Dict.Snapshot) and takes per-graph read locks,
// while Store appends intern new terms concurrently. Run with -race
// (CI does) to verify the contract.
func TestConcurrentQueriesDuringAppends(t *testing.T) {
	s := openT(t, t.TempDir())
	defer s.Close()

	ex := func(n string) rdf.Term { return rdf.IRI("http://ex/" + n) }
	p := ex("p")
	for i := 0; i < 20; i++ {
		if err := addT(s, rdf.T(ex(fmt.Sprintf("s%d", i)), p, rdf.IntLit(int64(i)))); err != nil {
			t.Fatal(err)
		}
	}
	// A join fixture big enough that the planner picks the hash join on
	// its own, so the batched build scan and the probes race real
	// concurrent Dict interning.
	for i := 0; i < 3000; i++ {
		if err := addT(s, rdf.T(ex(fmt.Sprintf("j%d", i)), ex("p1"), ex(fmt.Sprintf("m%d", i%50)))); err != nil {
			t.Fatal(err)
		}
	}
	for k := 0; k < 50; k++ {
		if err := addT(s, rdf.T(ex(fmt.Sprintf("m%d", k)), ex("p2"), rdf.IntLit(int64(k)))); err != nil {
			t.Fatal(err)
		}
	}
	ds := s.Dataset()
	const query = `SELECT ?s ?o WHERE { ?s <http://ex/p> ?o . FILTER (?o >= 0) }`
	const graphQuery = `SELECT ?g ?s WHERE { GRAPH ?g { ?s <http://ex/p> ?o } }`
	const joinQuery = `SELECT ?a ?c WHERE { ?a <http://ex/p1> ?b . ?b <http://ex/p2> ?c }`

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var qerr atomic.Value
	for w := 0; w < 6; w++ {
		wg.Add(1)
		q := query
		switch w % 3 {
		case 1:
			q = graphQuery
		case 2:
			q = joinQuery
		}
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := sparql.Run(ds, q); err != nil {
					qerr.Store(err)
					return
				}
			}
		}()
	}
	for i := 0; i < 150; i++ {
		q := rdf.Q(ex(fmt.Sprintf("n%d", i)), p, rdf.IntLit(int64(i)), rdf.Term{})
		if i%3 == 0 {
			q.Graph = ex(fmt.Sprintf("g%d", i%5))
		}
		if err := add(s, q); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if err := qerr.Load(); err != nil {
		t.Fatalf("concurrent query failed: %v", err)
	}

	res, err := sparql.Run(ds, query)
	if err != nil {
		t.Fatal(err)
	}
	if want := 20 + 100; res.Len() != want { // 150 appends, every 3rd into a named graph
		t.Fatalf("rows after appends = %d, want %d", res.Len(), want)
	}
	res, err = sparql.Run(ds, joinQuery)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 3000 {
		t.Fatalf("join rows = %d, want 3000", res.Len())
	}
}
