package mdm_test

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"mdm"
	"mdm/internal/bdi"
	"mdm/internal/relalg"
	"mdm/internal/schema"
	"mdm/internal/tdb/segment"
	"mdm/internal/wrapper"
)

// The durability tests share one small ontology: a Player concept with
// two features, one source, and players wrappers whose version v carries
// v-1 extra attributes.

func must(t testing.TB, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func seedPlayers(sys *mdm.System) error {
	steps := []func() error{
		func() error { return sys.BindPrefix("ex", "http://ex.org/") },
		func() error { return sys.AddConcept("ex:Player", "Player") },
		func() error { return sys.AddFeature("ex:playerId", "") },
		func() error { return sys.AddFeature("ex:playerName", "") },
		func() error { return sys.AttachFeature("ex:Player", "ex:playerId") },
		func() error { return sys.AttachFeature("ex:Player", "ex:playerName") },
		func() error { return sys.MarkIdentifier("ex:playerId") },
		func() error { return sys.AddSource("players-api", "Players API") },
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return err
		}
	}
	return nil
}

func playersWrapper(v int) mdm.Wrapper {
	doc := schema.Doc{"id": relalg.Int(1), "pName": relalg.String("Alice")}
	for e := 2; e <= v; e++ {
		doc[fmt.Sprintf("ext_%d", e)] = relalg.String("x")
	}
	return wrapper.NewMem(fmt.Sprintf("players_v%d", v), "players-api", []schema.Doc{doc}, nil)
}

// playersMapping maps id (and, when withName, pName) of a players wrapper.
func playersMapping(sys *mdm.System, name string, withName bool) mdm.Mapping {
	m := mdm.Mapping{
		Wrapper: name,
		Subgraph: []mdm.Triple{
			mdm.T(sys.IRI("ex:Player"), sys.IRI("rdf:type"), sys.IRI("G:Concept")),
			mdm.T(sys.IRI("ex:Player"), sys.IRI("G:hasFeature"), sys.IRI("ex:playerId")),
		},
		SameAs: map[string]mdm.Term{"id": sys.IRI("ex:playerId")},
	}
	if withName {
		m.Subgraph = append(m.Subgraph, mdm.T(sys.IRI("ex:Player"), sys.IRI("G:hasFeature"), sys.IRI("ex:playerName")))
		m.SameAs["pName"] = sys.IRI("ex:playerName")
	}
	return m
}

func release(sys *mdm.System, v int) error {
	w := playersWrapper(v)
	if _, err := sys.RegisterWrapper(w); err != nil {
		return err
	}
	return sys.DefineMapping(playersMapping(sys, w.Name(), true))
}

// crash abandons a persistent system the way a killed process would:
// file handles go, nothing is sealed or flushed beyond what every
// acknowledged call already wrote.
func crash(t *testing.T, sys *mdm.System) {
	t.Helper()
	must(t, sys.Storage().Close())
}

const attrsQuery = "SELECT ?w ?a WHERE { GRAPH <" + bdi.NSSource + "graph> { ?w <" + bdi.NSSource + "hasAttribute> ?a } }"

// storeState is what must survive a reopen unchanged: the triple count,
// the rendered mappings and the unsorted answer to a source-graph query.
func storeState(t *testing.T, sys *mdm.System) string {
	t.Helper()
	res, err := sys.SPARQL(attrsQuery)
	must(t, err)
	return fmt.Sprintf("%d triples\n%s\n%s", sys.Ontology().Dataset().Len(), sys.RenderMappings(), res.Table())
}

// TestKillAfterAck: a release is durable when it is acknowledged. The
// child — this test binary re-executed — registers a wrapper and defines
// its mapping on a persistent system, says so, and is SIGKILLed without
// ever calling Close or CompactStorage; the parent then finds the
// source-graph triples, the mapping graph and the release document.
func TestKillAfterAck(t *testing.T) {
	const envDir = "MDM_TEST_KILL_AFTER_ACK_DIR"
	if dir := os.Getenv(envDir); dir != "" {
		sys, err := mdm.Open(dir)
		if err == nil {
			err = seedPlayers(sys)
		}
		if err == nil {
			err = release(sys, 1)
		}
		if err != nil {
			fmt.Println("child failed:", err)
			os.Exit(1)
		}
		fmt.Println("acked")
		time.Sleep(time.Hour) // the parent kills us long before
		return
	}

	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run=^TestKillAfterAck$")
	cmd.Env = append(os.Environ(), envDir+"="+dir)
	out, err := cmd.StdoutPipe()
	must(t, err)
	must(t, cmd.Start())
	line, _ := bufio.NewReader(out).ReadString('\n')
	must(t, cmd.Process.Kill())
	_ = cmd.Wait() // "signal: killed" is the point
	if strings.TrimSpace(line) != "acked" {
		t.Fatalf("child said %q before it was killed, want \"acked\"", line)
	}

	sys, err := mdm.Open(dir)
	must(t, err)
	defer sys.Close()
	if got := sys.Ontology().AttributesOf("players_v1"); len(got) != 2 {
		t.Errorf("source graph after kill holds %d attributes of players_v1, want 2", len(got))
	}
	m, ok := sys.Ontology().MappingOf("players_v1")
	if !ok || len(m.Subgraph) != 3 || len(m.SameAs) != 2 {
		t.Errorf("mapping after kill = %+v (found %v), want 3 triples and 2 links", m, ok)
	}
	log := sys.ReleaseLog()
	if len(log) != 1 || log[0].Wrapper != "players_v1" || log[0].Recovered {
		t.Errorf("release log after kill = %+v, want the one original entry", log)
	}
	if v := sys.Validate(); len(v) != 0 {
		t.Errorf("violations after kill: %v", v)
	}
}

// TestOpenReconcilesReleaseLog: RegisterWrapper commits to the WAL first
// and writes the release document second, so a crash between the two
// leaves a wrapper without a document — repaired at open — while a
// document without its wrapper can only mean the stores come from
// different histories, and fails the open.
func TestOpenReconcilesReleaseLog(t *testing.T) {
	build := func(t *testing.T) string {
		dir := t.TempDir()
		sys, err := mdm.Open(dir)
		must(t, err)
		must(t, seedPlayers(sys))
		must(t, release(sys, 1))
		must(t, release(sys, 2))
		crash(t, sys)
		return dir
	}

	t.Run("wrapper without document is recovered", func(t *testing.T) {
		dir := build(t)
		must(t, os.Remove(filepath.Join(dir, "meta", "releases.json")))
		sys, err := mdm.Open(dir)
		must(t, err)
		log := sys.ReleaseLog()
		if len(log) != 2 {
			t.Fatalf("recovered log has %d entries, want 2: %+v", len(log), log)
		}
		want := []mdm.Release{
			{Seq: 1, Kind: "new-source", SourceID: "players-api", Wrapper: "players_v1", Signature: "players_v1(id, pName)", Recovered: true},
			{Seq: 2, Kind: "new-version", SourceID: "players-api", Wrapper: "players_v2", Signature: "players_v2(ext_2, id, pName)", Supersedes: "players_v1", Recovered: true},
		}
		for i := range log {
			log[i].At = time.Time{}
		}
		if !reflect.DeepEqual(log, want) {
			t.Errorf("recovered log = %+v\nwant %+v", log, want)
		}
		if !strings.Contains(sys.ReleaseLog()[0].Summary(), "RECOVERED") {
			t.Errorf("summary %q does not say the entry was recovered", sys.ReleaseLog()[0].Summary())
		}
		// The repair is itself durable, and the next release continues the
		// numbering.
		must(t, sys.Close())
		sys, err = mdm.Open(dir)
		must(t, err)
		defer sys.Close()
		if got := sys.ReleaseLog(); len(got) != 2 || !got[1].Recovered {
			t.Fatalf("log after a second open = %+v", got)
		}
		for v := 1; v <= 2; v++ {
			must(t, sys.Wrappers().Register(playersWrapper(v)))
		}
		rel, err := sys.RegisterWrapper(playersWrapper(3))
		must(t, err)
		if rel.Seq != 3 || rel.Supersedes != "players_v2" || rel.Recovered {
			t.Errorf("release after recovery = %+v", rel)
		}
	})

	t.Run("document without wrapper fails the open", func(t *testing.T) {
		dir := build(t)
		must(t, os.Remove(filepath.Join(dir, "ontology", "wal.jsonl")))
		sys, err := mdm.Open(dir)
		if err == nil {
			sys.Close()
			t.Fatal("Open served a release log whose wrappers the ontology store does not hold")
		}
		if !strings.Contains(err.Error(), "release #1") || !strings.Contains(err.Error(), "players_v1") {
			t.Errorf("error %q does not name the release", err)
		}
	})
}

// TestReleaseDocumentFailureNotAcknowledged: RegisterWrapper returns the
// metadata store's error instead of acknowledging a release it could not
// log, and the next open repairs the log from the source graph.
func TestReleaseDocumentFailureNotAcknowledged(t *testing.T) {
	dir := t.TempDir()
	sys, err := mdm.Open(dir)
	must(t, err)
	must(t, seedPlayers(sys))
	// A non-empty directory where the collection file goes: the store's
	// publishing rename fails.
	must(t, os.MkdirAll(filepath.Join(dir, "meta", "releases.json", "x"), 0o755))
	if _, err := sys.RegisterWrapper(playersWrapper(1)); err == nil {
		t.Fatal("RegisterWrapper acknowledged a release whose document was not written")
	}
	crash(t, sys)
	must(t, os.RemoveAll(filepath.Join(dir, "meta", "releases.json")))
	sys, err = mdm.Open(dir)
	must(t, err)
	defer sys.Close()
	if log := sys.ReleaseLog(); len(log) != 1 || !log[0].Recovered || log[0].Wrapper != "players_v1" {
		t.Errorf("log after reopen = %+v, want the recovered players_v1 entry", log)
	}
}

// TestTornDefineMappingBatch: DefineMapping drops and refills the mapping
// graph in one WAL record, so a crash that tears that record replays to
// the mapping as it stood before the call — never to a dropped or
// half-refilled graph.
func TestTornDefineMappingBatch(t *testing.T) {
	dir := t.TempDir()
	sys, err := mdm.Open(dir)
	must(t, err)
	must(t, seedPlayers(sys))
	must(t, release(sys, 1))
	before := storeState(t, sys)
	must(t, sys.DefineMapping(playersMapping(sys, "players_v1", false)))
	if storeState(t, sys) == before {
		t.Fatal("the second DefineMapping changed nothing; the test would prove nothing")
	}
	crash(t, sys)

	walPath := filepath.Join(dir, "ontology", "wal.jsonl")
	wal, err := os.ReadFile(walPath)
	must(t, err)
	last := bytes.LastIndexByte(wal[:len(wal)-1], '\n') + 1
	if !bytes.Contains(wal[last:], []byte(`"drop"`)) {
		t.Fatalf("last WAL record is not the DefineMapping batch: %s", wal[last:])
	}
	for _, cut := range []int{last + 1, last + (len(wal)-last)/2, len(wal) - 2} {
		must(t, os.WriteFile(walPath, wal[:cut], 0o644))
		sys, err := mdm.Open(dir)
		must(t, err)
		if got := storeState(t, sys); got != before {
			t.Errorf("WAL cut at byte %d of the batch replayed to\n%s\nwant the state before the call\n%s", cut-last, got, before)
		}
		crash(t, sys)
	}
}

// TestReopenAfterCheckpointsRowIdentical: with delta segments in the
// chain a reopen assigns dictionary IDs in a different order than the
// process that wrote them did; the unsorted answer to a source-graph
// query must not depend on it.
func TestReopenAfterCheckpointsRowIdentical(t *testing.T) {
	dir := t.TempDir()
	sys, err := mdm.Open(dir)
	must(t, err)
	must(t, seedPlayers(sys))
	must(t, sys.Storage().Compact())
	const cycles = 8
	for v := 1; v <= cycles; v++ {
		must(t, release(sys, v))
		must(t, sys.Storage().Checkpoint())
	}
	man, err := segment.LoadManifest(filepath.Join(dir, "ontology"))
	must(t, err)
	if len(man.Segments) != cycles+1 {
		t.Fatalf("manifest lists %d segments, want 1 full + %d deltas", len(man.Segments), cycles)
	}
	before := storeState(t, sys)
	must(t, sys.Close())
	sys, err = mdm.Open(dir)
	must(t, err)
	defer sys.Close()
	if after := storeState(t, sys); after != before {
		t.Errorf("reopen over a delta chain changed the store:\n%s\nbefore:\n%s", after, before)
	}
}

// TestLockOrderReleasesCompactionsCursors runs every path that takes the
// ontology's write lock and the store's mutex — releases (ontology, then
// store), forced compactions, the maintenance policy, the background
// tick — beside pinned SPARQL cursors. They must take the two locks in
// one order: a cycle shows as a hang (the test times out), a missed
// hand-over as a lost release or a -race report.
func TestLockOrderReleasesCompactionsCursors(t *testing.T) {
	dir := t.TempDir()
	sys, err := mdm.OpenWith(dir, mdm.StoreOptions{CompactInterval: time.Millisecond, CompactWALThreshold: 1})
	must(t, err)
	must(t, seedPlayers(sys))

	const releases = 12
	stop := make(chan struct{})
	var wg sync.WaitGroup
	background := func(fn func() error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := fn(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	background(sys.Storage().Compact)
	background(sys.CompactStorage)
	background(func() error {
		cur, err := sys.SPARQLPage(attrsQuery, -1, -1)
		if err != nil {
			return err
		}
		defer cur.Close()
		for cur.Next(context.Background()) {
		}
		return cur.Err()
	})
	background(func() error {
		sys.Ontology().MappedWrappers() // an ontology reader
		return nil
	})
	for v := 1; v <= releases; v++ {
		must(t, release(sys, v))
		// Acknowledged means visible, whichever epoch is live by now.
		if _, ok := sys.Ontology().MappingOf(fmt.Sprintf("players_v%d", v)); !ok {
			t.Fatalf("release %d acknowledged but its mapping is not readable", v)
		}
	}
	close(stop)
	wg.Wait()

	if got := len(sys.Ontology().MappedWrappers()); got != releases {
		t.Errorf("%d mapped wrappers after %d releases", got, releases)
	}
	if got := sys.Storage().RetiredEpochs(); got != 0 {
		t.Errorf("%d retired epochs still pinned after every cursor closed", got)
	}
	before := storeState(t, sys)
	must(t, sys.Close())
	sys, err = mdm.Open(dir)
	must(t, err)
	defer sys.Close()
	if after := storeState(t, sys); after != before {
		t.Errorf("reopen changed the store:\n%s\nbefore:\n%s", after, before)
	}
	if got := len(sys.ReleaseLog()); got != releases {
		t.Errorf("release log holds %d entries after %d releases", got, releases)
	}
}
