package mdm_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
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
	"mdm/internal/rdf"
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
// child — this test binary re-executed — registers two versions of a
// wrapper and defines their mappings on a persistent system, prints the
// second release as it was acknowledged, and is SIGKILLed without ever
// calling Close or CompactStorage; the parent then finds the source-graph
// triples, the mapping graph and that release entry, whole.
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
		var acked mdm.Release
		if err == nil {
			acked, err = sys.RegisterWrapper(playersWrapper(2))
		}
		if err == nil {
			err = sys.DefineMapping(playersMapping(sys, "players_v2", true))
		}
		if err != nil {
			fmt.Println("child failed:", err)
			os.Exit(1)
		}
		line, _ := json.Marshal(acked)
		fmt.Printf("acked %s\n", line)
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
	ack, ok := strings.CutPrefix(line, "acked ")
	if !ok {
		t.Fatalf("child said %q before it was killed, want \"acked …\"", line)
	}
	var acked mdm.Release
	must(t, json.Unmarshal([]byte(ack), &acked))

	sys, err := mdm.Open(dir)
	must(t, err)
	defer sys.Close()
	if got := sys.Ontology().Source().Objects(bdi.WrapperIRI("players_v2"), bdi.PropHasAttribute); len(got) != 3 {
		t.Errorf("source graph after kill holds %d attributes of players_v2, want 3", len(got))
	}
	m, ok := sys.Ontology().MappingOf("players_v2")
	if !ok || len(m.Subgraph) != 3 || len(m.SameAs) != 2 {
		t.Errorf("mapping after kill = %+v (found %v), want 3 triples and 2 links", m, ok)
	}
	log := sys.ReleaseLog()
	if len(log) != 2 || log[0].Signature.Wrapper != "players_v1" {
		t.Fatalf("release log after kill = %+v, want the two acknowledged entries", log)
	}
	if len(acked.Changes) != 1 || acked.Supersedes != "players_v1" {
		t.Fatalf("the child acknowledged %+v, want players_v1 superseded with one change", acked)
	}
	if !log[1].At.Equal(acked.At) {
		t.Errorf("entry after kill is dated %v, acknowledged at %v", log[1].At, acked.At)
	}
	log[1].At = acked.At // the same instant, printed in another zone
	if !reflect.DeepEqual(log[1], acked) {
		t.Errorf("entry after kill = %+v\nacknowledged   = %+v", log[1], acked)
	}
	if v := sys.Validate(); len(v) != 0 {
		t.Errorf("violations after kill: %v", v)
	}
}

// TestPinnedReleaseChangesDerived: testdata/players-v2-release.wal.jsonl
// is the WAL an mdmd -data run wrote with a version of MDM that stored a
// release's changes as a <…/Release/changes> literal — two sources, the
// players v1 and teams wrappers over the simulated provider, then players
// v2 with a rename and an addition — ended by kill -9. Opened now, the
// v2 release's changes, derived from the two recorded signatures, are
// the ones stored then.
func TestPinnedReleaseChangesDerived(t *testing.T) {
	wal, err := os.ReadFile(filepath.Join("testdata", "players-v2-release.wal.jsonl"))
	must(t, err)
	dir := t.TempDir()
	must(t, os.MkdirAll(filepath.Join(dir, "ontology"), 0o755))
	must(t, os.WriteFile(filepath.Join(dir, "ontology", "wal.jsonl"), wal, 0o644))
	sys, err := mdm.Open(dir)
	must(t, err)
	defer sys.Close()

	rg, ok := sys.Ontology().Dataset().Lookup(bdi.ReleaseGraphName)
	if !ok {
		t.Fatal("the pinned store has no release graph")
	}
	lit, ok := rg.Object(bdi.WrapperIRI("w1v2"), rdf.IRI(bdi.NSRelease+"changes"))
	if !ok {
		t.Fatal("the pinned w1v2 record holds no stored changes")
	}
	var stored []schema.Change
	must(t, json.Unmarshal([]byte(lit.Value), &stored))
	var renamed, added bool
	for _, c := range stored {
		renamed = renamed || c.Kind == schema.AttributeRenamed
		added = added || c.Kind == schema.AttributeAdded
	}
	if !renamed || !added {
		t.Fatalf("the pinned changes %v hold no rename and addition", stored)
	}

	rel, ok := sys.Ontology().ReleaseOf("w1v2")
	if !ok || rel.Supersedes != "w1" || rel.Kind != bdi.NewVersion || !rel.Breaking {
		t.Fatalf("w1v2 reads back as %+v (found %v)", rel, ok)
	}
	if !reflect.DeepEqual(rel.Changes, stored) {
		t.Errorf("derived changes %v, the record stored %v", rel.Changes, stored)
	}
	if log := sys.ReleaseLog(); len(log) != 3 || !reflect.DeepEqual(log[2], rel) {
		t.Errorf("release log = %+v, want w1, w2 and w1v2", log)
	}
}

// TestTornRegisterWrapperBatch: a release is one WAL record — the
// wrapper's source-graph triples and its release entry — so a crash that
// tears it loses both: the reopened store holds neither the wrapper nor
// the entry, and the next release takes the sequence number.
func TestTornRegisterWrapperBatch(t *testing.T) {
	dir := t.TempDir()
	sys, err := mdm.Open(dir)
	must(t, err)
	must(t, seedPlayers(sys))
	must(t, release(sys, 1))
	before := storeState(t, sys)
	torn, err := sys.RegisterWrapper(playersWrapper(2))
	must(t, err)
	crash(t, sys)

	walPath := filepath.Join(dir, "ontology", "wal.jsonl")
	wal, err := os.ReadFile(walPath)
	must(t, err)
	last := bytes.LastIndexByte(wal[:len(wal)-1], '\n') + 1
	for _, part := range []string{"wrapper/players_v2", bdi.ClassWrapper.Value, bdi.PropSeq.Value} {
		if !bytes.Contains(wal[last:], []byte(part)) {
			t.Fatalf("last WAL record does not hold %s, so it is not the whole release: %s", part, wal[last:])
		}
	}
	for _, cut := range []int{last + 1, last + (len(wal)-last)/2, len(wal) - 2} {
		must(t, os.WriteFile(walPath, wal[:cut], 0o644))
		sys, err := mdm.Open(dir)
		must(t, err)
		if got := storeState(t, sys); got != before {
			t.Errorf("WAL cut at byte %d of the batch replayed to\n%s\nwant the state before the call\n%s", cut-last, got, before)
		}
		if sys.Ontology().Source().Count(rdf.Any, bdi.PropHasWrapper, bdi.WrapperIRI("players_v2")) > 0 {
			t.Errorf("WAL cut at byte %d: the wrapper of the torn release is in the source graph", cut-last)
		}
		if log := sys.ReleaseLog(); len(log) != 1 || log[0].Signature.Wrapper != "players_v1" {
			t.Errorf("WAL cut at byte %d: release log = %+v, want players_v1 alone", cut-last, log)
		}
		crash(t, sys)
	}
	sys, err = mdm.Open(dir)
	must(t, err)
	defer sys.Close()
	again, err := sys.RegisterWrapper(playersWrapper(2))
	must(t, err)
	if again.Seq != torn.Seq || again.Supersedes != "players_v1" {
		t.Errorf("release after the torn one = %+v, want sequence number %d again", again, torn.Seq)
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
// store's mutex — releases (the ontology's write lock, then the store's
// mutex, on their way into Commit), forced compactions, the maintenance
// policy, the background tick — beside SPARQL cursors and ontology
// readers, which now run while a rewrite reads the dataset. A lock cycle
// shows as a hang (the test times out), an unsynchronized read as a lost
// release or a -race report.
func TestLockOrderReleasesCompactionsCursors(t *testing.T) {
	dir := t.TempDir()
	sys, err := mdm.OpenWith(dir, mdm.StoreOptions{CompactInterval: time.Millisecond})
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
		// Acknowledged means visible, whatever maintenance is running.
		if _, ok := sys.Ontology().MappingOf(fmt.Sprintf("players_v%d", v)); !ok {
			t.Fatalf("release %d acknowledged but its mapping is not readable", v)
		}
	}
	close(stop)
	wg.Wait()

	if got := len(sys.Ontology().MappedWrappers()); got != releases {
		t.Errorf("%d mapped wrappers after %d releases", got, releases)
	}
	before := storeState(t, sys)
	must(t, sys.Close())
	sys, err = mdm.Open(dir)
	must(t, err)
	defer sys.Close()
	if after := storeState(t, sys); after != before {
		t.Errorf("reopen changed the store:\n%s\nbefore:\n%s", after, before)
	}
	log := sys.ReleaseLog()
	if len(log) != releases {
		t.Errorf("release log holds %d entries after %d releases", len(log), releases)
	}
	// Numbered under the ontology's write lock, compactions or not.
	for i, rel := range log {
		if want := fmt.Sprintf("players_v%d", i+1); rel.Seq != i+1 || rel.Signature.Wrapper != want {
			t.Errorf("log[%d] = #%d %s, want #%d %s", i, rel.Seq, rel.Signature.Wrapper, i+1, want)
		}
	}
}
