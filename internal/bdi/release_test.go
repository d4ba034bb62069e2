package bdi_test

import (
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"mdm"
	"mdm/internal/bdi"
	"mdm/internal/rdf"
	"mdm/internal/relalg"
	"mdm/internal/schema"
	"mdm/internal/sparql"
	"mdm/internal/usecase"
	"mdm/internal/wrapper"
)

// releaseBreaches checks the one-record rule on an ontology, whoever wrote
// it: the wrappers of the source graph are exactly the wrappers the
// release graph records, the sequence numbers are 1..n, every release
// supersedes the previous release of its own source, and its changes are
// the diff of the two recorded signatures.
func releaseBreaches(o *bdi.Ontology) []string {
	var breaches []string
	var inSource, inLog []string
	for _, w := range o.Source().Subjects(rdf.IRI(rdf.RDFType), bdi.ClassWrapper) {
		name, _ := bdi.WrapperName(w)
		inSource = append(inSource, name)
	}
	latest := map[string]string{} // source -> its latest wrapper so far
	for i, rel := range o.Releases() {
		name := rel.Signature.Wrapper
		inLog = append(inLog, name)
		if rel.Seq != i+1 {
			breaches = append(breaches, fmt.Sprintf("entry %d (%s) has sequence number %d", i, name, rel.Seq))
		}
		if rel.Supersedes != latest[rel.SourceID] {
			breaches = append(breaches, fmt.Sprintf("#%d %s/%s supersedes %q, the source's previous release is %q",
				rel.Seq, rel.SourceID, name, rel.Supersedes, latest[rel.SourceID]))
		}
		latest[rel.SourceID] = name
		if single, ok := o.ReleaseOf(name); !ok || !reflect.DeepEqual(single, rel) {
			breaches = append(breaches, fmt.Sprintf("ReleaseOf(%s) = %+v, the log holds %+v", name, single, rel))
		}
		var want []schema.Change
		if prev, ok := o.ReleaseOf(rel.Supersedes); ok {
			want = schema.Diff(prev.Signature, rel.Signature)
		}
		if !reflect.DeepEqual(rel.Changes, want) || rel.Breaking != schema.IsBreaking(want) {
			breaches = append(breaches, fmt.Sprintf("#%d %s has changes %v (breaking %v), its recorded signatures differ by %v",
				rel.Seq, name, rel.Changes, rel.Breaking, want))
		}
	}
	sort.Strings(inSource)
	sort.Strings(inLog)
	if !reflect.DeepEqual(inSource, inLog) {
		breaches = append(breaches, fmt.Sprintf("source graph holds wrappers %v, release graph records %v", inSource, inLog))
	}
	return breaches
}

// reopened reads o's dataset back from its TriG export, as a restart
// reads it back from storage.
func reopened(t *testing.T, o *bdi.Ontology) *bdi.Ontology {
	t.Helper()
	ds, err := sparql.ParseTriG(rdf.WriteDataset(o.Dataset()))
	if err != nil {
		t.Fatal(err)
	}
	return bdi.FromDataset(ds)
}

func mem(name, source string, attrs ...string) *wrapper.Mem {
	doc := schema.Doc{}
	for _, a := range attrs {
		doc[a] = relalg.String("x")
	}
	return wrapper.NewMem(name, source, []schema.Doc{doc}, nil)
}

// TestEveryWriterKeepsOneRecordPerRelease drives each way a wrapper can
// reach the source graph, failures included, and checks the rule after
// every one of them — on the ontology as written and as read back — and
// that every release a writer returned is the one the log reads back.
func TestEveryWriterKeepsOneRecordPerRelease(t *testing.T) {
	check := func(t *testing.T, o *bdi.Ontology, wrappers int, returned map[string]bdi.Release) {
		t.Helper()
		back := reopened(t, o)
		for _, b := range releaseBreaches(o) {
			t.Error(b)
		}
		for _, b := range releaseBreaches(back) {
			t.Error("read back: " + b)
		}
		if got := len(o.Releases()); got != wrappers {
			t.Errorf("%d releases recorded, want %d", got, wrappers)
		}
		if got, want := back.Releases(), o.Releases(); !reflect.DeepEqual(got, want) {
			t.Errorf("log read back as\n%+v\nwas\n%+v", got, want)
		}
		for name, rel := range returned {
			if logged, _ := back.ReleaseOf(name); !reflect.DeepEqual(logged, rel) {
				t.Errorf("%s: returned %+v, the log reads back %+v", name, rel, logged)
			}
		}
	}

	t.Run("bdi", func(t *testing.T) {
		o := bdi.New()
		for _, src := range []string{"a", "b", "c"} {
			if err := o.AddDataSource(src, ""); err != nil {
				t.Fatal(err)
			}
		}
		at := time.Date(2018, 3, 26, 10, 0, 0, 0, time.UTC)
		returned := map[string]bdi.Release{}
		for i, src := range []string{"a", "b", "a", "c", "b", "a", "ghost", "a"} {
			sig := mem(fmt.Sprintf("w%d", i), src, "id", fmt.Sprintf("x%d", i)).Signature()
			rel, err := o.RegisterWrapper(src, sig, at.Add(time.Duration(i)*time.Second))
			if err == nil {
				returned[sig.Wrapper] = rel
				if rel.Supersedes != "" && (len(rel.Changes) == 0 || !rel.Breaking) {
					t.Errorf("release %+v replaces an attribute but reports no breaking change", rel)
				}
			} else if src != "ghost" {
				t.Fatal(err)
			}
			check(t, o, len(returned), returned)
		}
		// A released name is refused, whatever it now declares.
		if _, err := o.RegisterWrapper("b", mem("w0", "b", "other").Signature(), at); err == nil {
			t.Error("a released wrapper name was released again")
		}
		check(t, o, len(returned), returned)
	})

	t.Run("facade refusals", func(t *testing.T) {
		sys := mdm.New()
		if err := sys.AddSource("players", ""); err != nil {
			t.Fatal(err)
		}
		returned := map[string]bdi.Release{}
		for _, w := range []*wrapper.Mem{
			mem("p1", "players", "id", "pName"),
			mem("p1", "players", "id", "pName"), // duplicate: the registry holds it
			mem("p2", "players", "id", "fullName"),
			mem("p3", "nowhere", "id"),          // unknown source: rolled back
			mem("p2", "players", "id", "other"), // conflict with the record
		} {
			if rel, err := sys.RegisterWrapper(w); err == nil {
				returned[w.Name()] = rel
			}
			check(t, sys.Ontology(), len(returned), returned)
		}
		if len(returned) != 2 {
			t.Fatalf("%d registrations succeeded, want 2", len(returned))
		}
		sys.Wrappers().Remove("p1")
		if rel, err := sys.RegisterWrapper(mem("p1", "players", "pName", "id")); err != nil {
			t.Fatalf("re-attaching a released wrapper: %v", err)
		} else if !reflect.DeepEqual(rel, returned["p1"]) {
			t.Errorf("re-attaching returned %+v, the release was %+v", rel, returned["p1"])
		}
		check(t, sys.Ontology(), 2, returned)
	})

	// The facade has no lock of its own: numbering and the choice of the
	// superseded wrapper are serialized by the ontology's write lock.
	t.Run("concurrent facade callers", func(t *testing.T) {
		sys := mdm.New()
		sources := []string{"a", "b", "c"}
		for _, src := range sources {
			if err := sys.AddSource(src, ""); err != nil {
				t.Fatal(err)
			}
		}
		const perSource = 8
		var mu sync.Mutex
		returned := map[string]bdi.Release{}
		var wg sync.WaitGroup
		for _, src := range sources {
			for v := 0; v < perSource; v++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					rel, err := sys.RegisterWrapper(mem(fmt.Sprintf("%s%d", src, v), src, "id", fmt.Sprintf("x%d", v)))
					if err != nil {
						t.Error(err)
						return
					}
					mu.Lock()
					returned[rel.Signature.Wrapper] = rel
					mu.Unlock()
					sys.ReleaseLog() // a reader beside the writers
				}()
			}
		}
		wg.Wait()
		check(t, sys.Ontology(), len(sources)*perSource, returned)
	})

	t.Run("facade", func(t *testing.T) {
		sys := mdm.New()
		if err := sys.AddSource("players", ""); err != nil {
			t.Fatal(err)
		}
		returned := map[string]bdi.Release{}
		for v := 1; v <= 4; v++ {
			rel, err := sys.RegisterWrapper(mem(fmt.Sprintf("p%d", v), "players", "id", fmt.Sprintf("x%d", v)))
			if err != nil {
				t.Fatal(err)
			}
			returned[rel.Signature.Wrapper] = rel
			check(t, sys.Ontology(), v, returned)
		}
		again, err := mdm.ImportTriG(sys.ExportTriG())
		if err != nil {
			t.Fatal(err)
		}
		check(t, again.Ontology(), 4, returned)
	})

	t.Run("usecase fixtures", func(t *testing.T) {
		f := usecase.MustNew()
		check(t, f.Ont, 6, nil)
		if err := f.ReleasePlayersV2(); err != nil {
			t.Fatal(err)
		}
		check(t, f.Ont, 7, nil)
		if rel, _ := f.Ont.ReleaseOf("w1v2"); rel.Supersedes != "w5" || !rel.Breaking {
			t.Errorf("players v2 = %+v, want a breaking release superseding w5", rel)
		}
		versions, _, _ := usecase.SyntheticVersions(5)
		check(t, versions, 6+4, nil)
		chain, _, _ := usecase.SyntheticChain(4)
		check(t, chain, 3, nil)
	})

	// The check can fail: a wrapper written the way RegisterWrapper wrote
	// it before the release graph existed — source-graph triples only.
	t.Run("wrapper without record is a breach", func(t *testing.T) {
		f := usecase.MustNew()
		w := bdi.WrapperIRI("stray")
		f.Ont.Source().MustAdd(rdf.T(w, rdf.IRI(rdf.RDFType), bdi.ClassWrapper))
		f.Ont.Source().MustAdd(rdf.T(bdi.SourceIRI(usecase.SrcPlayers), bdi.PropHasWrapper, w))
		if len(releaseBreaches(f.Ont)) == 0 {
			t.Error("a wrapper the release graph does not record went unnoticed")
		}
	})
}
