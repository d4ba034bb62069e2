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
	"mdm/internal/release"
	"mdm/internal/schema"
	"mdm/internal/usecase"
	"mdm/internal/wrapper"
)

// releaseBreaches checks the one-record rule on an ontology, whoever wrote
// it: the wrappers of the source graph are exactly the wrappers the
// release graph records, the sequence numbers are 1..n, and every release
// supersedes the previous release of its own source.
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
	}
	sort.Strings(inSource)
	sort.Strings(inLog)
	if !reflect.DeepEqual(inSource, inLog) {
		breaches = append(breaches, fmt.Sprintf("source graph holds wrappers %v, release graph records %v", inSource, inLog))
	}
	return breaches
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
// every one of them.
func TestEveryWriterKeepsOneRecordPerRelease(t *testing.T) {
	check := func(t *testing.T, o *bdi.Ontology, wrappers int) {
		t.Helper()
		for _, b := range releaseBreaches(o) {
			t.Error(b)
		}
		if got := len(o.Releases()); got != wrappers {
			t.Errorf("%d releases recorded, want %d", got, wrappers)
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
		n := 0
		for i, src := range []string{"a", "b", "a", "c", "b", "a", "ghost", "a"} {
			sig := mem(fmt.Sprintf("w%d", i), src, "id", fmt.Sprintf("x%d", i)).Signature()
			rel, err := o.RegisterWrapper(src, sig, at.Add(time.Duration(i)*time.Second), func(prev bdi.Release) string {
				return "after " + prev.Signature.Wrapper
			})
			if err == nil {
				n++
				if back, _ := o.ReleaseOf(sig.Wrapper); !reflect.DeepEqual(back, rel) {
					t.Errorf("RegisterWrapper returned %+v, recorded %+v", rel, back)
				}
				if rel.Supersedes != "" && rel.Changes != "after "+rel.Supersedes {
					t.Errorf("release %+v was described against another wrapper", rel)
				}
			} else if src != "ghost" {
				t.Fatal(err)
			}
			check(t, o, n)
		}
		// A released name is refused, whatever it now declares.
		if _, err := o.RegisterWrapper("b", mem("w0", "b", "other").Signature(), at, nil); err == nil {
			t.Error("a released wrapper name was released again")
		}
		check(t, o, n)
	})

	t.Run("release.Manager", func(t *testing.T) {
		o, reg := bdi.New(), wrapper.NewRegistry()
		mgr := release.NewManager(o, reg)
		if err := o.AddDataSource("players", ""); err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, w := range []*wrapper.Mem{
			mem("p1", "players", "id", "pName"),
			mem("p1", "players", "id", "pName"), // duplicate: the registry holds it
			mem("p2", "players", "id", "fullName"),
			mem("p3", "nowhere", "id"),          // unknown source: rolled back
			mem("p2", "players", "id", "other"), // conflict with the record
		} {
			if _, err := mgr.Register(w); err == nil {
				n++
			}
			check(t, o, n)
		}
		if n != 2 {
			t.Fatalf("%d registrations succeeded, want 2", n)
		}
		reg.Remove("p1")
		if _, err := mgr.Register(mem("p1", "players", "pName", "id")); err != nil {
			t.Fatalf("re-attaching a released wrapper: %v", err)
		}
		check(t, o, n)
	})

	// The manager has no lock of its own: numbering and the choice of the
	// superseded wrapper are serialized by the ontology's write lock.
	t.Run("concurrent release.Manager callers", func(t *testing.T) {
		o, reg := bdi.New(), wrapper.NewRegistry()
		mgr := release.NewManager(o, reg)
		sources := []string{"a", "b", "c"}
		for _, src := range sources {
			if err := o.AddDataSource(src, ""); err != nil {
				t.Fatal(err)
			}
		}
		const perSource = 8
		var wg sync.WaitGroup
		for _, src := range sources {
			for v := 0; v < perSource; v++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if _, err := mgr.Register(mem(fmt.Sprintf("%s%d", src, v), src, "id", fmt.Sprintf("x%d", v))); err != nil {
						t.Error(err)
					}
					mgr.Log() // a reader beside the writers
				}()
			}
		}
		wg.Wait()
		check(t, o, len(sources)*perSource)
	})

	t.Run("facade", func(t *testing.T) {
		sys := mdm.New()
		if err := sys.AddSource("players", ""); err != nil {
			t.Fatal(err)
		}
		for v := 1; v <= 4; v++ {
			if _, err := sys.RegisterWrapper(mem(fmt.Sprintf("p%d", v), "players", "id", fmt.Sprintf("x%d", v))); err != nil {
				t.Fatal(err)
			}
			check(t, sys.Ontology(), v)
		}
		again, err := mdm.ImportTriG(sys.ExportTriG())
		if err != nil {
			t.Fatal(err)
		}
		check(t, again.Ontology(), 4)
	})

	t.Run("usecase fixtures", func(t *testing.T) {
		f := usecase.MustNew()
		check(t, f.Ont, 6)
		if err := f.ReleasePlayersV2(); err != nil {
			t.Fatal(err)
		}
		check(t, f.Ont, 7)
		versions, _, _ := usecase.SyntheticVersions(5)
		check(t, versions, 6+4)
		chain, _, _ := usecase.SyntheticChain(4)
		check(t, chain, 3)
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
