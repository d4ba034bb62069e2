package mdm_test

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"mdm"
	"mdm/internal/obs"
	"mdm/internal/relalg"
	"mdm/internal/schema"
	"mdm/internal/usecase"
	"mdm/internal/wrapper"
)

// TestWalksDuringReleases runs walks on several goroutines while another
// performs release cycles (register, define the mapping, compact) on a
// persistent system. Release v adds one player nobody else serves, so
// the answers have closed forms: the Figure 8 walk returns 5+k rows from
// 1+k CQs and the nationality walk 2 rows from 1+k CQs, where k is the
// number of releases the rewrite saw — at least those committed before
// the request started (a stale cached plan would fall short), at most
// those begun before it ended.
func TestWalksDuringReleases(t *testing.T) {
	const releases, readers = 8, 4
	sys, err := mdm.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if _, err := usecase.NewOn(sys.Ontology(), sys.Wrappers()); err != nil {
		t.Fatal(err)
	}
	base, ok := sys.Ontology().MappingOf("w1")
	if !ok {
		t.Fatal("w1 mapping missing")
	}

	var begun, committed, answered atomic.Int64
	ctx := context.Background()
	walks := []struct {
		walk     *mdm.Walk
		baseRows int64
		perCQ    int64 // rows each release adds
	}{
		{usecase.Fig8Walk(), 5, 1},
		{usecase.NationalityWalk(), 2, 0},
	}
	check := func(i int) error {
		w := walks[i%len(walks)]
		lo := committed.Load()
		cur, res, err := sys.QueryRun(ctx, w.walk, mdm.QueryOpts{Limit: -1, Offset: -1})
		if err != nil {
			return err
		}
		defer cur.Close()
		for cur.Next(ctx) {
		}
		if err := cur.Err(); err != nil {
			return err
		}
		hi := begun.Load()
		k := int64(len(res.CQs)) - 1
		if k < lo || k > hi {
			return fmt.Errorf("walk %d: %d release CQs; %d releases were committed before the request, %d begun by its end", i%len(walks), k, lo, hi)
		}
		if want := w.baseRows + k*w.perCQ; cur.Rows() != want {
			return fmt.Errorf("walk %d: %d rows from %d release CQs, want %d", i%len(walks), cur.Rows(), k, want)
		}
		answered.Add(1)
		return nil
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := check(i); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	for v := 1; v <= releases; v++ {
		begun.Add(1)
		docs := append(usecase.PlayersV1Docs(), schema.Doc{
			"id": relalg.Int(int64(9100 + v)), "pName": relalg.String(fmt.Sprint("Release Player ", v)),
			"height": relalg.Float(180), "weight": relalg.Int(170), "score": relalg.Int(80),
			"foot": relalg.String("left"), "teamId": relalg.Int(25),
		})
		name := fmt.Sprintf("w1_r%d", v)
		if _, err := sys.RegisterWrapper(wrapper.NewMem(name, usecase.SrcPlayers, docs, nil)); err != nil {
			t.Fatal(err)
		}
		m := base
		m.Wrapper = name
		if err := sys.DefineMapping(m); err != nil {
			t.Fatal(err)
		}
		if err := sys.Storage().Compact(); err != nil {
			t.Fatal(err)
		}
		committed.Add(1)
		// Let the release be read before the next one lands.
		for i := 0; i < len(walks); i++ {
			if err := check(i); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	wg.Wait()
	t.Logf("%d walks answered during %d releases", answered.Load(), releases)

	// Nothing changes any more: concurrent requests for one walk are all
	// handed the Result the first of them left behind.
	_, warm, err := sys.Query(ctx, walks[0].walk)
	if err != nil {
		t.Fatal(err)
	}
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, res, err := sys.Query(ctx, walks[0].walk); err != nil || res != warm {
				t.Errorf("concurrent hit: result %p (err %v), want the shared %p", res, err, warm)
			}
		}()
	}
	wg.Wait()
}

// TestRewriteMemoSurvivesCompaction: a storage rewrite changes files, not
// the dataset the rewriter's stamp reads, so the walk it answered before
// the compaction is a cache hit after it.
func TestRewriteMemoSurvivesCompaction(t *testing.T) {
	sys, err := mdm.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if _, err := usecase.NewOn(sys.Ontology(), sys.Wrappers()); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, _, err := sys.Query(ctx, usecase.Fig8Walk()); err != nil {
		t.Fatal(err)
	}
	if err := sys.Storage().Compact(); err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTrace()
	rel, _, err := sys.Query(obs.WithTrace(ctx, tr), usecase.Fig8Walk())
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.Attrs()["rewrite_cache"]; got != "hit" {
		t.Errorf("rewrite_cache after a compaction = %q, want hit", got)
	}
	if rel.Len() != 5 {
		t.Errorf("Fig. 8 walk after a compaction: %d rows, want 5", rel.Len())
	}
}
