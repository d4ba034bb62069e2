package federate_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"mdm/internal/federate"
	"mdm/internal/relalg"
	"mdm/internal/relalg/relalgtest"
	"mdm/internal/rewrite"
	"mdm/internal/schema"
	"mdm/internal/usecase"
	"mdm/internal/wrapper"
)

// downWrapper is a players version whose fetches fail once down is set,
// with an error that is neither retried nor a strike against its breaker.
// Before that it answers empty, which is the answer the oracle gives for
// a missing source.
type downWrapper struct {
	*wrapper.Mem
	down bool
}

func (d *downWrapper) Fetch(context.Context) (*relalg.Relation, error) {
	if d.down {
		return nil, errors.New("source down")
	}
	return relalg.NewRelation(d.Columns()...), nil
}

// TestProgramConcurrentRuns: 8 goroutines run, on one engine at once, the
// program the rewriter's memo holds for the Figure 8 walk over 6 versions
// of the players source — every CQ joining one version to the same teams
// leaf, one build side — reading random pages in partial mode while one
// version is down. Every page equals the oracle's slice of the answer in
// which the down version is empty.
func TestProgramConcurrentRuns(t *testing.T) {
	const versions, goroutines, pages = 6, 8, 25
	ctx := context.Background()
	gen := rand.New(rand.NewSource(1))
	f := usecase.MustNew()
	teams := make([]schema.Doc, 7)
	for i := range teams { // duplicate keys: a probe row meets a chain
		teams[i] = schema.Doc{"id": relalg.Int(int64(i % 5)), "name": relalg.String(fmt.Sprintf("T%d", i)), "shortName": relalg.String(fmt.Sprintf("t%d", i))}
	}
	f.W2.SetDocs(teams)
	players := func() []schema.Doc {
		docs := make([]schema.Doc, 3+gen.Intn(10))
		for i := range docs {
			docs[i] = schema.Doc{
				"id": relalg.Int(int64(i)), "pName": relalg.String(fmt.Sprintf("p%d", gen.Intn(6))),
				"height": relalg.Float(180), "weight": relalg.Int(170), "score": relalg.Int(80),
				"foot": relalg.String("left"), "teamId": relalg.Int(int64(gen.Intn(6))),
			}
		}
		return docs
	}
	f.W1.SetDocs(players())
	mapping, ok := f.Ont.MappingOf("w1")
	if !ok {
		t.Fatal("w1 mapping missing")
	}
	var down *downWrapper
	for v := 2; v <= versions; v++ {
		mapping.Wrapper = fmt.Sprintf("w1_v%d", v)
		var w wrapper.Wrapper = wrapper.NewMem(mapping.Wrapper, usecase.SrcPlayers, players(), nil)
		if v == versions/2 {
			down = &downWrapper{Mem: w.(*wrapper.Mem)}
			w = down
		}
		if err := f.Reg.Register(w); err != nil {
			t.Fatal(err)
		}
		if _, err := f.Ont.RegisterWrapper(w.SourceID(), w.Signature(), time.Now()); err != nil {
			t.Fatal(err)
		}
		if err := f.Ont.DefineMapping(mapping); err != nil {
			t.Fatal(err)
		}
	}
	res, err := rewrite.New(f.Ont, f.Reg).Rewrite(usecase.Fig8Walk())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.CQs) != versions {
		t.Fatalf("CQs = %d, want %d", len(res.CQs), versions)
	}
	want, err := relalgtest.Execute(ctx, res.Plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Rows) == 0 {
		t.Fatal("oracle answer is empty: the test would prove nothing")
	}
	down.down = true

	eng := federate.NewEngine()
	page := func(limit, offset int) error {
		cur, err := eng.RunProgram(ctx, res.Program, federate.RunOpts{Limit: limit, Offset: offset, Partial: true})
		if err != nil {
			return err
		}
		if m := cur.Missing(); len(m) != 1 || m[0].Source != down.Name() {
			return fmt.Errorf("missing %v, want %s alone", m, down.Name())
		}
		got, err := cur.Materialize(ctx)
		if err != nil {
			return err
		}
		wantPage := relalg.NewRelation(want.Cols...)
		if offset < len(want.Rows) {
			end := len(want.Rows)
			if limit >= 0 {
				end = min(offset+limit, end)
			}
			wantPage.Rows = want.Rows[offset:end]
		}
		if g, w := got.Table(), wantPage.Table(); g != w {
			return fmt.Errorf("limit=%d offset=%d: got\n%s\nwant\n%s", limit, offset, g, w)
		}
		return nil
	}
	if err := page(-1, 0); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(r *rand.Rand) {
			defer wg.Done()
			for i := 0; i < pages; i++ {
				limit := r.Intn(len(want.Rows)+2) - 1 // -1: unbounded
				if err := page(limit, r.Intn(len(want.Rows)+2)); err != nil {
					errs <- err
					return
				}
			}
		}(rand.New(rand.NewSource(int64(g))))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
