package rewrite_test

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"mdm/internal/federate"
	"mdm/internal/rdf"
	"mdm/internal/relalg"
	"mdm/internal/rewrite"
	"mdm/internal/schema"
	"mdm/internal/usecase"
	"mdm/internal/wrapper"
)

// TestCacheRetainedBytes is the heap budget of the rewrite cache: what a
// Rewriter retains for the Figure 8 walk plus the Table 1 nationality
// walk over 16 schema versions of the players API — the two entries the
// omq_evolved benchmark workload keeps resident, each with the program
// its plan runs as — measured the way the benchmark measures heap_mb
// (HeapAlloc after two collections). The uncached Results of the same two
// walks retained 62 KB before the CQs of a union shared sub-plans and
// stopped keeping their algebra strings. When the federation engine kept
// the programs in a map of its own, the two entries and the engine's map
// read 44.4 KB together; the budget stays below that, and the memo that
// holds both, with each program's index lists shared, reads 39.7 KB.
func TestCacheRetainedBytes(t *testing.T) {
	const budget = 43 << 10
	ont, reg, fig8 := usecase.SyntheticVersions(16)
	nationality := usecase.NationalityWalk()

	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	const copies = 40
	rewriters := make([]*rewrite.Rewriter, copies)
	before := heap()
	for i := range rewriters {
		rewriters[i] = rewrite.New(ont, reg)
		for _, w := range []*rewrite.Walk{fig8, nationality} {
			res, err := rewriters[i].Rewrite(w)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.CQs) != 16 || res.Program == nil {
				t.Fatalf("CQs = %d, program %v: want 16 CQs and their program", len(res.CQs), res.Program)
			}
		}
	}
	after := heap()
	runtime.KeepAlive(rewriters)
	if after < before {
		t.Fatalf("heap shrank across the rewrites: %d -> %d", before, after)
	}
	per := (after - before) / copies
	t.Logf("two cached walks retain %d bytes per rewriter", per)
	if per > budget {
		t.Errorf("two cached walks retain %d bytes per rewriter, budget %d", per, budget)
	}
}

// TestCacheKeyDistinguishesWalks: walks that differ in anything a rewrite
// reads — an alias, the order of the projection, a feature filed under a
// concept the walk does not list — get their own answers from a Rewriter
// that has the other walk cached, and equal walks share one Result.
func TestCacheKeyDistinguishesWalks(t *testing.T) {
	f := usecase.MustNew()
	r := rewrite.New(f.Ont, f.Reg)
	cols := func(w *rewrite.Walk) string {
		t.Helper()
		res, err := r.Rewrite(w)
		if err != nil {
			t.Fatal(err)
		}
		return strings.Join(res.OutputColumns, ",")
	}
	if got := cols(usecase.Fig8Walk()); got != "teamName,playerName" {
		t.Fatalf("Figure 8 columns = %s", got)
	}
	aliased := rewrite.NewWalk().
		SelectAs(usecase.Team, usecase.TeamName, "club").
		SelectAs(usecase.Player, usecase.PlayerName, "playerName").
		Relate(usecase.Player, usecase.PlaysIn, usecase.Team)
	if got := cols(aliased); got != "club,playerName" {
		t.Errorf("aliased columns = %s", got)
	}
	reordered := rewrite.NewWalk().
		SelectAs(usecase.Player, usecase.PlayerName, "playerName").
		SelectAs(usecase.Team, usecase.TeamName, "teamName").
		Relate(usecase.Player, usecase.PlaysIn, usecase.Team)
	if got := cols(reordered); got != "playerName,teamName" {
		t.Errorf("reordered columns = %s", got)
	}
	// Validation reads features of unlisted concepts; so must the key.
	stray := usecase.Fig8Walk()
	stray.Features[usecase.League] = []rdf.Term{usecase.Height}
	if _, err := r.Rewrite(stray); err == nil {
		t.Error("a walk with a feature attached to the wrong concept rewrote (served the cached Figure 8 answer?)")
	}

	a, _ := r.Rewrite(usecase.Fig8Walk())
	b, _ := r.Rewrite(usecase.Fig8Walk())
	if a != b {
		t.Error("two equal walks over an unchanged ontology did not share one Result")
	}
}

// TestMemoHoldsProgram: the memo keeps each walk's program beside its
// plan, so two rewrites of one walk share one program, and a release gives
// the walk a new one, whose rows include the new version's.
func TestMemoHoldsProgram(t *testing.T) {
	ctx := context.Background()
	f := usecase.MustNew()
	r := rewrite.New(f.Ont, f.Reg)
	rows := func(res *rewrite.Result) string {
		t.Helper()
		cur, err := federate.NewEngine().RunProgram(ctx, res.Program, federate.RunOpts{Limit: -1, Offset: -1})
		if err != nil {
			t.Fatal(err)
		}
		rel, err := cur.Materialize(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return rel.Table()
	}
	a, err := r.Rewrite(usecase.Fig8Walk())
	if err != nil {
		t.Fatal(err)
	}
	if b, _ := r.Rewrite(usecase.Fig8Walk()); b.Program != a.Program {
		t.Error("two rewrites of one walk over an unchanged ontology hold two programs")
	}
	if strings.Contains(rows(a), "Pedri") {
		t.Fatal("the answer before the release already names the new version's player")
	}

	v2 := wrapper.NewMem("w1_v2", usecase.SrcPlayers, []schema.Doc{{
		"id": relalg.Int(9050), "pName": relalg.String("Pedri"), "height": relalg.Float(174),
		"weight": relalg.Int(132), "score": relalg.Int(84), "foot": relalg.String("right"), "teamId": relalg.Int(25),
	}}, nil)
	if err := f.Reg.Register(v2); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Ont.RegisterWrapper(v2.SourceID(), v2.Signature(), time.Now()); err != nil {
		t.Fatal(err)
	}
	m, ok := f.Ont.MappingOf("w1")
	if !ok {
		t.Fatal("w1 mapping missing")
	}
	m.Wrapper = v2.Name()
	if err := f.Ont.DefineMapping(m); err != nil {
		t.Fatal(err)
	}
	c, err := r.Rewrite(usecase.Fig8Walk())
	if err != nil {
		t.Fatal(err)
	}
	if c.Program == a.Program {
		t.Fatal("the walk kept its program across a release")
	}
	if !strings.Contains(rows(c), "Pedri") {
		t.Errorf("the program after the release does not read w1_v2:\n%s", rows(c))
	}
}

// TestCacheBounded: the memo never holds more than its capacity; the walk
// that would overflow it drops it and starts a new one.
func TestCacheBounded(t *testing.T) {
	f := usecase.MustNew()
	r := rewrite.New(f.Ont, f.Reg)
	for i := 0; i <= rewrite.MaxCached; i++ {
		w := rewrite.NewWalk().SelectAs(usecase.Player, usecase.PlayerName, fmt.Sprint("name", i))
		if _, err := r.Rewrite(w); err != nil {
			t.Fatal(err)
		}
		want := i + 1
		if i == rewrite.MaxCached {
			want = 1
		}
		if got := r.Cached(); got != want {
			t.Fatalf("after %d distinct walks the memo holds %d results, want %d", i+1, got, want)
		}
	}
}

// writingWrapper performs a write to the ontology the first time the
// rewriter asks for its columns, which is in the middle of a rewrite.
type writingWrapper struct {
	wrapper.Wrapper
	write func()
}

func (w *writingWrapper) Columns() []string {
	if w.write != nil {
		w.write()
		w.write = nil
	}
	return w.Wrapper.Columns()
}

// TestRacingWriteNotPublished: a rewrite that a release overtakes may have
// read the ontology from before it, so its result may only be remembered
// under the stamp it started from, never as the answer for the ontology
// after the release.
func TestRacingWriteNotPublished(t *testing.T) {
	f := usecase.MustNew()
	f.Reg.Remove("w2")
	racing := &writingWrapper{Wrapper: f.W2, write: func() {
		if err := f.Ont.AddConcept(rdf.IRI(usecase.EX+"Stadium"), ""); err != nil {
			t.Error(err)
		}
	}}
	if err := f.Reg.Register(racing); err != nil {
		t.Fatal(err)
	}
	r := rewrite.New(f.Ont, f.Reg)
	overtaken, err := r.Rewrite(usecase.Fig8Walk())
	if err != nil {
		t.Fatal(err)
	}
	if racing.write != nil {
		t.Fatal("the rewrite never asked w2 for its columns")
	}
	after, err := r.Rewrite(usecase.Fig8Walk())
	if err != nil {
		t.Fatal(err)
	}
	if after == overtaken {
		t.Error("the overtaken rewrite's result was served after the write")
	}
	if again, _ := r.Rewrite(usecase.Fig8Walk()); again != after {
		t.Error("the first rewrite after the write was not remembered")
	}
}
