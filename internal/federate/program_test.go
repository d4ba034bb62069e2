package federate

import (
	"context"
	"errors"
	"testing"

	"mdm/internal/relalg"
	"mdm/internal/relalg/relalgtest"
	"mdm/internal/schema"
	"mdm/internal/wrapper"
)

// TestPrepareSharesBuildSides pins what a build slot is: one per distinct
// (prepared build node, key columns). A rename prepares through to its
// child, so a build side under a renaming is the same side.
func TestPrepareSharesBuildSides(t *testing.T) {
	x := relalg.NewScan(relalgtest.NewMemSource("x", relalg.NewRelation("a", "b")))
	y := relalg.NewScan(relalgtest.NewMemSource("y", relalg.NewRelation("a", "b")))
	on := func(l, r string) [][2]string { return [][2]string{{l, r}} }
	for _, tc := range []struct {
		plan  relalg.Plan
		slots int
	}{
		{relalg.NewJoin(x, y, on("a", "a")), 1},
		// The evolved walk's shape: one build side under every union branch.
		{relalg.NewUnion(relalg.NewJoin(x, y, on("a", "a")), relalg.NewJoin(relalg.NewDistinct(x), y, on("a", "a"))), 1},
		{relalg.NewJoin(x, x, on("a", "a")), 1},
		{relalg.NewJoin(relalg.NewJoin(x, y, on("a", "a")), relalg.NewRename(y, [][2]string{{"b", "c"}}), on("a", "a")), 1},
		// One build node under two key lists.
		{relalg.NewJoin(relalg.NewJoin(x, y, on("a", "a")), y, on("b", "b")), 2},
		{relalg.NewUnion(relalg.NewJoin(x, y, on("a", "a")), relalg.NewJoin(y, x, on("a", "a"))), 2},
	} {
		prog, err := Prepare(tc.plan)
		if err != nil {
			t.Fatalf("%s: %v", relalg.Algebra(tc.plan), err)
		}
		if len(prog.slots) != tc.slots {
			t.Errorf("%s: %d build slots, want %d", relalg.Algebra(tc.plan), len(prog.slots), tc.slots)
		}
	}
}

// failOnce is a build side whose drain fails on the first pull and would
// come back empty on the next.
type failOnce struct{ pulls int }

var errDrain = errors.New("drain failed")

func (f *failOnce) next(context.Context) (relalg.Row, error) {
	f.pulls++
	if f.pulls == 1 {
		return nil, errDrain
	}
	return nil, nil
}

// TestBuildErrorSticks: a table whose drain failed answers every later
// join of the run with that error instead of draining again.
func TestBuildErrorSticks(t *testing.T) {
	src := &failOnce{}
	tab := &table{src: src}
	for i := 0; i < 2; i++ {
		if err := tab.build(context.Background()); !errors.Is(err, errDrain) {
			t.Fatalf("build %d: %v, want %v", i, err, errDrain)
		}
	}
	if src.pulls != 1 {
		t.Errorf("build side pulled %d times, want 1", src.pulls)
	}
}

// TestBuildBorrowsOnlyScans: a join whose build side is a snapshot scan
// keys the snapshot's own rows; one whose build side is any other
// operator keys copies, because that operator overwrites one row per
// pull. Either way a canceled run stops in the key pass.
func TestBuildBorrowsOnlyScans(t *testing.T) {
	ctx := context.Background()
	rel := relalg.NewRelation("k", "v")
	for i := range 2 * pollEvery {
		rel.MustAppend(relalg.Row{relalg.Int(int64(i % 3)), relalg.Int(int64(i))})
	}
	probe := relalg.NewRelation("a")
	probe.MustAppend(relalg.Row{relalg.Int(1)})
	l := relalg.NewScan(relalgtest.NewMemSource("l", probe))
	r := relalg.NewScan(relalgtest.NewMemSource("r", rel))
	on := [][2]string{{"a", "k"}}
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	for _, tc := range []struct {
		build  relalg.Plan
		borrow bool
	}{
		{r, true},
		{relalg.NewProject(relalg.NewRename(r, [][2]string{{"v", "w"}}), "w", "k"), false},
	} {
		prog, err := Prepare(relalg.NewJoin(l, tc.build, on))
		if err != nil {
			t.Fatal(err)
		}
		bind := func() *joinIter {
			it, err := prog.bind([]*relalg.Relation{probe, rel})
			if err != nil {
				t.Fatal(err)
			}
			return it.(*joinIter)
		}
		if _, err := bind().next(canceled); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: canceled build: %v, want %v", relalg.Algebra(tc.build), err, context.Canceled)
		}
		j := bind()
		if _, err := j.next(ctx); err != nil {
			t.Fatal(err)
		}
		rows := j.tab.rows
		if len(rows) != len(rel.Rows) {
			t.Fatalf("%s: table holds %d rows, want %d", relalg.Algebra(tc.build), len(rows), len(rel.Rows))
		}
		if borrowed := &rows[0][0] == &rel.Rows[0][0]; borrowed != tc.borrow {
			t.Errorf("%s: build rows borrowed = %v, want %v", relalg.Algebra(tc.build), borrowed, tc.borrow)
		}
	}
}

// TestProjectScanErrorNamesFetchedLayout: a projection over a scan keeps
// an error per layout its snapshot may come in. A column the source lacks
// fails both, but a source that honours the request (wrapper.Mem) returns
// the union of two projections' lists, and the error names that layout,
// not the signature that a source ignoring the request (MemSource) returns.
func TestProjectScanErrorNamesFetchedLayout(t *testing.T) {
	ctx := context.Background()
	rel := relalg.NewRelation("a", "b", "c")
	rel.MustAppend(relalg.Row{relalg.Int(1), relalg.Int(2), relalg.Int(3)})
	for _, tc := range []struct {
		kind srcKind
		want string
	}{
		{ignoring, `federate: unknown column "x" (have [a b c])`},
		{honouring, `federate: unknown column "x" (have [a b])`},
	} {
		w := relalg.NewScan(source("w", rel, tc.kind))
		plan := relalg.NewJoin(relalg.NewProject(w, "a", "x"),
			relalg.NewRename(relalg.NewProject(w, "b", "a"), [][2]string{{"a", "a2"}}), [][2]string{{"a", "a2"}})
		prog, err := Prepare(plan)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := NewEngine().RunProgram(ctx, prog, RunOpts{Limit: -1, Offset: -1}); err == nil || err.Error() != tc.want {
			t.Errorf("%s source: run error %v, want %s", tc.kind, err, tc.want)
		}
	}
}

// TestProgramRebindsSnapshots: the second run of a kept program answers
// from its own snapshots, so no build table outlives the run that built
// it: a source's data changes between two runs of one plan, and each
// answer is the oracle's over the data of its run.
func TestProgramRebindsSnapshots(t *testing.T) {
	ctx := context.Background()
	teamDocs := func(names ...string) []schema.Doc {
		docs := make([]schema.Doc, len(names))
		for i, n := range names {
			docs[i] = schema.Doc{"tid": relalg.Int(int64(i % 2)), "tname": relalg.String(n)}
		}
		return docs
	}
	teams := wrapper.NewMem("teams", "t", teamDocs("A", "B"), []schema.Attribute{{Name: "tid"}, {Name: "tname"}})
	right := relalg.NewProject(relalg.NewScan(teams), "tid", "tname")
	p := relalg.NewRelation("pid", "team")
	p.MustAppend(relalg.Row{relalg.Int(7), relalg.Int(0)})
	p.MustAppend(relalg.Row{relalg.Int(8), relalg.Int(1)})
	on := [][2]string{{"team", "tid"}}
	plan := relalg.NewUnion(
		relalg.NewJoin(relalg.NewScan(relalgtest.NewMemSource("p1", p)), right, on),
		relalg.NewJoin(relalg.NewScan(relalgtest.NewMemSource("p2", p)), right, on))
	eng := NewEngine()
	prog, err := Prepare(plan)
	if err != nil {
		t.Fatal(err)
	}
	for _, names := range [][]string{{"A", "B"}, {"C", "D", "E"}} {
		teams.SetDocs(teamDocs(names...))
		want, err := relalgtest.Execute(ctx, plan)
		if err != nil {
			t.Fatal(err)
		}
		if err := agree(ctx, eng, prog, want, 1, 1); err != nil {
			t.Errorf("teams %v: %v", names, err)
		}
	}
}
