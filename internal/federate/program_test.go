package federate

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
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
		prog, err := prepare(tc.plan)
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

// TestProgramRebindsSnapshots: the second run of a cached program answers
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
	for _, names := range [][]string{{"A", "B"}, {"C", "D", "E"}} {
		teams.SetDocs(teamDocs(names...))
		want, err := relalgtest.Execute(ctx, plan)
		if err != nil {
			t.Fatal(err)
		}
		if err := agree(ctx, eng, plan, want, 1, 1); err != nil {
			t.Errorf("teams %v: %v", names, err)
		}
	}
}

// downSource fails every fetch with an error that is neither retried nor
// a strike against its breaker.
type downSource struct {
	name string
	cols []string
}

func (d *downSource) Name() string      { return d.name }
func (d *downSource) Columns() []string { return d.cols }
func (d *downSource) Fetch(context.Context) (*relalg.Relation, error) {
	return nil, errors.New("source down")
}

// TestProgramConcurrentRuns: 8 goroutines run one cached plan on one
// engine at once — the evolved walk's shape, every union branch joining
// the same build side — reading random pages in partial mode while one
// source is down. Every page equals the oracle's slice of the answer in
// which the down source is empty.
func TestProgramConcurrentRuns(t *testing.T) {
	const versions, goroutines, pages = 6, 8, 25
	ctx := context.Background()
	gen := rand.New(rand.NewSource(1))
	teams := relalg.NewRelation("tid", "tname", "league")
	for i := 0; i < 7; i++ { // duplicate keys: a probe row meets a chain
		teams.MustAppend(relalg.Row{relalg.Int(int64(i % 5)), relalg.String(fmt.Sprintf("T%d", i)), relalg.Int(int64(i % 2))})
	}
	players := make([]*relalg.Relation, versions)
	for v := range players {
		players[v] = relalg.NewRelation("id", "name", "team")
		for i, n := 0, 3+gen.Intn(10); i < n; i++ {
			players[v].MustAppend(relalg.Row{relalg.Int(int64(i)), relalg.String(fmt.Sprintf("p%d", gen.Intn(6))), relalg.Int(int64(gen.Intn(6)))})
		}
	}
	const down = 3
	build := func(oracle bool) relalg.Plan {
		kind := func(v int) srcKind {
			if oracle {
				return ignoring
			}
			return srcKinds[v%len(srcKinds)]
		}
		right := relalg.NewRename(relalg.NewProject(relalg.NewScan(source("teams", teams, kind(1))), "tid", "tname"),
			[][2]string{{"tid", "team"}})
		branches := make([]relalg.Plan, versions)
		for v := range branches {
			name := fmt.Sprintf("players_v%d", v)
			src := source(name, players[v], kind(v))
			switch {
			case v == down && oracle:
				src = relalgtest.NewMemSource(name, relalg.NewRelation(players[v].Cols...))
			case v == down:
				src = &downSource{name: name, cols: players[v].Cols}
			}
			left := relalg.NewProject(relalg.NewScan(src), "name", "team")
			branches[v] = relalg.NewJoin(left, right, [][2]string{{"team", "team"}})
		}
		return relalg.NewDistinct(relalg.NewUnion(branches...))
	}
	want, err := relalgtest.Execute(ctx, build(true))
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Rows) == 0 {
		t.Fatal("oracle answer is empty: the test would prove nothing")
	}

	plan, eng := build(false), NewEngine()
	page := func(limit, offset int) error {
		cur, err := eng.RunWith(ctx, plan, RunOpts{Limit: limit, Offset: offset, Partial: true})
		if err != nil {
			return err
		}
		if m := cur.Missing(); len(m) != 1 || m[0].Source != fmt.Sprintf("players_v%d", down) {
			return fmt.Errorf("missing %v, want players_v%d alone", m, down)
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
		if err := sameResult(wantPage, got); err != nil {
			return fmt.Errorf("limit=%d offset=%d: %w", limit, offset, err)
		}
		return nil
	}
	if err := page(-1, 0); err != nil { // prepares the program
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
	if n := len(eng.progs); n != 1 {
		t.Errorf("engine holds %d programs, want 1", n)
	}
}
