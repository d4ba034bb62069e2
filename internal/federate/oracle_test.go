package federate

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"mdm/internal/relalg"
	"mdm/internal/relalg/relalgtest"
	"mdm/internal/schema"
	"mdm/internal/wrapper"
)

// Randomized equivalence harness: every generated plan is executed
// through the materializing executor (relalgtest.Execute — the
// correctness oracle) and through the streaming federate engine, and the
// results must be identical — same schema, same rows, same ORDER (the
// streaming pipeline is documented to reproduce Execute's emission
// order exactly, which is what makes paged reads prefixes of the full
// drain). The engine runs each plan over three kinds of source: ones that
// ignore the columns a fetch asks for (relalgtest.MemSource, the
// un-pushed path), ones that honour them (wrapper.Mem, the pushed path),
// and ones that do either on alternate fetches, as generated and after
// relalg.Optimize, which is what puts the projections on the scans. Every
// plan is prepared once and its program runs twice on one engine, so the
// second run binds what the first one bound. Generated plans are DAGs as
// the rewriter's are: nodes are reused as build sides, self-joined, and
// shared between union branches. Each case additionally drains a random
// page and asserts it equals the corresponding slice of the full result.
// Generation is seeded, so failures reproduce by seed number.

const oraclePlans = 250

// --- value / relation generation ---

var colPool = []string{"a", "b", "c", "d", "e", "f"}

func genValue(r *rand.Rand) relalg.Value {
	switch r.Intn(9) {
	case 0:
		return relalg.Null()
	case 1:
		return relalg.Bool(r.Intn(2) == 0)
	case 2:
		return relalg.Float(float64(r.Intn(4)) + 0.5)
	case 3, 4:
		return relalg.Int(int64(r.Intn(5)))
	case 5: // where text and bits disagree with arithmetic: -0 = Int(0), any NaN is one key
		return relalg.Float([]float64{math.Copysign(0, -1), math.NaN()}[r.Intn(2)])
	default:
		return relalg.String([]string{"x", "y", "z", ""}[r.Intn(4)])
	}
}

func genCols(r *rand.Rand) []string {
	perm := r.Perm(len(colPool))
	n := 2 + r.Intn(3)
	cols := make([]string, n)
	for i := 0; i < n; i++ {
		cols[i] = colPool[perm[i]]
	}
	return cols
}

func genRelation(r *rand.Rand, cols []string) *relalg.Relation {
	rel := relalg.NewRelation(cols...)
	for i, n := 0, r.Intn(13); i < n; i++ {
		row := make(relalg.Row, len(cols))
		for j := range row {
			row[j] = genValue(r)
		}
		rel.Rows = append(rel.Rows, row)
	}
	return rel
}

// --- plan generation ---

type planGen struct {
	r    *rand.Rand
	nsrc int
	nren int
	kind srcKind
	made []relalg.Plan // every node built so far, for reuse
}

// srcKind is how a generated source answers the columns a fetch asks for.
type srcKind int

const (
	ignoring  srcKind = iota // the whole signature, whatever is asked
	honouring                // exactly the columns asked
	flipping                 // honouring on odd fetches, ignoring on even ones
)

var srcKinds = []srcKind{ignoring, honouring, flipping}

func (k srcKind) String() string { return [...]string{"ignoring", "honouring", "flipping"}[k] }

// source serves rel whole whatever is asked (relalgtest.MemSource), or
// through wrapper.Mem, which narrows to the request — on every fetch, or
// on every other one.
func source(name string, rel *relalg.Relation, kind srcKind) relalg.RowSource {
	if kind == ignoring {
		return relalgtest.NewMemSource(name, rel)
	}
	attrs := make([]schema.Attribute, len(rel.Cols))
	for i, c := range rel.Cols {
		attrs[i].Name = c
	}
	docs := make([]schema.Doc, len(rel.Rows))
	for r, row := range rel.Rows {
		docs[r] = schema.Doc{}
		for i, c := range rel.Cols {
			docs[r][c] = row[i]
		}
	}
	mem := wrapper.NewMem(name, "oracle", docs, attrs)
	if kind == flipping {
		return &flipSource{RowSource: mem}
	}
	return mem
}

// flipSource honours the column request on one fetch and ignores it on
// the next, so one cached program meets both layouts a snapshot may have.
type flipSource struct {
	relalg.RowSource
	fetches atomic.Int64
}

func (f *flipSource) Fetch(ctx context.Context) (*relalg.Relation, error) {
	if f.fetches.Add(1)%2 == 0 {
		ctx = relalg.WithColumns(ctx, nil)
	}
	return f.RowSource.Fetch(ctx)
}

func (g *planGen) scan(cols []string) relalg.Plan {
	g.nsrc++
	return relalg.NewScan(source(fmt.Sprintf("src%d", g.nsrc), genRelation(g.r, cols), g.kind))
}

func (g *planGen) leaf() relalg.Plan { return g.scan(genCols(g.r)) }

// plan builds a random operator DAG of bounded depth out of the six
// operators the rewriters emit. Generated plans are always well-formed
// (projections and join keys reference existing columns, union branches
// share one schema), as the rewriters' are; their nesting is arbitrary,
// which the rewriters' is not. Nodes are shared the ways the rewriter
// shares them and beyond: a build side under joins in several union
// branches, a self-join, one build side under two key lists, one node as
// a union branch and a build side, and any earlier node as a build side.
func (g *planGen) plan(depth int) relalg.Plan {
	p := g.node(depth)
	g.made = append(g.made, p)
	return p
}

// reuse returns, one time in three, a node built earlier, else a new one.
func (g *planGen) reuse(depth int) relalg.Plan {
	if len(g.made) > 0 && g.r.Intn(3) == 0 {
		return g.made[g.r.Intn(len(g.made))]
	}
	return g.plan(depth)
}

// on draws 1-2 random equi-join column pairs between l and r.
func (g *planGen) on(l, r relalg.Plan) [][2]string {
	lc, rc := l.Columns(), r.Columns()
	on := make([][2]string, 1+g.r.Intn(2))
	for i := range on {
		on[i] = [2]string{lc[g.r.Intn(len(lc))], rc[g.r.Intn(len(rc))]}
	}
	return on
}

func (g *planGen) node(depth int) relalg.Plan {
	if depth <= 0 || g.r.Intn(4) == 0 {
		return g.leaf()
	}
	switch g.r.Intn(9) {
	case 0: // projection: non-empty shuffled subset
		child := g.plan(depth - 1)
		cols := child.Columns()
		perm := g.r.Perm(len(cols))
		n := 1 + g.r.Intn(len(cols))
		keep := make([]string, n)
		for i := 0; i < n; i++ {
			keep[i] = cols[perm[i]]
		}
		return relalg.NewProject(child, keep...)
	case 1: // rename one column to a fresh name (Optimize resolves by name)
		child := g.plan(depth - 1)
		cols := child.Columns()
		from := cols[g.r.Intn(len(cols))]
		g.nren++
		return relalg.NewRename(child, [][2]string{{from, fmt.Sprintf("r%d", g.nren)}})
	case 2: // equi-join, sometimes building on an earlier node
		l, rr := g.plan(depth-1), g.reuse(depth-1)
		return relalg.NewJoin(l, rr, g.on(l, rr))
	case 3: // union: the first branch again, or scans sharing its schema
		first := g.plan(depth - 1)
		plans := []relalg.Plan{first}
		for i, n := 0, 1+g.r.Intn(2); i < n; i++ {
			if g.r.Intn(3) == 0 {
				plans = append(plans, first)
			} else {
				plans = append(plans, g.scan(first.Columns()))
			}
		}
		return relalg.NewUnion(plans...)
	case 4: // distinct
		return relalg.NewDistinct(g.plan(depth - 1))
	case 5: // one build side under joins in several union branches
		build, first := g.plan(depth-1), g.plan(depth-1)
		on := g.on(first, build)
		plans := []relalg.Plan{relalg.NewJoin(first, build, on)}
		for i, n := 0, 1+g.r.Intn(2); i < n; i++ {
			plans = append(plans, relalg.NewJoin(g.scan(first.Columns()), build, on))
		}
		return relalg.NewUnion(plans...)
	case 6: // self-join
		x := g.plan(depth - 1)
		return relalg.NewJoin(x, x, g.on(x, x))
	case 7: // one build side under two key lists
		x, l := g.plan(depth-1), g.plan(depth-1)
		inner := relalg.NewJoin(l, x, g.on(l, x))
		return relalg.NewJoin(inner, x, g.on(inner, x))
	default: // one node as a union branch and as a build side: a left
		// input of x's schema keeps the join's schema x's
		x := g.plan(depth - 1)
		return relalg.NewUnion(x, relalg.NewJoin(g.scan(x.Columns()), x, g.on(x, x)))
	}
}

// --- comparison ---

func rowsEqual(a, b relalg.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if relalgtest.Key(a[i]) != relalgtest.Key(b[i]) {
			return false
		}
	}
	return true
}

// sameResult reports how got departs from want: schema, row count, or the
// first row that differs.
func sameResult(want, got *relalg.Relation) error {
	if !slices.Equal(want.Cols, got.Cols) {
		return fmt.Errorf("cols %v vs %v", want.Cols, got.Cols)
	}
	if len(want.Rows) != len(got.Rows) {
		return fmt.Errorf("%d rows vs %d rows\noracle:\n%s\nfederate:\n%s",
			len(want.Rows), len(got.Rows), want.Table(), got.Table())
	}
	for i := range want.Rows {
		if !rowsEqual(want.Rows[i], got.Rows[i]) {
			return fmt.Errorf("row %d differs\noracle:\n%s\nfederate:\n%s", i, want.Table(), got.Table())
		}
	}
	return nil
}

// agree runs prog on eng — whole, then the page [offset, offset+limit) —
// and reports the first departure from want, the oracle's answer.
func agree(ctx context.Context, eng *Engine, prog *Program, want *relalg.Relation, limit, offset int) error {
	cur, err := eng.RunProgram(ctx, prog, RunOpts{Limit: -1, Offset: -1})
	if err != nil {
		return fmt.Errorf("run: %w", err)
	}
	got, err := cur.Materialize(ctx)
	if err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if err := sameResult(want, got); err != nil {
		return fmt.Errorf("full drain: %w", err)
	}
	pcur, err := eng.RunProgram(ctx, prog, RunOpts{Limit: limit, Offset: offset})
	if err != nil {
		return fmt.Errorf("page: %w", err)
	}
	page, err := pcur.Materialize(ctx)
	if err != nil {
		return fmt.Errorf("page drain: %w", err)
	}
	wantPage := relalg.NewRelation(want.Cols...)
	if offset < len(want.Rows) {
		wantPage.Rows = want.Rows[offset:min(offset+limit, len(want.Rows))]
	}
	if err := sameResult(wantPage, page); err != nil {
		return fmt.Errorf("page limit=%d offset=%d: %w", limit, offset, err)
	}
	return nil
}

// threeWays holds the engine to the oracle on one plan, built by build
// over each kind of source. Each kind gets one engine, which runs the
// optimized plan and then the raw one, each prepared once and run twice:
// the second run binds the program the first one bound.
func threeWays(ctx context.Context, build func(kind srcKind) relalg.Plan, limit, offset func(rows int) int) error {
	want, err := relalgtest.Execute(ctx, build(ignoring))
	if err != nil {
		return fmt.Errorf("oracle execute: %w", err)
	}
	for _, kind := range srcKinds {
		plan := build(kind)
		eng := NewEngine()
		for _, p := range []relalg.Plan{relalg.Optimize(plan), plan} {
			prog, err := Prepare(p)
			if err != nil {
				return fmt.Errorf("%s sources, %s: prepare: %w", kind, relalg.Algebra(p), err)
			}
			for run := 1; run <= 2; run++ {
				if err := agree(ctx, eng, prog, want, limit(len(want.Rows)), offset(len(want.Rows))); err != nil {
					return fmt.Errorf("%s sources, run %d, %s: %w", kind, run, relalg.Algebra(p), err)
				}
			}
		}
	}
	return nil
}

// TestFederateMatchesExecuteOracle is the randomized equivalence
// harness (run under -race in CI: the scatter phase exercises the
// engine's concurrency on every case).
func TestFederateMatchesExecuteOracle(t *testing.T) {
	ctx := context.Background()
	base := time.Now().UnixNano()
	for i := 0; i < oraclePlans; i++ {
		seed := base + int64(i)
		build := func(kind srcKind) relalg.Plan {
			g := &planGen{r: rand.New(rand.NewSource(seed)), kind: kind}
			return g.plan(3)
		}
		r := rand.New(rand.NewSource(seed))
		bound := func(rows int) int { return r.Intn(rows + 2) }
		if err := threeWays(ctx, build, bound, bound); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestFederateOracleEdgeCases pins deterministic shapes the random
// generator may under-sample.
func TestFederateOracleEdgeCases(t *testing.T) {
	ctx := context.Background()
	lhs := relalg.NewRelation("a", "b")
	lhs.MustAppend(relalg.Row{relalg.Int(1), relalg.String("x")})
	lhs.MustAppend(relalg.Row{relalg.Null(), relalg.String("y")}) // NULL key never joins
	lhs.MustAppend(relalg.Row{relalg.Int(1), relalg.String("x")}) // duplicate
	rhs := relalg.NewRelation("k", "c")
	rhs.MustAppend(relalg.Row{relalg.Int(1), relalg.String("p")})
	rhs.MustAppend(relalg.Row{relalg.Int(1), relalg.String("q")}) // duplicate key: fan-out
	rhs.MustAppend(relalg.Row{relalg.Null(), relalg.String("n")})
	wide := relalg.NewRelation("a", "b", "c", "d")
	wide.MustAppend(relalg.Row{relalg.Int(1), relalg.String("x"), relalg.String("p"), relalg.Int(7)})
	wide.MustAppend(relalg.Row{relalg.Int(2), relalg.String("y"), relalg.Null(), relalg.Int(8)})
	// A two-column key whose second cell is NULL, directly before a row
	// that matches: the first cell's key bytes must not reach the next key.
	pairs := relalg.NewRelation("k", "m", "c")
	pairs.MustAppend(relalg.Row{relalg.Int(1), relalg.Null(), relalg.String("n")})
	pairs.MustAppend(relalg.Row{relalg.Int(1), relalg.String("x"), relalg.String("p")})
	pairs.MustAppend(relalg.Row{relalg.Int(1), relalg.String("x"), relalg.String("q")})
	// A build side that is no scan: duplicate and distinct keys, and a NULL.
	drawn := relalg.NewRelation("c", "k", "d")
	drawn.MustAppend(relalg.Row{relalg.String("p"), relalg.Int(1), relalg.Int(7)})
	drawn.MustAppend(relalg.Row{relalg.String("q"), relalg.Int(2), relalg.Int(8)})
	drawn.MustAppend(relalg.Row{relalg.String("r"), relalg.Int(1), relalg.Int(9)})
	drawn.MustAppend(relalg.Row{relalg.String("s"), relalg.Null(), relalg.Int(9)})

	plans := func(kind srcKind) []relalg.Plan {
		empty := relalg.NewScan(source("empty", relalg.NewRelation("a", "b"), kind))
		l := relalg.NewScan(source("l", lhs, kind))
		rr := relalg.NewScan(source("r", rhs, kind))
		w := relalg.NewScan(source("w", wide, kind))
		return []relalg.Plan{
			empty,
			relalg.NewJoin(l, rr, [][2]string{{"a", "k"}}),
			relalg.NewDistinct(relalg.NewJoin(l, rr, [][2]string{{"a", "k"}})),
			relalg.NewUnion(l, relalg.NewScan(source("l2", lhs, kind))),
			relalg.NewProject(relalg.NewRename(l, [][2]string{{"b", "bb"}}), "bb"),
			// Same wrapper scanned twice (self-join): the scatter dedupes.
			relalg.NewJoin(l, relalg.NewRename(l, [][2]string{{"b", "b2"}}), [][2]string{{"a", "a"}}),
			// ... under two projections: one fetch of their union a,b,c (in
			// source order), which neither projection is the identity on.
			relalg.NewJoin(relalg.NewProject(w, "b", "a"),
				relalg.NewRename(relalg.NewProject(w, "c", "a"), [][2]string{{"a", "a2"}}), [][2]string{{"a", "a2"}}),
			// ... whose union is the whole signature, and beside a bare scan:
			// both fetch it whole.
			relalg.NewJoin(relalg.NewProject(w, "a", "b"),
				relalg.NewRename(relalg.NewProject(w, "a", "c", "d"), [][2]string{{"a", "a2"}}), [][2]string{{"a", "a2"}}),
			relalg.NewJoin(relalg.NewProject(w, "a"),
				relalg.NewRename(w, [][2]string{{"a", "a2"}, {"b", "b2"}}), [][2]string{{"a", "a2"}}),
			// The request's order, not the signature's, is what comes back.
			relalg.NewProject(w, "d", "a"),
			// A build side on the snapshot's own rows, keyed on two columns.
			relalg.NewJoin(l, relalg.NewScan(source("pairs", pairs, kind)), [][2]string{{"a", "k"}, {"b", "m"}}),
			// A build side drained through a projection that reorders and
			// drops columns; unoptimized, the rename keeps it off the scan.
			relalg.NewJoin(l, relalg.NewProject(relalg.NewRename(relalg.NewScan(source("drawn", drawn, kind)),
				[][2]string{{"d", "dd"}}), "k", "c"), [][2]string{{"a", "k"}}),
		}
	}
	for i := range plans(ignoring) {
		build := func(kind srcKind) relalg.Plan { return plans(kind)[i] }
		whole := func(rows int) int { return rows }
		if err := threeWays(ctx, build, whole, func(int) int { return 0 }); err != nil {
			t.Errorf("case %d: %v", i, err)
		}
	}
}

// TestNegativeZeroJoinsAndDedupes: -0 equals 0 (relalg.Equal), so ⋈ and
// δ must agree, in both executors.
func TestNegativeZeroJoinsAndDedupes(t *testing.T) {
	ctx := context.Background()
	lhs := relalg.NewRelation("a")
	lhs.MustAppend(relalg.Row{relalg.Float(math.Copysign(0, -1))})
	lhs.MustAppend(relalg.Row{relalg.Float(0)})
	rhs := relalg.NewRelation("k")
	rhs.MustAppend(relalg.Row{relalg.Int(0)})
	l := relalg.NewScan(relalgtest.NewMemSource("l", lhs))
	r := relalg.NewScan(relalgtest.NewMemSource("r", rhs))
	for _, c := range []struct {
		plan relalg.Plan
		rows int
	}{
		{relalg.NewJoin(l, r, [][2]string{{"a", "k"}}), 2},
		{relalg.NewDistinct(l), 1},
	} {
		want, err := relalgtest.Execute(ctx, c.plan)
		if err != nil {
			t.Fatal(err)
		}
		cur, err := NewEngine().Run(ctx, c.plan)
		if err != nil {
			t.Fatal(err)
		}
		got, err := cur.Materialize(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if len(want.Rows) != c.rows || len(got.Rows) != c.rows {
			t.Errorf("%s: oracle %d rows, federate %d rows, want %d", relalg.Algebra(c.plan), len(want.Rows), len(got.Rows), c.rows)
		}
	}
}

// TestOperatorClosure takes each node kind of the closed relalg.Plan sum
// through its four consumers — Algebra, Optimize, Prepare/bind and the
// reference executor — and requires one answer. An operator added to
// relalg gets a row here, and the consumer that was not taught it fails
// in this test rather than in a served walk.
func TestOperatorClosure(t *testing.T) {
	ctx := context.Background()
	lhs := relalg.NewRelation("a", "b")
	lhs.MustAppend(relalg.Row{relalg.Int(1), relalg.String("x")})
	lhs.MustAppend(relalg.Row{relalg.Int(2), relalg.String("y")})
	lhs.MustAppend(relalg.Row{relalg.Int(1), relalg.String("x")})
	rhs := relalg.NewRelation("k", "c")
	rhs.MustAppend(relalg.Row{relalg.Int(1), relalg.String("p")})
	rhs.MustAppend(relalg.Row{relalg.Int(1), relalg.String("q")})
	rels := map[string]*relalg.Relation{"l": lhs, "r": rhs}
	l := relalg.NewScan(relalgtest.NewMemSource("l", lhs))
	r := relalg.NewScan(relalgtest.NewMemSource("r", rhs))

	drain := func(p relalg.Plan) (*relalg.Relation, error) {
		prog, err := Prepare(p)
		if err != nil {
			return nil, err
		}
		snaps := make([]*relalg.Relation, len(prog.srcs))
		for i, s := range prog.srcs {
			snaps[i] = rels[s.src.Name()]
		}
		it, err := prog.bind(snaps)
		if err != nil {
			return nil, err
		}
		return (&Cursor{cols: prog.cols, it: it}).Materialize(ctx)
	}
	for _, tc := range []struct {
		plan    relalg.Plan
		algebra string
		rows    int
	}{
		{l, "l", 3},
		{relalg.NewProject(l, "b"), "π[b](l)", 3},
		{relalg.NewRename(l, [][2]string{{"a", "k"}}), "ρ[a→k](l)", 3},
		{relalg.NewJoin(l, r, [][2]string{{"a", "k"}}), "(l ⋈[a=k] r)", 4},
		{relalg.NewUnion(l, l), "(l ∪ l)", 6},
		{relalg.NewDistinct(l), "δ(l)", 2},
		// Two joins over one build side under one key: one table.
		{relalg.NewUnion(relalg.NewJoin(l, r, [][2]string{{"a", "k"}}),
			relalg.NewJoin(relalg.NewDistinct(l), r, [][2]string{{"a", "k"}})),
			"((l ⋈[a=k] r) ∪ (δ(l) ⋈[a=k] r))", 6},
	} {
		if got := relalg.Algebra(tc.plan); got != tc.algebra {
			t.Errorf("Algebra(%T) = %q, want %q", tc.plan, got, tc.algebra)
		}
		want, err := relalgtest.Execute(ctx, tc.plan)
		if err != nil {
			t.Fatalf("%s: reference: %v", tc.algebra, err)
		}
		if len(want.Rows) != tc.rows {
			t.Errorf("%s: reference has %d rows, want %d", tc.algebra, len(want.Rows), tc.rows)
		}
		same := func(name string) func(*relalg.Relation, error) {
			return func(got *relalg.Relation, err error) {
				if err == nil {
					err = sameResult(want, got)
				}
				if err != nil {
					t.Errorf("%s, %s: %v", tc.algebra, name, err)
				}
			}
		}
		opt := relalg.Optimize(tc.plan)
		same("reference, optimized")(relalgtest.Execute(ctx, opt))
		same("compiled")(drain(tc.plan))
		same("compiled, optimized")(drain(opt))
	}
}
