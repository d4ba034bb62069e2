package federate

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"mdm/internal/relalg"
)

// Randomized equivalence harness: every generated plan is executed
// through both the materializing executor (relalg.Plan.Execute — the
// correctness oracle) and the streaming federate engine, and the two
// results must be identical — same schema, same rows, same ORDER (the
// streaming pipeline is documented to reproduce Execute's emission
// order exactly, which is what makes paged reads prefixes of the full
// drain). Each case additionally drains a random page through RunWith
// and asserts it equals the corresponding slice of the full result.
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
}

func (g *planGen) leaf() relalg.Plan {
	cols := genCols(g.r)
	g.nsrc++
	return relalg.NewScan(relalg.NewMemSource(fmt.Sprintf("src%d", g.nsrc), genRelation(g.r, cols)))
}

// plan builds a random operator tree of bounded depth. Generated plans
// are always well-formed (predicates and join keys reference existing
// columns, union branches share one schema), mirroring what the
// rewriter emits.
func (g *planGen) plan(depth int) relalg.Plan {
	if depth <= 0 || g.r.Intn(4) == 0 {
		return g.leaf()
	}
	switch g.r.Intn(7) {
	case 0: // selection
		child := g.plan(depth - 1)
		cols := child.Columns()
		col := cols[g.r.Intn(len(cols))]
		ops := []string{"=", "!=", "<", "<=", ">", ">="}
		pred := relalg.Cmp{Op: ops[g.r.Intn(len(ops))], Col: col}
		if g.r.Intn(3) == 0 {
			pred.Other = cols[g.r.Intn(len(cols))]
		} else {
			pred.Val = genValue(g.r)
		}
		return relalg.NewSelect(child, pred)
	case 1: // projection: non-empty shuffled subset
		child := g.plan(depth - 1)
		cols := child.Columns()
		perm := g.r.Perm(len(cols))
		n := 1 + g.r.Intn(len(cols))
		keep := make([]string, n)
		for i := 0; i < n; i++ {
			keep[i] = cols[perm[i]]
		}
		return relalg.NewProject(child, keep...)
	case 2: // rename one column to a fresh name
		child := g.plan(depth - 1)
		cols := child.Columns()
		from := cols[g.r.Intn(len(cols))]
		to := fmt.Sprintf("r%d", g.r.Intn(1000))
		return relalg.NewRename(child, [][2]string{{from, to}})
	case 3: // equi-join on 1-2 random column pairs
		l, rr := g.plan(depth-1), g.plan(depth-1)
		lc, rc := l.Columns(), rr.Columns()
		n := 1 + g.r.Intn(2)
		on := make([][2]string, n)
		for i := range on {
			on[i] = [2]string{lc[g.r.Intn(len(lc))], rc[g.r.Intn(len(rc))]}
		}
		return relalg.NewJoin(l, rr, on)
	case 4: // union: extra scans sharing the first branch's schema
		first := g.plan(depth - 1)
		plans := []relalg.Plan{first}
		for i, n := 0, 1+g.r.Intn(2); i < n; i++ {
			g.nsrc++
			plans = append(plans, relalg.NewScan(relalg.NewMemSource(
				fmt.Sprintf("src%d", g.nsrc), genRelation(g.r, first.Columns()))))
		}
		return relalg.NewUnion(plans...)
	case 5: // distinct
		return relalg.NewDistinct(g.plan(depth - 1))
	default: // limit
		return relalg.NewLimit(g.plan(depth-1), g.r.Intn(6))
	}
}

// --- comparison ---

func rowsEqual(a, b relalg.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Key() != b[i].Key() {
			return false
		}
	}
	return true
}

func assertSameResult(t *testing.T, seed int64, label string, want, got *relalg.Relation) {
	t.Helper()
	if len(want.Cols) != len(got.Cols) {
		t.Fatalf("seed %d %s: cols %v vs %v", seed, label, want.Cols, got.Cols)
	}
	for i := range want.Cols {
		if want.Cols[i] != got.Cols[i] {
			t.Fatalf("seed %d %s: cols %v vs %v", seed, label, want.Cols, got.Cols)
		}
	}
	if len(want.Rows) != len(got.Rows) {
		t.Fatalf("seed %d %s: %d rows vs %d rows\noracle:\n%s\nfederate:\n%s",
			seed, label, len(want.Rows), len(got.Rows), want.Table(), got.Table())
	}
	for i := range want.Rows {
		if !rowsEqual(want.Rows[i], got.Rows[i]) {
			t.Fatalf("seed %d %s: row %d differs\noracle:\n%s\nfederate:\n%s",
				seed, label, i, want.Table(), got.Table())
		}
	}
}

// TestFederateMatchesExecuteOracle is the randomized equivalence
// harness (run under -race in CI: the scatter phase exercises the
// engine's concurrency on every case).
func TestFederateMatchesExecuteOracle(t *testing.T) {
	ctx := context.Background()
	base := time.Now().UnixNano()
	for i := 0; i < oraclePlans; i++ {
		seed := base + int64(i)
		r := rand.New(rand.NewSource(seed))
		g := &planGen{r: r}
		plan := g.plan(3)

		want, err := plan.Execute(ctx)
		if err != nil {
			t.Fatalf("seed %d: oracle execute: %v", seed, err)
		}

		eng := NewEngine()
		cur, err := eng.Run(ctx, plan)
		if err != nil {
			t.Fatalf("seed %d: federate run: %v", seed, err)
		}
		got, err := cur.Materialize(ctx)
		if err != nil {
			t.Fatalf("seed %d: federate drain: %v", seed, err)
		}
		assertSameResult(t, seed, "full drain", want, got)

		// Paged read equals the slice of the full result.
		limit, offset := r.Intn(len(want.Rows)+2), r.Intn(len(want.Rows)+2)
		pcur, err := eng.RunWith(ctx, plan, RunOpts{Limit: limit, Offset: offset})
		if err != nil {
			t.Fatalf("seed %d: federate page: %v", seed, err)
		}
		page, err := pcur.Materialize(ctx)
		if err != nil {
			t.Fatalf("seed %d: federate page drain: %v", seed, err)
		}
		wantPage := relalg.NewRelation(want.Cols...)
		if offset < len(want.Rows) {
			end := min(offset+limit, len(want.Rows))
			wantPage.Rows = want.Rows[offset:end]
		}
		assertSameResult(t, seed, fmt.Sprintf("page limit=%d offset=%d", limit, offset), wantPage, page)
	}
}

// TestFederateOracleEdgeCases pins deterministic shapes the random
// generator may under-sample.
func TestFederateOracleEdgeCases(t *testing.T) {
	ctx := context.Background()
	empty := relalg.NewScan(relalg.NewMemSource("empty", relalg.NewRelation("a", "b")))
	lhs := relalg.NewRelation("a", "b")
	lhs.MustAppend(relalg.Row{relalg.Int(1), relalg.String("x")})
	lhs.MustAppend(relalg.Row{relalg.Null(), relalg.String("y")}) // NULL key never joins
	lhs.MustAppend(relalg.Row{relalg.Int(1), relalg.String("x")}) // duplicate
	rhs := relalg.NewRelation("k", "c")
	rhs.MustAppend(relalg.Row{relalg.Int(1), relalg.String("p")})
	rhs.MustAppend(relalg.Row{relalg.Int(1), relalg.String("q")}) // duplicate key: fan-out
	rhs.MustAppend(relalg.Row{relalg.Null(), relalg.String("n")})
	l := relalg.NewScan(relalg.NewMemSource("l", lhs))
	rr := relalg.NewScan(relalg.NewMemSource("r", rhs))

	plans := []relalg.Plan{
		empty,
		relalg.NewJoin(l, rr, [][2]string{{"a", "k"}}),
		relalg.NewDistinct(relalg.NewJoin(l, rr, [][2]string{{"a", "k"}})),
		relalg.NewUnion(l, relalg.NewScan(relalg.NewMemSource("l2", lhs))),
		relalg.NewLimit(relalg.NewJoin(l, rr, [][2]string{{"a", "k"}}), 0),
		relalg.NewProject(relalg.NewRename(l, [][2]string{{"b", "bb"}}), "bb"),
		relalg.NewSelect(l, relalg.NotNull{Col: "a"}),
		// Same wrapper scanned twice (self-join): the scatter dedupes.
		relalg.NewJoin(l, relalg.NewRename(l, [][2]string{{"b", "b2"}}), [][2]string{{"a", "a"}}),
	}
	eng := NewEngine()
	for i, plan := range plans {
		want, err := plan.Execute(ctx)
		if err != nil {
			t.Fatalf("case %d: oracle: %v", i, err)
		}
		cur, err := eng.Run(ctx, plan)
		if err != nil {
			t.Fatalf("case %d: run: %v", i, err)
		}
		got, err := cur.Materialize(ctx)
		if err != nil {
			t.Fatalf("case %d: drain: %v", i, err)
		}
		assertSameResult(t, int64(i), "edge case", want, got)
	}
}

// TestNegativeZeroJoinsAndDedupes: σ(a=b) holds for -0 and 0
// (relalg.Equal), so ⋈ and δ must agree, in both executors.
func TestNegativeZeroJoinsAndDedupes(t *testing.T) {
	ctx := context.Background()
	lhs := relalg.NewRelation("a")
	lhs.MustAppend(relalg.Row{relalg.Float(math.Copysign(0, -1))})
	lhs.MustAppend(relalg.Row{relalg.Float(0)})
	rhs := relalg.NewRelation("k")
	rhs.MustAppend(relalg.Row{relalg.Int(0)})
	l := relalg.NewScan(relalg.NewMemSource("l", lhs))
	r := relalg.NewScan(relalg.NewMemSource("r", rhs))
	for _, c := range []struct {
		plan relalg.Plan
		rows int
	}{
		{relalg.NewJoin(l, r, [][2]string{{"a", "k"}}), 2},
		{relalg.NewDistinct(l), 1},
	} {
		want, err := c.plan.Execute(ctx)
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
			t.Errorf("%s: oracle %d rows, federate %d rows, want %d", c.plan.Algebra(), len(want.Rows), len(got.Rows), c.rows)
		}
	}
}
