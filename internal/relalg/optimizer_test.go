package relalg_test

import (
	"context"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	. "mdm/internal/relalg"
	"mdm/internal/relalg/relalgtest"
)

func optPlanFixture() Plan {
	// π[teamName,pName]( w1 ⋈ ρ(w2) )
	return NewProject(
		NewJoin(NewScan(w1()),
			NewRename(NewScan(w2()), [][2]string{{"name", "teamName"}}),
			[][2]string{{"teamId", "id"}}),
		"teamName", "pName")
}

func TestOptimizePreservesResult(t *testing.T) {
	plan := optPlanFixture()
	opt := Optimize(plan)
	r1, err := relalgtest.Execute(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := relalgtest.Execute(context.Background(), opt)
	if err != nil {
		t.Fatalf("optimized plan failed: %v\n%s", err, Algebra(opt))
	}
	if !r1.Equal(r2) {
		t.Fatalf("results differ.\noriginal:\n%s\noptimized:\n%s", r1.Table(), r2.Table())
	}
}

func TestOptimizeShrinksWidth(t *testing.T) {
	plan := optPlanFixture()
	before := PlanWidth(plan)
	after := PlanWidth(Optimize(plan))
	if after >= before {
		t.Errorf("PlanWidth before = %d, after = %d; expected reduction", before, after)
	}
}

func TestOptimizeCollapsesProjectChains(t *testing.T) {
	plan := NewProject(NewProject(NewProject(NewScan(w1()), "pName", "height"), "pName"), "pName")
	opt := Optimize(plan)
	// Expect exactly one Project above the Scan.
	depth := 0
	for p := opt; ; {
		if _, ok := p.(*Project); ok {
			depth++
		}
		cs := p.Children()
		if len(cs) == 0 {
			break
		}
		p = cs[0]
	}
	if depth != 1 {
		t.Errorf("project chain depth = %d, want 1\n%s", depth, Algebra(opt))
	}
	r, err := relalgtest.Execute(context.Background(), opt)
	if err != nil || len(r.Cols) != 1 || r.Cols[0] != "pName" {
		t.Errorf("collapsed plan output = %v, %v", r, err)
	}
}

func TestOptimizeUnionBranches(t *testing.T) {
	u := NewProject(NewUnion(
		NewProject(NewScan(w1()), "id", "pName", "height"),
		NewRename(NewProject(NewScan(w2()), "id", "name", "shortName"),
			[][2]string{{"name", "pName"}, {"shortName", "height"}}),
	), "pName")
	opt := Optimize(u)
	r1, err := relalgtest.Execute(context.Background(), u)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := relalgtest.Execute(context.Background(), opt)
	if err != nil {
		t.Fatalf("%v\n%s", err, Algebra(opt))
	}
	if !r1.Equal(r2) {
		t.Fatalf("union optimize changed result:\n%s\nvs\n%s", r1.Table(), r2.Table())
	}
}

func TestOptimizeRenameDropsUnusedMapping(t *testing.T) {
	plan := NewProject(
		NewRename(NewScan(w2()), [][2]string{{"name", "teamName"}, {"shortName", "sn"}}),
		"id")
	opt := Optimize(plan)
	if strings.Contains(Algebra(opt), "ρ") {
		t.Errorf("rename should vanish when no renamed column survives: %s", Algebra(opt))
	}
	r, err := relalgtest.Execute(context.Background(), opt)
	if err != nil || len(r.Cols) != 1 || r.Cols[0] != "id" {
		t.Errorf("output = %v, %v", r.Cols, err)
	}
}

// randomPlan builds a random but well-formed plan over w1/w2 for the
// property test that Optimize preserves semantics.
func randomPlan(r *rand.Rand) Plan {
	base := Plan(NewJoin(NewScan(w1()),
		NewRename(NewScan(w2()), [][2]string{{"name", "teamName"}}),
		[][2]string{{"teamId", "id"}}))
	cols := [][]string{
		{"pName"},
		{"teamName", "pName"},
		{"pName", "height", "teamName"},
		{"id", "pName", "teamId", "teamName"},
	}
	base = NewProject(base, cols[r.Intn(len(cols))]...)
	if r.Intn(3) == 0 {
		base = NewDistinct(base)
	}
	return base
}

func TestPropOptimizePreservesSemantics(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		plan := randomPlan(r)
		orig, err1 := relalgtest.Execute(context.Background(), plan)
		opt, err2 := relalgtest.Execute(context.Background(), Optimize(plan))
		if err1 != nil || err2 != nil {
			return false
		}
		return orig.Equal(opt)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestPropProjectIdempotent(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := randomPlan(r)
		cols := p.Columns()
		once, err1 := relalgtest.Execute(context.Background(), NewProject(p, cols...))
		twice, err2 := relalgtest.Execute(context.Background(), NewProject(NewProject(p, cols...), cols...))
		if err1 != nil || err2 != nil {
			return false
		}
		return once.Equal(twice)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestPropUnionCommutativeUpToOrder(t *testing.T) {
	a := NewProject(NewScan(w1()), "id")
	b := NewProject(NewScan(w2()), "id")
	r1, err := relalgtest.Execute(context.Background(), NewUnion(a, b))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := relalgtest.Execute(context.Background(), NewUnion(b, a))
	if err != nil {
		t.Fatal(err)
	}
	if !r1.Equal(r2) {
		t.Error("union not commutative as multiset")
	}
}

func TestPropJoinCommutativeOnRowCount(t *testing.T) {
	j1 := NewJoin(NewScan(w1()), NewScan(w2()), [][2]string{{"teamId", "id"}})
	j2 := NewJoin(NewScan(w2()), NewScan(w1()), [][2]string{{"id", "teamId"}})
	r1, err := relalgtest.Execute(context.Background(), j1)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := relalgtest.Execute(context.Background(), j2)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Len() != r2.Len() {
		t.Errorf("join row counts differ: %d vs %d", r1.Len(), r2.Len())
	}
}

// TestOptimizeLeavesProjectOnScan pins the leaf shape the federation
// engine reads a source's column demand from: wherever a plan needs fewer
// columns than a source declares, Optimize leaves a Project standing
// directly on that Scan — through Rename, Union and Distinct, the
// operators the rewriter stacks on a leaf — and a scan whose every column
// is needed stays bare.
func TestOptimizeLeavesProjectOnScan(t *testing.T) {
	leaf := func(src RowSource) Plan { // the rewriter's π(ρ(scan)) leaf
		return NewProject(NewRename(NewScan(src), [][2]string{{"id", "ex:id"}, {"pName", "ex:name"}, {"teamId", "ex:team"}}),
			"ex:id", "ex:name", "ex:team")
	}
	v2 := relalgtest.NewMemSource("w1v2", w1().Rel)
	plan := NewDistinct(NewUnion(
		NewProject(leaf(w1()), "ex:name", "ex:team"),
		NewProject(leaf(v2), "ex:name", "ex:team")))
	opt := Optimize(plan)

	got := map[string]string{}
	var walk func(p Plan, parent Plan)
	walk = func(p, parent Plan) {
		if s, ok := p.(*Scan); ok {
			if pr, ok := parent.(*Project); ok {
				got[s.Src.Name()] = strings.Join(pr.Cols, ",")
			} else {
				got[s.Src.Name()] = "*"
			}
		}
		for _, c := range p.Children() {
			walk(c, p)
		}
	}
	walk(opt, nil)
	if got["w1"] != "pName,teamId" || got["w1v2"] != "pName,teamId" {
		t.Errorf("leaf projections = %v, want pName,teamId on both scans\n%s", got, Algebra(opt))
	}

	got = map[string]string{}
	walk(Optimize(NewDistinct(NewScan(w2()))), nil)
	if got["w2"] != "*" {
		t.Errorf("a fully read scan should stay bare, got %v", got)
	}
}

// TestColumnsRideTheContext: the request survives derived contexts (the
// fetch path adds a timeout on top of it) and is absent by default.
func TestColumnsRideTheContext(t *testing.T) {
	if got := ColumnsFrom(context.Background()); got != nil {
		t.Fatalf("ColumnsFrom(background) = %v, want nil", got)
	}
	ctx, cancel := context.WithCancel(WithColumns(context.Background(), []string{"b", "a"}))
	defer cancel()
	if got := ColumnsFrom(ctx); strings.Join(got, ",") != "b,a" {
		t.Fatalf("ColumnsFrom = %v, want [b a]", got)
	}
}

// TestOptimizeDoesNotProjectBelowDistinct: δ compares whole rows, so a
// projection above it must stay above it — two players with the same foot
// are two rows of π[foot](δ(w1)) and one of δ(π[foot](w1)).
func TestOptimizeDoesNotProjectBelowDistinct(t *testing.T) {
	plan := NewProject(NewDistinct(NewScan(w1())), "foot")
	want, got := exec(t, plan), exec(t, Optimize(plan))
	if want.Len() != 3 || got.Len() != 3 {
		t.Fatalf("π[foot](δ(w1)) has %d rows, optimized (%s) %d; want 3 and 3",
			want.Len(), Algebra(Optimize(plan)), got.Len())
	}
}
