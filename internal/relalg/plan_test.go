package relalg_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	. "mdm/internal/relalg" // relalgtest imports relalg, so its users test from outside
	"mdm/internal/relalg/relalgtest"
)

// players/teams fixtures mirroring the paper's wrappers w1 and w2.
func w1() *relalgtest.MemSource {
	rel := NewRelation("id", "pName", "height", "weight", "score", "foot", "teamId")
	rel.MustAppend(Row{Int(6176), String("Lionel Messi"), Float(170.18), Int(159), Int(94), String("left"), Int(25)})
	rel.MustAppend(Row{Int(7011), String("Robert Lewandowski"), Float(184.0), Int(176), Int(91), String("right"), Int(27)})
	rel.MustAppend(Row{Int(8123), String("Zlatan Ibrahimovic"), Float(195.0), Int(209), Int(90), String("right"), Int(31)})
	return relalgtest.NewMemSource("w1", rel)
}

func w2() *relalgtest.MemSource {
	rel := NewRelation("id", "name", "shortName")
	rel.MustAppend(Row{Int(25), String("FC Barcelona"), String("FCB")})
	rel.MustAppend(Row{Int(27), String("Bayern Munich"), String("FCB")})
	rel.MustAppend(Row{Int(31), String("Manchester United"), String("MU")})
	rel.MustAppend(Row{Int(99), String("Orphan FC"), String("OFC")})
	return relalgtest.NewMemSource("w2", rel)
}

func exec(t *testing.T, p Plan) *Relation {
	t.Helper()
	rel, err := relalgtest.Execute(context.Background(), p)
	if err != nil {
		t.Fatalf("execute: %v\nplan: %s", err, Algebra(p))
	}
	return rel
}

func TestScan(t *testing.T) {
	rel := exec(t, NewScan(w1()))
	if rel.Len() != 3 || len(rel.Cols) != 7 {
		t.Fatalf("scan = %dx%d", rel.Len(), len(rel.Cols))
	}
}

func TestScanSchemaMismatchDetected(t *testing.T) {
	bad := relalgtest.NewMemSource("bad", NewRelation("a", "b"))
	s := NewScan(&lyingSource{bad})
	if _, err := relalgtest.Execute(context.Background(), s); err == nil {
		t.Fatal("schema mismatch not detected")
	}
}

// lyingSource declares 3 columns but returns 2.
type lyingSource struct{ inner *relalgtest.MemSource }

func (l *lyingSource) Name() string      { return l.inner.Name() }
func (l *lyingSource) Columns() []string { return []string{"a", "b", "c"} }
func (l *lyingSource) Fetch(ctx context.Context) (*Relation, error) {
	return l.inner.Fetch(ctx)
}

func TestProject(t *testing.T) {
	rel := exec(t, NewProject(NewScan(w1()), "pName", "height"))
	if len(rel.Cols) != 2 || rel.Cols[0] != "pName" {
		t.Fatalf("cols = %v", rel.Cols)
	}
	if rel.Rows[0][0].S != "Lionel Messi" {
		t.Errorf("row0 = %v", rel.Rows[0])
	}
	if _, err := relalgtest.Execute(context.Background(), NewProject(NewScan(w1()), "nope")); err == nil {
		t.Error("unknown column should fail")
	}
}

func TestRename(t *testing.T) {
	p := NewRename(NewScan(w2()), [][2]string{{"name", "teamName"}, {"id", "teamId"}})
	rel := exec(t, p)
	want := []string{"teamId", "teamName", "shortName"}
	for i, c := range want {
		if rel.Cols[i] != c {
			t.Fatalf("cols = %v, want %v", rel.Cols, want)
		}
	}
	if rel.Len() != 4 {
		t.Fatalf("rows lost in rename: %d", rel.Len())
	}
}

func TestJoinBasicAndKeySemantics(t *testing.T) {
	j := NewJoin(NewScan(w1()), NewScan(w2()), [][2]string{{"teamId", "id"}})
	rel := exec(t, j)
	if rel.Len() != 3 {
		t.Fatalf("join rows = %d, want 3 (orphan team drops)", rel.Len())
	}
	// Output schema: left cols + right minus join col (name collisions skipped).
	wantCols := []string{"id", "pName", "height", "weight", "score", "foot", "teamId", "name", "shortName"}
	if strings.Join(rel.Cols, ",") != strings.Join(wantCols, ",") {
		t.Fatalf("join cols = %v", rel.Cols)
	}
	// Verify the actual pairing.
	rel.Sort()
	byPlayer := map[string]string{}
	pi, ni := rel.ColIndex("pName"), rel.ColIndex("name")
	for _, row := range rel.Rows {
		byPlayer[row[pi].S] = row[ni].S
	}
	if byPlayer["Lionel Messi"] != "FC Barcelona" || byPlayer["Zlatan Ibrahimovic"] != "Manchester United" {
		t.Errorf("pairings = %v", byPlayer)
	}
}

func TestJoinNullNeverMatches(t *testing.T) {
	l := NewRelation("k", "v")
	l.MustAppend(Row{Null(), String("l1")})
	l.MustAppend(Row{Int(1), String("l2")})
	r := NewRelation("k2", "w")
	r.MustAppend(Row{Null(), String("r1")})
	r.MustAppend(Row{Int(1), String("r2")})
	j := NewJoin(NewScan(relalgtest.NewMemSource("l", l)), NewScan(relalgtest.NewMemSource("r", r)), [][2]string{{"k", "k2"}})
	rel := exec(t, j)
	if rel.Len() != 1 {
		t.Fatalf("null join rows = %d, want 1", rel.Len())
	}
}

func TestJoinIntFloatCoercion(t *testing.T) {
	l := NewRelation("k")
	l.MustAppend(Row{Int(25)})
	r := NewRelation("k2")
	r.MustAppend(Row{Float(25.0)})
	j := NewJoin(NewScan(relalgtest.NewMemSource("l", l)), NewScan(relalgtest.NewMemSource("r", r)), [][2]string{{"k", "k2"}})
	if got := exec(t, j).Len(); got != 1 {
		t.Fatalf("int/float join = %d rows", got)
	}
}

func TestJoinMissingColumnError(t *testing.T) {
	j := NewJoin(NewScan(w1()), NewScan(w2()), [][2]string{{"nope", "id"}})
	if _, err := relalgtest.Execute(context.Background(), j); err == nil {
		t.Error("missing left join column not reported")
	}
	j2 := NewJoin(NewScan(w1()), NewScan(w2()), [][2]string{{"teamId", "nope"}})
	if _, err := relalgtest.Execute(context.Background(), j2); err == nil {
		t.Error("missing right join column not reported")
	}
}

func TestUnion(t *testing.T) {
	p1 := NewProject(NewScan(w1()), "pName")
	p2 := NewRename(NewProject(NewScan(w2()), "name"), [][2]string{{"name", "pName"}})
	u := NewUnion(p1, p2)
	rel := exec(t, u)
	if rel.Len() != 7 {
		t.Fatalf("union rows = %d", rel.Len())
	}
	// Schema mismatch must error.
	bad := NewUnion(NewProject(NewScan(w1()), "pName"), NewProject(NewScan(w2()), "name"))
	if _, err := relalgtest.Execute(context.Background(), bad); err == nil {
		t.Error("union schema mismatch not detected")
	}
	empty := NewUnion()
	if got := exec(t, empty); got.Len() != 0 {
		t.Errorf("empty union = %d rows", got.Len())
	}
}

func TestDistinct(t *testing.T) {
	rel := NewRelation("a")
	for i := 0; i < 5; i++ {
		rel.MustAppend(Row{Int(int64(i % 2))})
	}
	src := relalgtest.NewMemSource("m", rel)
	if got := exec(t, NewDistinct(NewScan(src))).Len(); got != 2 {
		t.Fatalf("distinct = %d", got)
	}
}

func TestAlgebraRendering(t *testing.T) {
	plan := NewProject(
		NewJoin(NewScan(w1()),
			NewRename(NewScan(w2()), [][2]string{{"name", "teamName"}}),
			[][2]string{{"teamId", "id"}}),
		"teamName", "pName")
	alg := Algebra(plan)
	for _, frag := range []string{"π[teamName,pName]", "w1 ⋈[teamId=id]", "ρ[name→teamName](w2)"} {
		if !strings.Contains(alg, frag) {
			t.Errorf("algebra %q missing %q", alg, frag)
		}
	}
}

func TestRelationTableRendering(t *testing.T) {
	rel := exec(t, NewProject(NewScan(w2()), "name"))
	tab := rel.Table()
	if !strings.Contains(tab, "FC Barcelona") || !strings.Contains(tab, "name") {
		t.Errorf("table:\n%s", tab)
	}
}

func TestRelationEqual(t *testing.T) {
	a := NewRelation("x", "y")
	a.MustAppend(Row{Int(1), String("a")})
	a.MustAppend(Row{Int(2), String("b")})
	b := NewRelation("x", "y")
	b.MustAppend(Row{Int(2), String("b")})
	b.MustAppend(Row{Int(1), String("a")})
	if !a.Equal(b) {
		t.Error("order-insensitive Equal failed")
	}
	b.MustAppend(Row{Int(3), String("c")})
	if a.Equal(b) {
		t.Error("row count mismatch undetected")
	}
	c := NewRelation("x", "z")
	c.MustAppend(Row{Int(1), String("a")})
	c.MustAppend(Row{Int(2), String("b")})
	if a.Equal(c) {
		t.Error("schema mismatch undetected")
	}
	// Multiset semantics: duplicate counts matter.
	d1 := NewRelation("x")
	d1.MustAppend(Row{Int(1)})
	d1.MustAppend(Row{Int(1)})
	d2 := NewRelation("x")
	d2.MustAppend(Row{Int(1)})
	d2.MustAppend(Row{Int(2)})
	if d1.Equal(d2) {
		t.Error("multiset mismatch undetected")
	}
}

func TestRelationAppendArity(t *testing.T) {
	rel := NewRelation("a", "b")
	if err := rel.Append(Row{Int(1)}); err == nil {
		t.Error("arity mismatch accepted")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustAppend should panic")
		}
	}()
	rel.MustAppend(Row{Int(1)})
}

// failingSource exercises error propagation through operator trees.
type failingSource struct{}

func (failingSource) Name() string      { return "boom" }
func (failingSource) Columns() []string { return []string{"a"} }
func (failingSource) Fetch(context.Context) (*Relation, error) {
	return nil, errors.New("source unavailable")
}

func TestErrorPropagation(t *testing.T) {
	plans := []Plan{
		NewProject(NewScan(failingSource{}), "a"),
		NewRename(NewScan(failingSource{}), [][2]string{{"a", "b"}}),
		NewJoin(NewScan(failingSource{}), NewScan(w1()), [][2]string{{"a", "id"}}),
		NewJoin(NewScan(w1()), NewScan(failingSource{}), [][2]string{{"id", "a"}}),
		NewUnion(NewScan(failingSource{})),
		NewDistinct(NewScan(failingSource{})),
	}
	for i, p := range plans {
		if _, err := relalgtest.Execute(context.Background(), p); err == nil {
			t.Errorf("plan %d swallowed the source error", i)
		} else if !strings.Contains(err.Error(), "source unavailable") {
			t.Errorf("plan %d error lost cause: %v", i, err)
		}
	}
}

// TestExecuteCanceledContext: every operator checks the context, so a
// canceled query stops instead of materializing its result.
func TestExecuteCanceledContext(t *testing.T) {
	left := NewRelation("id", "v")
	right := NewRelation("id", "w")
	for i := 0; i < 5000; i++ {
		left.Rows = append(left.Rows, Row{Int(int64(i % 50)), String("l")})
		right.Rows = append(right.Rows, Row{Int(int64(i % 50)), String("r")})
	}
	plan := NewJoin(NewScan(relalgtest.NewMemSource("l", left)), NewScan(relalgtest.NewMemSource("r", right)),
		[][2]string{{"id", "id"}})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := relalgtest.Execute(ctx, plan); !errors.Is(err, context.Canceled) {
		t.Fatalf("Execute under canceled ctx = %v, want context.Canceled", err)
	}
	// Sanity: the same plan runs fine with a live context.
	rel, err := relalgtest.Execute(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 500000 {
		t.Fatalf("rows = %d", rel.Len())
	}
}
