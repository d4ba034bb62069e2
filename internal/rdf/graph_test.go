package rdf

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"unsafe"
)

func mkTriple(i int) Triple {
	return T(
		IRI(fmt.Sprintf("http://ex.org/s%d", i%7)),
		IRI(fmt.Sprintf("http://ex.org/p%d", i%3)),
		IntLit(int64(i)),
	)
}

func TestGraphAddHas(t *testing.T) {
	g := NewGraph()
	tr := T(IRI("s"), IRI("p"), Lit("o"))
	added, err := g.Add(tr)
	if err != nil || !added {
		t.Fatalf("Add = %v, %v", added, err)
	}
	if !g.Has(tr) {
		t.Fatal("Has = false after Add")
	}
	if g.Len() != 1 {
		t.Fatalf("Len = %d, want 1", g.Len())
	}
	added, err = g.Add(tr)
	if err != nil || added {
		t.Fatalf("duplicate Add = %v, %v; want false, nil", added, err)
	}
	if g.Len() != 1 {
		t.Fatalf("Len after dup = %d", g.Len())
	}
}

func TestGraphAddInvalid(t *testing.T) {
	g := NewGraph()
	if _, err := g.Add(T(Lit("s"), IRI("p"), IRI("o"))); err == nil {
		t.Error("literal subject should be rejected")
	}
	if _, err := g.Add(T(IRI("s"), Blank("p"), IRI("o"))); err == nil {
		t.Error("blank predicate should be rejected")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustAdd should panic on invalid triple")
		}
	}()
	g.MustAdd(T(Any, IRI("p"), IRI("o")))
}

func TestGraphMatchAllPatternShapes(t *testing.T) {
	g := NewGraph()
	for i := 0; i < 30; i++ {
		g.MustAdd(mkTriple(i))
	}
	s, p, o := IRI("http://ex.org/s1"), IRI("http://ex.org/p1"), IntLit(1)

	type pat struct {
		s, p, o Term
	}
	pats := []pat{
		{s, p, o}, {s, p, Any}, {s, Any, o}, {Any, p, o},
		{s, Any, Any}, {Any, p, Any}, {Any, Any, o}, {Any, Any, Any},
	}
	for _, pt := range pats {
		got := g.Match(pt.s, pt.p, pt.o)
		// Cross-check against a brute-force scan.
		var want int
		for _, tr := range g.Triples() {
			if (pt.s.IsAny() || tr.S == pt.s) && (pt.p.IsAny() || tr.P == pt.p) && (pt.o.IsAny() || tr.O == pt.o) {
				want++
			}
		}
		if len(got) != want {
			t.Errorf("Match(%v,%v,%v) = %d results, want %d", pt.s, pt.p, pt.o, len(got), want)
		}
		if g.Count(pt.s, pt.p, pt.o) != want {
			t.Errorf("Count(%v,%v,%v) != brute force", pt.s, pt.p, pt.o)
		}
		for i := 1; i < len(got); i++ {
			if CompareTriples(got[i-1], got[i]) >= 0 {
				t.Errorf("Match results not sorted at %d", i)
			}
		}
	}
}

func TestGraphMatchFirst(t *testing.T) {
	g := NewGraph()
	if _, ok := g.MatchFirst(Any, Any, Any); ok {
		t.Error("MatchFirst on empty graph should report false")
	}
	g.MustAdd(T(IRI("s"), IRI("p"), Lit("b")))
	g.MustAdd(T(IRI("s"), IRI("p"), Lit("a")))
	tr, ok := g.MatchFirst(IRI("s"), IRI("p"), Any)
	if !ok || tr.O != Lit("a") {
		t.Errorf("MatchFirst = %v, %v; want smallest object \"a\"", tr, ok)
	}
}

func TestGraphObjectsSubjects(t *testing.T) {
	g := NewGraph()
	g.MustAdd(T(IRI("s1"), IRI("p"), IRI("o1")))
	g.MustAdd(T(IRI("s1"), IRI("p"), IRI("o2")))
	g.MustAdd(T(IRI("s2"), IRI("p"), IRI("o1")))
	if got := g.Objects(IRI("s1"), IRI("p")); len(got) != 2 {
		t.Errorf("Objects = %v", got)
	}
	if got := g.Subjects(IRI("p"), IRI("o1")); len(got) != 2 {
		t.Errorf("Subjects = %v", got)
	}
	o, ok := g.Object(IRI("s2"), IRI("p"))
	if !ok || o != IRI("o1") {
		t.Errorf("Object = %v, %v", o, ok)
	}
	if _, ok := g.Object(IRI("s3"), IRI("p")); ok {
		t.Error("Object on missing subject should report false")
	}
}

func TestGraphEqual(t *testing.T) {
	g, c := NewGraph(), NewGraph()
	for i := 0; i < 10; i++ {
		g.MustAdd(mkTriple(i))
		c.MustAdd(mkTriple(9 - i))
	}
	if !g.Equal(c) {
		t.Fatal("graphs built in another order not equal")
	}
	c.MustAdd(T(IRI("extra"), IRI("p"), Lit("v")))
	if g.Equal(c) {
		t.Fatal("Equal should detect extra triple")
	}
	// Equal with same length but different content.
	a, b := NewGraph(), NewGraph()
	a.MustAdd(T(IRI("x"), IRI("p"), Lit("1")))
	b.MustAdd(T(IRI("y"), IRI("p"), Lit("1")))
	if a.Equal(b) {
		t.Fatal("graphs with different triples reported equal")
	}
}

func TestSubClassClosure(t *testing.T) {
	g := NewGraph()
	sub := IRI(RDFSSubClassOf)
	// identifier <- teamId <- specialTeamId ; identifier <- playerId
	g.MustAdd(T(IRI("teamId"), sub, IRI("identifier")))
	g.MustAdd(T(IRI("specialTeamId"), sub, IRI("teamId")))
	g.MustAdd(T(IRI("playerId"), sub, IRI("identifier")))
	g.MustAdd(T(IRI("unrelated"), sub, IRI("other")))

	down := g.SubClassClosure(IRI("identifier"))
	for _, want := range []string{"identifier", "teamId", "specialTeamId", "playerId"} {
		if !down[IRI(want)] {
			t.Errorf("SubClassClosure missing %s", want)
		}
	}
	if down[IRI("unrelated")] {
		t.Error("SubClassClosure leaked unrelated class")
	}

	up := g.SuperClassClosure(IRI("specialTeamId"))
	for _, want := range []string{"specialTeamId", "teamId", "identifier"} {
		if !up[IRI(want)] {
			t.Errorf("SuperClassClosure missing %s", want)
		}
	}
	if !g.IsSubClassOf(IRI("specialTeamId"), IRI("identifier")) {
		t.Error("IsSubClassOf transitive failed")
	}
	if g.IsSubClassOf(IRI("identifier"), IRI("specialTeamId")) {
		t.Error("IsSubClassOf inverted")
	}
	if !g.IsSubClassOf(IRI("teamId"), IRI("teamId")) {
		t.Error("IsSubClassOf should be reflexive")
	}
}

func TestSubClassClosureCycleTerminates(t *testing.T) {
	g := NewGraph()
	sub := IRI(RDFSSubClassOf)
	g.MustAdd(T(IRI("a"), sub, IRI("b")))
	g.MustAdd(T(IRI("b"), sub, IRI("a")))
	got := g.SubClassClosure(IRI("a"))
	if !got[IRI("a")] || !got[IRI("b")] || len(got) != 2 {
		t.Errorf("cycle closure = %v", got)
	}
}

func TestSameAsSymmetricTransitive(t *testing.T) {
	g := NewGraph()
	same := IRI(OWLSameAs)
	g.MustAdd(T(IRI("a"), same, IRI("b")))
	g.MustAdd(T(IRI("c"), same, IRI("b"))) // reverse direction link
	g.MustAdd(T(IRI("c"), same, IRI("d")))
	set := g.SameAs(IRI("a"))
	for _, want := range []string{"a", "b", "c", "d"} {
		if !set[IRI(want)] {
			t.Errorf("SameAs missing %s, got %v", want, set)
		}
	}
	if len(set) != 4 {
		t.Errorf("SameAs size = %d", len(set))
	}
	solo := g.SameAs(IRI("z"))
	if len(solo) != 1 || !solo[IRI("z")] {
		t.Errorf("SameAs singleton = %v", solo)
	}
}

func TestGraphConcurrentAccess(t *testing.T) {
	g := NewGraph()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				g.MustAdd(mkTriple(w*200 + i))
				g.Match(Any, IRI("http://ex.org/p1"), Any)
				g.Count(Any, Any, Any)
			}
		}(w)
	}
	wg.Wait()
	if g.Len() == 0 {
		t.Fatal("no triples after concurrent writes")
	}
}

func TestPropAddThenHas(t *testing.T) {
	prop := func(ts []Triple) bool {
		g := NewGraph()
		for _, tr := range ts {
			g.MustAdd(tr)
		}
		for _, tr := range ts {
			if !g.Has(tr) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestPropMatchConsistentWithTriples(t *testing.T) {
	prop := func(ts []Triple) bool {
		g := NewGraph()
		uniq := map[Triple]struct{}{}
		for _, tr := range ts {
			g.MustAdd(tr)
			uniq[tr] = struct{}{}
		}
		if g.Len() != len(uniq) {
			return false
		}
		return len(g.Triples()) == len(uniq)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestGraphAppendMatchIDs(t *testing.T) {
	g := NewGraph()
	for i := 0; i < 30; i++ {
		g.MustAdd(mkTriple(i))
	}
	p, _ := g.IDOf(IRI("http://ex.org/p1"))
	check := func(s, pp, o TermID) {
		t.Helper()
		got := g.AppendMatchIDs(nil, s, pp, o)
		if len(got)%3 != 0 {
			t.Fatalf("AppendMatchIDs length %d not a multiple of 3", len(got))
		}
		want := map[[3]TermID]bool{}
		g.EachMatchIDs(s, pp, o, func(a, b, c TermID) bool {
			want[[3]TermID{a, b, c}] = true
			return true
		})
		if len(got)/3 != len(want) {
			t.Fatalf("AppendMatchIDs %d triplets, EachMatchIDs %d", len(got)/3, len(want))
		}
		for i := 0; i < len(got); i += 3 {
			if !want[[3]TermID{got[i], got[i+1], got[i+2]}] {
				t.Fatalf("triplet %v not produced by EachMatchIDs", got[i:i+3])
			}
		}
		if n := g.CountIDs(s, pp, o); n != len(want) {
			t.Fatalf("CountIDs = %d, want %d", n, len(want))
		}
	}
	check(AnyID, p, AnyID)
	check(AnyID, AnyID, AnyID)
	sid, _ := g.IDOf(IRI("http://ex.org/s0"))
	check(sid, AnyID, AnyID)
	check(sid, p, AnyID)

	// Appending onto an existing prefix keeps it intact.
	prefix := []TermID{1, 2, 3}
	out := g.AppendMatchIDs(prefix, AnyID, p, AnyID)
	if out[0] != 1 || out[1] != 2 || out[2] != 3 {
		t.Fatalf("prefix clobbered: %v", out[:3])
	}
	if (len(out)-3)/3 != g.CountIDs(AnyID, p, AnyID) {
		t.Fatalf("appended %d triplets, want %d", (len(out)-3)/3, g.CountIDs(AnyID, p, AnyID))
	}
}

func TestGraphDistinctCountIDs(t *testing.T) {
	g := NewGraph()
	ex := func(s string) Term { return IRI("http://ex.org/" + s) }
	// s0-(p0)->o0, s0-(p0)->o1, s1-(p0)->o0, s1-(p1)->o0
	g.MustAdd(T(ex("s0"), ex("p0"), ex("o0")))
	g.MustAdd(T(ex("s0"), ex("p0"), ex("o1")))
	g.MustAdd(T(ex("s1"), ex("p0"), ex("o0")))
	g.MustAdd(T(ex("s1"), ex("p1"), ex("o0")))
	id := func(s string) TermID {
		v, ok := g.IDOf(ex(s))
		if !ok {
			t.Fatalf("%s not interned", s)
		}
		return v
	}
	s0, s1, p0, o0 := id("s0"), id("s1"), id("p0"), id("o0")
	cases := []struct {
		name    string
		s, p, o TermID
		pos     int
		n       int
		ok      bool
	}{
		{"all-wild distinct subjects", AnyID, AnyID, AnyID, 0, 2, true},
		{"all-wild distinct predicates", AnyID, AnyID, AnyID, 1, 2, true},
		{"all-wild distinct objects", AnyID, AnyID, AnyID, 2, 2, true},
		{"objects of (s0, p0, ?)", s0, p0, AnyID, 2, 2, true},
		{"objects of (?, p0, ?)", AnyID, p0, AnyID, 2, 2, true},
		{"subjects of (?, p0, o0)", AnyID, p0, o0, 0, 2, true},
		{"subjects of (?, ?, o0)", AnyID, AnyID, o0, 0, 2, true},
		{"predicates of (s1, ?, ?)", s1, AnyID, AnyID, 1, 2, true},
		{"predicates of (s1, ?, o0)", s1, AnyID, o0, 1, 2, true},
		{"constant position, matches", s0, AnyID, AnyID, 0, 1, true},
		{"constant position, no matches", s0, id("p1"), AnyID, 0, 0, true},
		{"subjects of (?, p0, ?) needs a scan", AnyID, p0, AnyID, 0, 0, false},
		{"objects of (s0, ?, ?) needs a scan", s0, AnyID, AnyID, 2, 0, false},
	}
	for _, tc := range cases {
		n, ok := g.DistinctCountIDs(tc.s, tc.p, tc.o, tc.pos)
		if ok != tc.ok || (ok && n != tc.n) {
			t.Errorf("%s: DistinctCountIDs = (%d, %v), want (%d, %v)", tc.name, n, ok, tc.n, tc.ok)
		}
	}
}

// TestGraphIndexSpillFanOut pushes one subject past both index spill
// thresholds — more than midSpill (predicate, object) pairs, and more
// than idSetSpill objects under a single predicate — then checks every
// read path. This walks the pair-list, spilled-map and mixed
// representations of the same logical index.
func TestGraphIndexSpillFanOut(t *testing.T) {
	g := NewGraph()
	s := IRI("http://ex.org/fan")
	wide := IRI("http://ex.org/wide")
	const objects = 3 * idSetSpill
	var ts []Triple
	for i := 0; i < objects; i++ {
		ts = append(ts, T(s, wide, IntLit(int64(i))))
	}
	for i := 0; i < midSpill; i++ {
		ts = append(ts, T(s, IRI(fmt.Sprintf("http://ex.org/p%d", i)), Lit("x")))
	}
	for _, tr := range ts {
		g.MustAdd(tr)
	}
	for _, tr := range ts {
		if !g.Has(tr) {
			t.Fatalf("Has(%v) = false", tr)
		}
	}
	if g.Len() != len(ts) {
		t.Fatalf("Len = %d, want %d", g.Len(), len(ts))
	}
	if n := g.Count(s, wide, Any); n != objects {
		t.Fatalf("Count(s, wide, ?) = %d, want %d", n, objects)
	}
	if n := g.Count(s, Any, Any); n != len(ts) {
		t.Fatalf("Count(s, ?, ?) = %d, want %d", n, len(ts))
	}
	if n, ok := g.DistinctCountIDs(mustID(t, g, s), AnyID, AnyID, 1); !ok || n != midSpill+1 {
		t.Fatalf("distinct predicates = %d, %v; want %d", n, ok, midSpill+1)
	}
	if got := g.Objects(s, wide); len(got) != objects {
		t.Fatalf("Objects = %d terms, want %d", len(got), objects)
	}
	if got := g.Match(s, Any, Any); len(got) != len(ts) {
		t.Fatalf("Match = %d triples", len(got))
	}
}

func mustID(t *testing.T, g *Graph, term Term) TermID {
	t.Helper()
	id, ok := g.IDOf(term)
	if !ok {
		t.Fatalf("%v not interned", term)
	}
	return id
}

// TestBulkAddIDsMatchesAddIDs checks the bulk loader against the
// one-triple path: same final graph, same added count, duplicates
// rejected within and across batches, and fan-outs wide enough to cross
// both spill thresholds mid-batch.
func TestBulkAddIDsMatchesAddIDs(t *testing.T) {
	var ts []Triple
	for i := 0; i < 400; i++ {
		ts = append(ts, mkTriple(i))
	}
	// A hot subject/predicate pair that spills, plus exact duplicates.
	hot := IRI("http://ex.org/hot")
	for i := 0; i < 2*midSpill; i++ {
		ts = append(ts, T(hot, IRI("http://ex.org/w"), IntLit(int64(i))))
	}
	ts = append(ts, ts[:25]...)

	want := NewGraph()
	bulk := NewGraph()
	ids := make([][3]TermID, len(ts))
	for i, tr := range ts {
		want.MustAdd(tr)
		ids[i] = [3]TermID{bulk.Dict().Intern(tr.S), bulk.Dict().Intern(tr.P), bulk.Dict().Intern(tr.O)}
	}
	// Split into two batches so the second sees index state left by the
	// first (arena-backed pair lists must not be clobbered).
	cut := len(ids) / 3
	added := bulk.BulkAddIDs(ids[:cut])
	added += bulk.BulkAddIDs(ids[cut:])
	if added != want.Len() {
		t.Fatalf("BulkAddIDs added %d, want %d", added, want.Len())
	}
	if bulk.Len() != want.Len() {
		t.Fatalf("Len = %d, want %d", bulk.Len(), want.Len())
	}
	if !bulk.Equal(want) {
		t.Fatal("bulk-loaded graph differs from Add-built graph")
	}
	// Re-adding the whole batch must add nothing.
	if again := bulk.BulkAddIDs(ids); again != 0 {
		t.Fatalf("re-adding batch added %d", again)
	}
}

// TestCountMatchesRecountAroundSpill fills graphs from empty to full
// with a random mix of Add and BulkAddIDs over a term domain small enough
// that every first-level key of every index crosses midSpill on the way,
// and checks CountIDs on all seven bound/unbound shapes (and the fully
// unbound one) against a recount by EachMatchIDs. The pair count a
// spilled idMid carries has no other check: a drift would only skew the
// planner's estimates.
func TestCountMatchesRecountAroundSpill(t *testing.T) {
	const dom = 6 // dom*dom = 36 pairs under a full key, midSpill = 16
	r := rand.New(rand.NewSource(1))
	for round := range 4 {
		g := NewGraph()
		var ids [3][dom]TermID
		var terms [3][dom]Term
		for pos, kind := range []string{"s", "p", "o"} {
			for i := range dom {
				terms[pos][i] = IRI(fmt.Sprintf("http://ex.org/%s%d", kind, i))
				ids[pos][i] = g.Dict().Intern(terms[pos][i])
			}
		}
		pick := func() [3]int { return [3]int{r.Intn(dom), r.Intn(dom), r.Intn(dom)} }
		check := func(step int) {
			t.Helper()
			// Index dom stands for the wildcard at that position.
			for s := 0; s <= dom; s++ {
				for p := 0; p <= dom; p++ {
					for o := 0; o <= dom; o++ {
						pat := [3]TermID{AnyID, AnyID, AnyID}
						for pos, i := range [3]int{s, p, o} {
							if i < dom {
								pat[pos] = ids[pos][i]
							}
						}
						want := 0
						g.EachMatchIDs(pat[0], pat[1], pat[2], func(_, _, _ TermID) bool { want++; return true })
						if got := g.CountIDs(pat[0], pat[1], pat[2]); got != want {
							t.Fatalf("round %d step %d: CountIDs(%v) = %d, recount %d", round, step, pat, got, want)
						}
					}
				}
			}
		}
		for step := 0; g.Len() < dom*dom*dom; step++ {
			if r.Intn(100) < 90 {
				k := pick()
				g.MustAdd(T(terms[0][k[0]], terms[1][k[1]], terms[2][k[2]]))
			} else {
				batch := make([][3]TermID, 1+r.Intn(20))
				for i := range batch {
					k := pick()
					batch[i] = [3]TermID{ids[0][k[0]], ids[1][k[1]], ids[2][k[2]]}
				}
				g.BulkAddIDs(batch)
			}
			if step%10 == 0 {
				check(step)
			}
		}
		check(-1)
	}
}

// TestCountOneBoundReadsNoMap pins the cost class of Count on a spilled
// key: with the second-level map of a 10 000-object predicate taken
// away, Count(?, p, ?) still answers, so it reads the counter and
// neither iterates nor measures the map. (The SPARQL planner calls it
// once per triple pattern; the walk it replaced was most of a plan.)
func TestCountOneBoundReadsNoMap(t *testing.T) {
	if got := unsafe.Sizeof(idMid{}); got != 32 {
		t.Fatalf("sizeof(idMid) = %d, want 32: the pair count must not grow the per-key value", got)
	}
	g := NewGraph()
	p := IRI("http://ex.org/p")
	const n = 10000
	for i := range n {
		g.MustAdd(T(IRI(fmt.Sprintf("http://ex.org/s%d", i%100)), p, IntLit(int64(i))))
	}
	pid := mustID(t, g, p)
	g.pos[pid].big.m = nil
	if got := g.CountIDs(AnyID, pid, AnyID); got != n {
		t.Fatalf("CountIDs(?, p, ?) without the map = %d, want %d", got, n)
	}
}
