package rdf

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"
)

func TestDictInternRoundTrip(t *testing.T) {
	d := NewDict()
	terms := []Term{
		IRI("http://ex.org/a"),
		Lit("plain"),
		TypedLit("5", XSDInteger),
		LangLit("hola", "es"),
		Blank("b1"),
	}
	ids := make([]TermID, len(terms))
	for i, tm := range terms {
		ids[i] = d.Intern(tm)
		if int(ids[i]) != i {
			t.Errorf("Intern(%s) = %d, want dense id %d", tm, ids[i], i)
		}
	}
	if d.Len() != len(terms) {
		t.Fatalf("Len = %d, want %d", d.Len(), len(terms))
	}
	// Re-interning returns the same id.
	for i, tm := range terms {
		if got := d.Intern(tm); got != ids[i] {
			t.Errorf("re-Intern(%s) = %d, want %d", tm, got, ids[i])
		}
	}
	// Reverse lookup round-trips.
	for i, id := range ids {
		got, ok := d.Term(id)
		if !ok || got != terms[i] {
			t.Errorf("Term(%d) = %v, %v; want %s", id, got, ok, terms[i])
		}
	}
	// Unknown lookups.
	if _, ok := d.ID(IRI("http://ex.org/unseen")); ok {
		t.Error("ID of unseen term should report false")
	}
	if _, ok := d.Term(TermID(len(terms))); ok {
		t.Error("Term of unassigned id should report false")
	}
	if _, ok := d.Term(AnyID); ok {
		t.Error("Term(AnyID) should report false")
	}
}

// Distinct terms that differ only in one field must get distinct ids.
func TestDictDistinguishesTermFields(t *testing.T) {
	d := NewDict()
	a := d.Intern(Lit("x"))
	b := d.Intern(TypedLit("x", XSDInteger))
	c := d.Intern(LangLit("x", "en"))
	e := d.Intern(IRI("x"))
	f := d.Intern(Blank("x"))
	seen := map[TermID]bool{}
	for _, id := range []TermID{a, b, c, e, f} {
		if seen[id] {
			t.Fatalf("id %d reused across distinct terms", id)
		}
		seen[id] = true
	}
}

func TestPropDictInternStable(t *testing.T) {
	prop := func(values []string) bool {
		d := NewDict()
		ids := map[string]TermID{}
		for _, v := range values {
			id := d.Intern(Lit(v))
			if prev, ok := ids[v]; ok && prev != id {
				return false
			}
			ids[v] = id
		}
		for v, id := range ids {
			got, ok := d.Term(id)
			if !ok || got != Lit(v) {
				return false
			}
		}
		return d.Len() == len(ids)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// TestEachMatchAgreesWithMatch checks iterator/slice equivalence across
// all 8 bound/unbound pattern shapes.
func TestEachMatchAgreesWithMatch(t *testing.T) {
	g := NewGraph()
	for i := 0; i < 60; i++ {
		g.MustAdd(mkTriple(i))
	}
	s, p, o := IRI("http://ex.org/s1"), IRI("http://ex.org/p1"), IntLit(4)
	for mask := 0; mask < 8; mask++ {
		ps, pp, po := Any, Any, Any
		if mask&1 != 0 {
			ps = s
		}
		if mask&2 != 0 {
			pp = p
		}
		if mask&4 != 0 {
			po = o
		}
		want := g.Match(ps, pp, po)
		got := map[Triple]int{}
		g.EachMatch(ps, pp, po, func(tr Triple) bool {
			got[tr]++
			return true
		})
		if len(got) != len(want) {
			t.Errorf("mask %d: EachMatch visited %d distinct, Match returned %d", mask, len(got), len(want))
		}
		for _, tr := range want {
			if got[tr] != 1 {
				t.Errorf("mask %d: triple %s visited %d times, want 1", mask, tr, got[tr])
			}
		}
		if g.Count(ps, pp, po) != len(want) {
			t.Errorf("mask %d: Count = %d, want %d", mask, g.Count(ps, pp, po), len(want))
		}
		// MatchFirst must agree with the head of the sorted Match result.
		first, ok := g.MatchFirst(ps, pp, po)
		if ok != (len(want) > 0) {
			t.Errorf("mask %d: MatchFirst ok = %v with %d matches", mask, ok, len(want))
		} else if ok && first != want[0] {
			t.Errorf("mask %d: MatchFirst = %s, want %s", mask, first, want[0])
		}
	}
	// Patterns with terms unknown to the dictionary match nothing.
	g.EachMatch(IRI("http://ex.org/unseen"), Any, Any, func(Triple) bool {
		t.Error("EachMatch visited a triple for an unknown subject")
		return false
	})
}

func TestEachMatchEarlyStop(t *testing.T) {
	g := NewGraph()
	for i := 0; i < 20; i++ {
		g.MustAdd(mkTriple(i))
	}
	visits := 0
	g.EachMatch(Any, Any, Any, func(Triple) bool {
		visits++
		return visits < 5
	})
	if visits != 5 {
		t.Errorf("early stop visited %d triples, want 5", visits)
	}
}

func TestEachMatchIDsRoundTrip(t *testing.T) {
	g := NewGraph()
	tr := T(IRI("s"), IRI("p"), Lit("o"))
	g.MustAdd(tr)
	pid, ok := g.IDOf(IRI("p"))
	if !ok {
		t.Fatal("IDOf missing interned predicate")
	}
	found := 0
	g.EachMatchIDs(AnyID, pid, AnyID, func(s, p, o TermID) bool {
		st, _ := g.TermOf(s)
		pt, _ := g.TermOf(p)
		ot, _ := g.TermOf(o)
		if T(st, pt, ot) != tr {
			t.Errorf("ID round trip = %s %s %s", st, pt, ot)
		}
		found++
		return true
	})
	if found != 1 {
		t.Errorf("EachMatchIDs visited %d, want 1", found)
	}
	if _, ok := g.IDOf(IRI("unseen")); ok {
		t.Error("IDOf unseen term should report false")
	}
}

// TestGraphConcurrentAddEachMatch exercises concurrent writers and
// iterator readers; run with -race to verify the locking of the
// dictionary and the ID indexes. Each EachMatch is one read-lock
// acquisition and only adds run, so the counts one reader observes must
// never decrease; nothing is asserted across two separate acquisitions
// (a writer may land between them).
func TestGraphConcurrentAddEachMatch(t *testing.T) {
	g := NewGraph()
	p1 := IRI("http://ex.org/p1")
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				g.MustAdd(mkTriple(w*300 + i))
			}
		}(w)
		wg.Add(1)
		go func() {
			defer wg.Done()
			prev := 0
			for i := 0; i < 300; i++ {
				n := 0
				g.EachMatch(Any, p1, Any, func(tr Triple) bool {
					if tr.P != p1 {
						t.Errorf("EachMatch leaked %s", tr)
						return false
					}
					n++
					return true
				})
				if n < prev {
					t.Errorf("EachMatch count went from %d to %d while only adds ran", prev, n)
				}
				prev = n
				_ = g.Count(Any, Any, Any)
				g.MatchFirst(Any, p1, Any)
			}
		}()
	}
	wg.Wait()
	if g.Len() == 0 {
		t.Fatal("no triples after concurrent writes")
	}
	want := g.Count(Any, p1, Any)
	got := 0
	g.EachMatch(Any, p1, Any, func(Triple) bool { got++; return true })
	if got != want {
		t.Errorf("quiescent EachMatch visited %d, Count says %d", got, want)
	}
}

func BenchmarkGraphEachMatch(b *testing.B) {
	g := NewGraph()
	for i := 0; i < 10000; i++ {
		g.MustAdd(T(
			IRI(fmt.Sprintf("http://ex.org/s%d", i%100)),
			IRI(fmt.Sprintf("http://ex.org/p%d", i%10)),
			IntLit(int64(i))))
	}
	p := IRI("http://ex.org/p3")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		g.EachMatch(Any, p, Any, func(Triple) bool { n++; return true })
		if n == 0 {
			b.Fatal("no matches")
		}
	}
}

func TestDictInternBatch(t *testing.T) {
	d := NewDict()
	pre := d.Intern(Lit("already-here"))
	batch := []Term{
		IRI("http://ex.org/a"),
		Lit("already-here"), // pre-existing
		IRI("http://ex.org/b"),
		IRI("http://ex.org/a"), // duplicate within the batch
		LangLit("hi", "en"),
	}
	out := make([]TermID, len(batch))
	d.InternBatch(batch, out)
	if out[1] != pre {
		t.Fatalf("pre-existing term re-assigned: %d != %d", out[1], pre)
	}
	if out[0] != out[3] {
		t.Fatalf("in-batch duplicate got two IDs: %d, %d", out[0], out[3])
	}
	if d.Len() != 4 {
		t.Fatalf("Len = %d, want 4", d.Len())
	}
	for i, term := range batch {
		if id := d.Intern(term); id != out[i] {
			t.Fatalf("Intern(%v) = %d, batch said %d", term, id, out[i])
		}
		if got, ok := d.Term(out[i]); !ok || got != term {
			t.Fatalf("Term(%d) = %v, %v", out[i], got, ok)
		}
	}
}
