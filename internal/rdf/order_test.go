package rdf

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// randOrderTerm draws a term from a vocabulary built to stress Compare:
// IRIs sharing long prefixes (and one a prefix of another), blank nodes,
// and plain, typed and language-tagged literals whose lexical forms
// collide across the three.
func randOrderTerm(r *rand.Rand) Term {
	v := fmt.Sprintf("%s%d", []string{"", "a", "ab", "abc"}[r.Intn(4)], r.Intn(40))
	switch r.Intn(6) {
	case 0, 1:
		return IRI("http://ex.org/" + v)
	case 2:
		return Blank(v)
	case 3:
		return Lit(v)
	case 4:
		return TypedLit(v, []string{XSDInteger, XSDString, XSDDouble}[r.Intn(3)])
	default:
		return LangLit(v, []string{"en", "es", "en-GB"}[r.Intn(3)])
	}
}

// forceOrder charges d until its term order covers every interned term.
func forceOrder(d *Dict) {
	for d.Order().N() != d.Len() {
		d.ChargeOrder(math.MaxInt32)
	}
}

// wantRanks returns each ID's position in a full Compare sort of terms.
func wantRanks(terms []Term) []uint32 {
	ids := make([]TermID, len(terms))
	for i := range ids {
		ids[i] = TermID(i)
	}
	slices.SortFunc(ids, func(a, b TermID) int { return Compare(terms[a], terms[b]) })
	ranks := make([]uint32, len(terms))
	for pos, id := range ids {
		ranks[id] = uint32(pos)
	}
	return ranks
}

// TestTermOrderMatchesCompare interns terms in batches, extending the
// order after some of them, so extensions cover anywhere from one batch
// to several: after every extension the ranks must be the positions of
// a full sort, and the extended order must equal a fresh build over the
// same terms.
func TestTermOrderMatchesCompare(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	d := NewDict()
	for round := 0; round < 60; round++ {
		for i, n := 0, r.Intn(60); i < n; i++ {
			d.Intern(randOrderTerm(r))
		}
		if r.Intn(3) == 0 {
			continue // let the next extension cover several batches
		}
		before := d.Order().N()
		forceOrder(d)
		terms := d.Snapshot()
		o := d.Order()
		if o.N() != len(terms) {
			t.Fatalf("round %d: order covers %d of %d terms", round, o.N(), len(terms))
		}
		want := wantRanks(terms)
		for id := range terms {
			if got := o.Rank(TermID(id)); got != want[id] {
				t.Fatalf("round %d (extension %d→%d): Rank(%s) = %d, full sort says %d",
					round, before, len(terms), terms[id], got, want[id])
			}
		}
		fresh := NewDict()
		fresh.InternBatch(terms, make([]TermID, len(terms)))
		forceOrder(fresh)
		if !slices.Equal(fresh.Order().rank, o.rank) {
			t.Fatalf("round %d: extension %d→%d differs from a fresh build", round, before, len(terms))
		}
	}
	if d.Len() < 500 {
		t.Fatalf("only %d distinct terms drawn; the vocabulary is too small to test anything", d.Len())
	}
}

// TestChargeOrderBuildsAtCost pins the charge rule's threshold: charges
// below the cost of covering the uncovered terms build nothing, the one
// that reaches it builds, and the charge starts over afterwards.
func TestChargeOrderBuildsAtCost(t *testing.T) {
	d := NewDict()
	for i := 0; i < 100; i++ {
		d.Intern(IRI(fmt.Sprintf("http://ex.org/t%d", i)))
	}
	cost := orderCost(0, 100)
	d.ChargeOrder(int(cost) - 1)
	if d.Order() != nil {
		t.Fatalf("built after %d of %d", cost-1, cost)
	}
	d.ChargeOrder(1)
	if d.Order().N() != 100 {
		t.Fatalf("order covers %d of 100 terms at the cost", d.Order().N())
	}
	for i := 0; i < 3; i++ {
		d.Intern(Lit(fmt.Sprint(i)))
	}
	cost = orderCost(100, 3)
	d.ChargeOrder(int(cost) - 1)
	if d.Order().N() != 100 {
		t.Fatalf("extended after %d of %d: the charge did not start over", cost-1, cost)
	}
	d.ChargeOrder(1)
	if d.Order().N() != 103 {
		t.Fatalf("order covers %d of 103 terms at the extension's cost", d.Order().N())
	}
}

// TestTermOrderConcurrent interns, charges and reads at once: a reader
// holding an older order must find it consistent with Compare for every
// ID below its N, however far the dictionary and the published order
// have moved on.
func TestTermOrderConcurrent(t *testing.T) {
	d := NewDict()
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed int64) { // interners
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < 2000; i++ {
				d.Intern(randOrderTerm(r))
			}
		}(int64(w))
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() { // chargers
			defer wg.Done()
			for i := 0; i < 200; i++ {
				d.ChargeOrder(500)
			}
		}()
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed int64) { // readers
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < 300; i++ {
				o := d.Order()
				if o.N() < 2 {
					continue
				}
				terms := d.Snapshot()
				for j := 0; j < 20; j++ {
					a, b := TermID(r.Intn(o.N())), TermID(r.Intn(o.N()))
					byRank := int(o.Rank(a)) - int(o.Rank(b))
					if c := Compare(terms[a], terms[b]); (c < 0) != (byRank < 0) || (c == 0) != (byRank == 0) {
						t.Errorf("order over %d terms: Rank(%s)=%d, Rank(%s)=%d, Compare=%d",
							o.N(), terms[a], o.Rank(a), terms[b], o.Rank(b), c)
						return
					}
				}
			}
		}(int64(10 + w))
	}
	wg.Wait()
	forceOrder(d)
	terms := d.Snapshot()
	if want := wantRanks(terms); !slices.Equal(d.Order().rank, want) {
		t.Fatal("final order differs from a full sort")
	}
}
