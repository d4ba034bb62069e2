package relalg_test

import (
	"testing"

	. "mdm/internal/relalg"
	"mdm/internal/relalg/relalgtest"
)

// TestAlgebraNotation pins the rendering of every operator: REST serves
// these strings (the "algebra" of a walk answer), so they are wire format.
func TestAlgebraNotation(t *testing.T) {
	w1 := NewScan(relalgtest.NewMemSource("w1", NewRelation("id", "pName", "teamId")))
	w2 := NewScan(relalgtest.NewMemSource("w2", NewRelation("id", "name")))
	left := NewProject(NewRename(w1, [][2]string{{"id", "ex:playerId"}, {"teamId", "ex:teamId"}}), "ex:playerId", "ex:teamId")
	right := NewRename(w2, [][2]string{{"id", "ex:teamId"}})
	join := NewJoin(left, right, [][2]string{{"ex:teamId", "ex:teamId"}, {"a", "b"}})
	cases := []struct {
		plan Plan
		want string
	}{
		{w1, "w1"},
		{left, "π[ex:playerId,ex:teamId](ρ[id→ex:playerId,teamId→ex:teamId](w1))"},
		{NewProject(w1), "π[](w1)"},
		{NewRename(w2, nil), "ρ[](w2)"},
		{join, "(π[ex:playerId,ex:teamId](ρ[id→ex:playerId,teamId→ex:teamId](w1)) ⋈[ex:teamId=ex:teamId,a=b] ρ[id→ex:teamId](w2))"},
		{NewJoin(w1, w2, nil), "(w1 ⋈[] w2)"},
		{NewDistinct(NewUnion(w1, w2, w1)), "δ((w1 ∪ w2 ∪ w1))"},
		{NewUnion(), "()"},
		{NewUnion(w2), "(w2)"},
	}
	for _, c := range cases {
		if got := Algebra(c.plan); got != c.want {
			t.Errorf("Algebra() = %s\n           want %s", got, c.want)
		}
	}
}
