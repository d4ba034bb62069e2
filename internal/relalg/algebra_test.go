package relalg

import "testing"

// TestAlgebraNotation pins the rendering of every operator: REST serves
// these strings (the "algebra" of a walk answer), so they are wire format.
func TestAlgebraNotation(t *testing.T) {
	w1 := NewScan(NewMemSource("w1", NewRelation("id", "pName", "teamId")))
	w2 := NewScan(NewMemSource("w2", NewRelation("id", "name")))
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
		{NewSelect(w1, And{Preds: []Pred{Cmp{Col: "id", Op: "=", Val: Int(7)}, NotNull{Col: "pName"}}}), "σ[(id = 7 ∧ pName IS NOT NULL)](w1)"},
		{NewDistinct(NewUnion(w1, w2, w1)), "δ((w1 ∪ w2 ∪ w1))"},
		{NewUnion(), "()"},
		{NewUnion(w2), "(w2)"},
		{NewLimit(NewDistinct(w2), 10), "limit[10](δ(w2))"},
	}
	for _, c := range cases {
		if got := c.plan.Algebra(); got != c.want {
			t.Errorf("Algebra() = %s\n           want %s", got, c.want)
		}
	}
}
