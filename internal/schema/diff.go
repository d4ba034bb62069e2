package schema

import (
	"fmt"
	"sort"
	"strings"
)

// ChangeKind classifies one schema change.
type ChangeKind string

// Change kinds.
const (
	// AttributeAdded: the new version has an attribute the old lacked.
	AttributeAdded ChangeKind = "added"
	// AttributeRemoved: an attribute disappeared — breaking.
	AttributeRemoved ChangeKind = "removed"
	// AttributeRenamed: heuristic pairing of one removal with one
	// addition of the same inferred type — breaking.
	AttributeRenamed ChangeKind = "renamed"
	// TypeChanged: same attribute name, different inferred type.
	TypeChanged ChangeKind = "type-changed"
)

// Change is one detected difference between two wrapper signatures.
type Change struct {
	Kind ChangeKind
	// Attribute is the affected attribute (old name for renames).
	Attribute string
	// NewName is set for renames.
	NewName string
	// OldType / NewType are set for type changes.
	OldType, NewType string
}

// String renders the change human-readably.
func (c Change) String() string {
	switch c.Kind {
	case AttributeRenamed:
		return fmt.Sprintf("renamed %s -> %s", c.Attribute, c.NewName)
	case TypeChanged:
		return fmt.Sprintf("type of %s changed %s -> %s", c.Attribute, c.OldType, c.NewType)
	default:
		return fmt.Sprintf("%s %s", c.Kind, c.Attribute)
	}
}

// Breaking reports whether the change breaks consumers of the old
// schema: removals, renames and type changes do; additions do not.
func (c Change) Breaking() bool { return c.Kind != AttributeAdded }

// IsBreaking reports whether any change in the set is breaking.
func IsBreaking(changes []Change) bool {
	for _, c := range changes {
		if c.Breaking() {
			return true
		}
	}
	return false
}

// Diff compares two signatures and returns the changes from old to new.
// A removal and an addition with identical inferred types are paired as
// a rename when the pairing is unambiguous (exactly one candidate each).
func Diff(old, new Signature) []Change {
	oldTypes := map[string]string{}
	for _, a := range old.Attributes {
		oldTypes[a.Name] = a.Type.String()
	}
	newTypes := map[string]string{}
	for _, a := range new.Attributes {
		newTypes[a.Name] = a.Type.String()
	}
	var removed, added []string
	var changes []Change
	for _, a := range old.Attributes {
		nt, ok := newTypes[a.Name]
		switch {
		case !ok:
			removed = append(removed, a.Name)
		case nt != oldTypes[a.Name]:
			changes = append(changes, Change{
				Kind: TypeChanged, Attribute: a.Name,
				OldType: oldTypes[a.Name], NewType: nt,
			})
		}
	}
	for _, a := range new.Attributes {
		if _, ok := oldTypes[a.Name]; !ok {
			added = append(added, a.Name)
		}
	}
	sort.Strings(removed)
	sort.Strings(added)

	// Rename pairing: a removed attribute pairs with an added attribute
	// of the same inferred type whose name is sufficiently similar
	// (normalized longest-common-subsequence >= 0.5) and strictly more
	// similar than every other candidate. Ties and dissimilar names stay
	// removed+added, so the steward reviews them.
	usedAdd := map[string]bool{}
	for _, r := range removed {
		best, bestScore, tie := "", 0.0, false
		for _, a := range added {
			if usedAdd[a] || newTypes[a] != oldTypes[r] {
				continue
			}
			score := similarity(r, a)
			switch {
			case score > bestScore:
				best, bestScore, tie = a, score, false
			case score == bestScore && score > 0:
				tie = true
			}
		}
		if best != "" && bestScore >= 0.5 && !tie {
			usedAdd[best] = true
			changes = append(changes, Change{Kind: AttributeRenamed, Attribute: r, NewName: best})
		} else {
			changes = append(changes, Change{Kind: AttributeRemoved, Attribute: r})
		}
	}
	for _, a := range added {
		if !usedAdd[a] {
			changes = append(changes, Change{Kind: AttributeAdded, Attribute: a})
		}
	}
	sort.Slice(changes, func(i, j int) bool {
		if changes[i].Kind != changes[j].Kind {
			return changes[i].Kind < changes[j].Kind
		}
		return changes[i].Attribute < changes[j].Attribute
	})
	return changes
}

// similarity is the normalized longest-common-subsequence of two names
// (case-insensitive): 2*LCS / (len(a)+len(b)), in [0, 1].
func similarity(a, b string) float64 {
	a, b = strings.ToLower(a), strings.ToLower(b)
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for i := 1; i <= len(a); i++ {
		for j := 1; j <= len(b); j++ {
			if a[i-1] == b[j-1] {
				cur[j] = prev[j-1] + 1
			} else if prev[j] >= cur[j-1] {
				cur[j] = prev[j]
			} else {
				cur[j] = cur[j-1]
			}
		}
		prev, cur = cur, prev
	}
	lcs := prev[len(b)]
	return 2 * float64(lcs) / float64(len(a)+len(b))
}
