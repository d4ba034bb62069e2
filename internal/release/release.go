// Package release implements MDM's governance of evolution (paper §1,
// §3 "Governance of evolution"): releases are the key concept through
// which new sources and new schema versions of existing sources enter
// the system. The package detects schema changes between wrapper
// versions (added / removed / renamed attributes, type changes),
// classifies releases as breaking or non-breaking, maintains the release
// log, and can probe live wrappers for schema drift the provider shipped
// without notice.
package release

import (
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"mdm/internal/bdi"
	"mdm/internal/rdf"
	"mdm/internal/schema"
	"mdm/internal/wrapper"
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

// Diff compares two signatures and returns the changes from old to new.
// A removal and an addition with identical inferred types are paired as
// a rename when the pairing is unambiguous (exactly one candidate each).
func Diff(old, new schema.Signature) []Change {
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

// IsBreaking reports whether any change in the set is breaking.
func IsBreaking(changes []Change) bool {
	for _, c := range changes {
		if c.Breaking() {
			return true
		}
	}
	return false
}

// Kind distinguishes the two release flavours of paper §2.2: "new
// wrappers are introduced either because we want to consider data from a
// new data source, or because the schema of an existing source has
// evolved".
type Kind string

// Release kinds.
const (
	NewSource  Kind = "new-source"
	NewVersion Kind = "new-version"
)

// Release is one entry of the release log.
type Release struct {
	// Seq is the release sequence number (1-based).
	Seq int
	// Kind says whether this introduced a source or a version.
	Kind Kind
	// SourceID is the affected data source.
	SourceID string
	// Wrapper is the registered wrapper's name.
	Wrapper string
	// Signature is the wrapper's signature at release time.
	Signature string
	// Supersedes is the previous wrapper of the source ("" for the
	// first release).
	Supersedes string
	// Changes lists schema changes versus the superseded wrapper.
	Changes []Change
	// Breaking mirrors IsBreaking(Changes).
	Breaking bool
	// At is the release timestamp.
	At time.Time
}

// Summary is a one-line description for logs and the REST API.
func (r Release) Summary() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "release #%d [%s] %s/%s", r.Seq, r.Kind, r.SourceID, r.Wrapper)
	if r.Supersedes != "" {
		fmt.Fprintf(&sb, " supersedes %s", r.Supersedes)
	}
	if len(r.Changes) > 0 {
		descs := make([]string, len(r.Changes))
		for i, c := range r.Changes {
			descs[i] = c.String()
		}
		fmt.Fprintf(&sb, " (%s)", strings.Join(descs, "; "))
	}
	if r.Breaking {
		sb.WriteString(" BREAKING")
	}
	return sb.String()
}

// ConflictError reports a wrapper registered under a name the release log
// already holds with a different data source or different attributes. One
// wrapper per schema version is the paper's rule (§2.2), so the recorded
// release stands and the new schema needs a name of its own.
type ConflictError struct {
	// Recorded is the release the log holds under the name.
	Recorded Release
	// Offered is what the rejected wrapper declared: "source/signature".
	Offered string
}

func (e *ConflictError) Error() string {
	return fmt.Sprintf("release: wrapper %q is already released as %s/%s (release #%d), not %s: release the new schema under a new wrapper name",
		e.Recorded.Wrapper, e.Recorded.SourceID, e.Recorded.Signature, e.Recorded.Seq, e.Offered)
}

// Manager orchestrates releases against the ontology and the wrapper
// registry. It is the programmatic face of the "registration of new data
// sources" interaction (paper §2.2). The release log is the ontology's
// release graph; the manager keeps no copy of it.
type Manager struct {
	ont *bdi.Ontology
	reg *wrapper.Registry
	// Now is injectable for deterministic tests.
	Now func() time.Time
}

// NewManager returns a release manager.
func NewManager(ont *bdi.Ontology, reg *wrapper.Registry) *Manager {
	return &Manager{ont: ont, reg: reg, Now: time.Now}
}

// Register performs a release: the wrapper is added to the registry, and
// to the source graph together with its release record, its schema diffed
// against the source's latest recorded release — which need not be
// attached to the registry (attribute reuse happens inside the ontology).
// The caller defines the LAV mapping afterwards.
//
// A wrapper the log already records — after a restart, wrappers are
// re-attached by registering them again — is only added to the registry,
// and its recorded release is returned; if its source or attribute names
// differ from the record, nothing changes and the error is a
// *ConflictError.
func (m *Manager) Register(w wrapper.Wrapper) (Release, error) {
	sig := w.Signature()
	rec, released := m.ont.ReleaseOf(w.Name())
	if released && (rec.SourceID != w.SourceID() || !sameNames(rec.Signature, sig)) {
		return Release{}, &ConflictError{Recorded: fromRecord(rec), Offered: w.SourceID() + "/" + sig.String()}
	}
	if err := m.reg.Register(w); err != nil {
		return Release{}, err
	}
	if released {
		return fromRecord(rec), nil
	}
	rec, err := m.ont.RegisterWrapper(w.SourceID(), sig, m.Now(), func(superseded bdi.Release) string {
		changes := Diff(superseded.Signature, sig)
		if len(changes) == 0 {
			return ""
		}
		b, _ := json.Marshal(changes) // plain strings: cannot fail
		return string(b)
	})
	if err != nil {
		m.reg.Remove(w.Name())
		return Release{}, err
	}
	return fromRecord(rec), nil
}

// fromRecord completes a release-graph record with what is derived from
// it: the kind, the rendered signature, the parsed changes and whether
// they break consumers.
func fromRecord(rec bdi.Release) Release {
	rel := Release{
		Seq: rec.Seq, Kind: NewSource, SourceID: rec.SourceID, Wrapper: rec.Signature.Wrapper,
		Signature: rec.Signature.String(), Supersedes: rec.Supersedes, At: rec.At,
	}
	if rec.Supersedes != "" {
		rel.Kind = NewVersion
	}
	if rec.Changes != "" {
		// Written by Register; anything else reads as no changes.
		_ = json.Unmarshal([]byte(rec.Changes), &rel.Changes)
	}
	rel.Breaking = IsBreaking(rel.Changes)
	return rel
}

// sameNames reports whether two signatures declare the same attribute
// names, in any order: the source graph keeps them as a set, and types
// are re-inferred from whatever payload the source serves today.
func sameNames(a, b schema.Signature) bool {
	an, bn := a.AttributeNames(), b.AttributeNames()
	slices.Sort(an)
	slices.Sort(bn)
	return slices.Equal(an, bn)
}

// Log returns the full release log, in sequence order.
func (m *Manager) Log() []Release {
	recs := m.ont.Releases()
	out := make([]Release, len(recs))
	for i, rec := range recs {
		out[i] = fromRecord(rec)
	}
	return out
}

// DetectDrift probes a wrapper's current payload schema and diffs it
// against the declared signature: non-empty changes mean the provider
// shipped a schema change without a registered release (the situation
// that silently breaks pipelines, paper §1).
func (m *Manager) DetectDrift(ctx context.Context, wrapperName string) ([]Change, error) {
	w, ok := m.reg.Get(wrapperName)
	if !ok {
		return nil, fmt.Errorf("release: unknown wrapper %q", wrapperName)
	}
	cur, err := w.CurrentSignature(ctx)
	if err != nil {
		return nil, fmt.Errorf("release: probe %s: %w", wrapperName, err)
	}
	return Diff(w.Signature(), cur), nil
}

// SuggestMapping proposes a LAV mapping for a new wrapper version based
// on the superseded wrapper's mapping: attributes that kept their names
// keep their feature links; renamed attributes (per Diff) carry their
// link to the new name; removed attributes drop theirs. The steward
// reviews the result before DefineMapping — this is the
// "semi-automatically accommodate schema evolution" aid of the paper's
// abstract.
func (m *Manager) SuggestMapping(prevWrapper, newWrapper string) (bdi.Mapping, []Change, error) {
	prev, ok := m.reg.Get(prevWrapper)
	if !ok {
		return bdi.Mapping{}, nil, fmt.Errorf("release: unknown wrapper %q", prevWrapper)
	}
	next, ok := m.reg.Get(newWrapper)
	if !ok {
		return bdi.Mapping{}, nil, fmt.Errorf("release: unknown wrapper %q", newWrapper)
	}
	prevMap, ok := m.ont.MappingOf(prevWrapper)
	if !ok {
		return bdi.Mapping{}, nil, fmt.Errorf("release: wrapper %q has no mapping to derive from", prevWrapper)
	}
	changes := Diff(prev.Signature(), next.Signature())
	renames := map[string]string{}
	removed := map[string]bool{}
	for _, c := range changes {
		switch c.Kind {
		case AttributeRenamed:
			renames[c.Attribute] = c.NewName
		case AttributeRemoved:
			removed[c.Attribute] = true
		}
	}
	out := bdi.Mapping{Wrapper: newWrapper, SameAs: map[string]rdf.Term{}}
	for attr, feat := range prevMap.SameAs {
		switch {
		case removed[attr]:
			// dropped
		case renames[attr] != "":
			out.SameAs[renames[attr]] = feat
		default:
			out.SameAs[attr] = feat
		}
	}
	// Subgraph: keep the triples whose features are still populated,
	// plus concept typing and relation edges.
	kept := map[rdf.Term]bool{}
	for _, feat := range out.SameAs {
		kept[feat] = true
	}
	for _, t := range prevMap.Subgraph {
		if t.P == bdi.PropHasFeature && !kept[t.O] {
			continue
		}
		out.Subgraph = append(out.Subgraph, t)
	}
	return out, changes, nil
}
