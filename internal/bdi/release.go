package bdi

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"mdm/internal/rdf"
	"mdm/internal/relalg"
	"mdm/internal/schema"
)

// The RELEASE GRAPH (named graph bdi:ReleaseGraph) is the release log
// (paper §2.2: a release is "a new data source, or the schema of an
// existing source has evolved"). Its subjects are the wrapper nodes of the
// source graph, and per released wrapper it holds what the source graph
// cannot say: the release's sequence number and time, the wrapper it
// superseded, and the ordered and typed signature (the source graph keeps
// attribute names as a set). RegisterWrapper is its only writer and writes
// it in the batch that writes the wrapper, so the wrappers of the source
// graph and the releases of this graph are the same set.
//
// Everything else a Release reports is derived when the record is read:
// its changes are schema.Diff of the superseded record's signature and its
// own. Records written by earlier versions of MDM may also hold a
// <…/Release/changes> literal, the changes as computed at registration;
// nothing reads it.

// NSRelease is the namespace of the release vocabulary.
const NSRelease = "http://www.essi.upc.edu/~snadal/BDIOntology/Release/"

// Release vocabulary.
var (
	// ReleaseGraphName names the release graph inside the dataset.
	ReleaseGraphName = rdf.IRI(NSRelease + "graph")
	// PropSeq is a wrapper's release sequence number (xsd:integer, 1-based).
	PropSeq = rdf.IRI(NSRelease + "seq")
	// PropReleasedAt is the release time (RFC 3339 with nanoseconds).
	PropReleasedAt = rdf.IRI(NSRelease + "at")
	// PropSupersedes links a wrapper to the one it superseded: the latest
	// earlier release of the same data source.
	PropSupersedes = rdf.IRI(NSRelease + "supersedes")
	// PropSignature is the signature at release time, a JSON array of
	// [attribute, type] pairs in signature order.
	PropSignature = rdf.IRI(NSRelease + "signature")
)

// ReleaseKind distinguishes the two release flavours of paper §2.2: "new
// wrappers are introduced either because we want to consider data from a
// new data source, or because the schema of an existing source has
// evolved".
type ReleaseKind string

// Release kinds.
const (
	NewSource  ReleaseKind = "new-source"
	NewVersion ReleaseKind = "new-version"
)

// Release is one entry of the release log: the release graph's record of
// one wrapper and what follows from it.
type Release struct {
	// Seq is the release sequence number (1-based, dense).
	Seq int
	// Kind is NewVersion when the release supersedes another.
	Kind ReleaseKind
	// At is the release time.
	At time.Time
	// SourceID is the wrapper's data source, read from the source graph.
	SourceID string
	// Supersedes is the previous wrapper of the source ("" for its first).
	Supersedes string
	// Signature is the wrapper's ordered, typed signature at release time;
	// Signature.Wrapper is the wrapper's name.
	Signature schema.Signature
	// Changes is schema.Diff of the superseded release's signature and
	// this one's (nil for a source's first release).
	Changes []schema.Change
	// Breaking mirrors schema.IsBreaking(Changes).
	Breaking bool
}

// Summary is a one-line description for logs and the REST API.
func (r Release) Summary() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "release #%d [%s] %s/%s", r.Seq, r.Kind, r.SourceID, r.Signature.Wrapper)
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
		e.Recorded.Signature.Wrapper, e.Recorded.SourceID, e.Recorded.Signature, e.Recorded.Seq, e.Offered)
}

// ReleaseOf returns the release record of a wrapper.
func (o *Ontology) ReleaseOf(wrapperName string) (Release, bool) {
	o.mu.RLock()
	defer o.mu.RUnlock()
	return o.releaseOf(WrapperIRI(wrapperName))
}

// Releases returns the release log in sequence order.
func (o *Ontology) Releases() []Release {
	o.mu.RLock()
	defer o.mu.RUnlock()
	rg, ok := o.ds.Lookup(ReleaseGraphName)
	if !ok {
		return nil
	}
	// The subjects are collected first: releaseOf reads rg again.
	ws := rg.Subjects(PropSeq, rdf.Any)
	out := make([]Release, 0, len(ws))
	for _, w := range ws {
		if rel, ok := o.releaseOf(w); ok {
			out = append(out, rel)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// releaseOf reads one record and derives the rest; the caller holds o.mu.
// The dataset may have been imported from a document MDM did not write, so
// a literal that does not parse leaves its field zero rather than failing
// the whole log.
func (o *Ontology) releaseOf(w rdf.Term) (Release, bool) {
	rg, ok := o.ds.Lookup(ReleaseGraphName)
	if !ok {
		return Release{}, false
	}
	seq, ok := rg.Object(w, PropSeq)
	if !ok {
		return Release{}, false
	}
	rel := Release{Kind: NewSource, Signature: recordedSignature(rg, w)}
	rel.Seq, _ = strconv.Atoi(seq.Value)
	if at, ok := rg.Object(w, PropReleasedAt); ok {
		rel.At, _ = time.Parse(time.RFC3339Nano, at.Value)
	}
	if prev, ok := rg.Object(w, PropSupersedes); ok {
		rel.Kind = NewVersion
		rel.Supersedes, _ = WrapperName(prev)
		rel.Changes = schema.Diff(recordedSignature(rg, prev), rel.Signature)
		rel.Breaking = schema.IsBreaking(rel.Changes)
	}
	if src, ok := o.Source().MatchFirst(rdf.Any, PropHasWrapper, w); ok {
		rel.SourceID, _ = SourceID(src.S)
	}
	return rel, true
}

// recordedSignature is the signature the release graph records for w.
func recordedSignature(rg *rdf.Graph, w rdf.Term) schema.Signature {
	var sig schema.Signature
	sig.Wrapper, _ = WrapperName(w)
	if lit, ok := rg.Object(w, PropSignature); ok {
		sig.Attributes = decodeAttributes(lit.Value)
	}
	return sig
}

// latestReleaseOf returns the released wrapper of a source that no later
// release supersedes; the caller holds o.mu.
func (o *Ontology) latestReleaseOf(source rdf.Term) (rdf.Term, bool) {
	rg, ok := o.ds.Lookup(ReleaseGraphName)
	if !ok {
		return rdf.Term{}, false
	}
	for _, w := range o.Source().Objects(source, PropHasWrapper) {
		if _, released := rg.Object(w, PropSeq); released && rg.Count(rdf.Any, PropSupersedes, w) == 0 {
			return w, true
		}
	}
	return rdf.Term{}, false
}

func encodeAttributes(attrs []schema.Attribute) string {
	pairs := make([][2]string, len(attrs))
	for i, a := range attrs {
		pairs[i] = [2]string{a.Name, a.Type.String()}
	}
	b, _ := json.Marshal(pairs) // strings only: cannot fail
	return string(b)
}

func decodeAttributes(lit string) []schema.Attribute {
	var pairs [][2]string
	if json.Unmarshal([]byte(lit), &pairs) != nil {
		return nil
	}
	attrs := make([]schema.Attribute, len(pairs))
	for i, p := range pairs {
		attrs[i].Name = p[0]
		for t := relalg.TypeNull; t <= relalg.TypeBool; t++ {
			if t.String() == p[1] {
				attrs[i].Type = t
			}
		}
	}
	return attrs
}
