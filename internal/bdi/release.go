package bdi

import (
	"encoding/json"
	"sort"
	"strconv"
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
// superseded, the ordered and typed signature (the source graph keeps
// attribute names as a set), and the releasing caller's account of the
// schema changes. RegisterWrapper is its only writer and writes it in the
// batch that writes the wrapper, so the wrappers of the source graph and
// the releases of this graph are the same set.

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
	// PropChanges is the releasing caller's description of the schema
	// changes against the superseded wrapper, stored as given.
	PropChanges = rdf.IRI(NSRelease + "changes")
)

// Release is the release graph's record of one wrapper.
type Release struct {
	// Seq is the release sequence number (1-based, dense).
	Seq int
	// At is the release time.
	At time.Time
	// SourceID is the wrapper's data source, read from the source graph.
	SourceID string
	// Supersedes is the previous wrapper of the source ("" for its first).
	Supersedes string
	// Signature is the wrapper's ordered, typed signature at release time.
	Signature schema.Signature
	// Changes is what RegisterWrapper's describe returned ("" when there
	// was nothing to supersede or nothing to say).
	Changes string
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
	var out []Release
	rg.EachMatch(rdf.Any, PropSeq, rdf.Any, func(t rdf.Triple) bool {
		if rel, ok := o.releaseOf(t.S); ok {
			out = append(out, rel)
		}
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// releaseOf reads one record; the caller holds o.mu. The dataset may have
// been imported from a document MDM did not write, so a literal that does
// not parse leaves its field zero rather than failing the whole log.
func (o *Ontology) releaseOf(w rdf.Term) (Release, bool) {
	rg, ok := o.ds.Lookup(ReleaseGraphName)
	if !ok {
		return Release{}, false
	}
	seq, ok := rg.Object(w, PropSeq)
	if !ok {
		return Release{}, false
	}
	var rel Release
	rel.Seq, _ = strconv.Atoi(seq.Value)
	rel.Signature.Wrapper, _ = WrapperName(w)
	if at, ok := rg.Object(w, PropReleasedAt); ok {
		rel.At, _ = time.Parse(time.RFC3339Nano, at.Value)
	}
	if prev, ok := rg.Object(w, PropSupersedes); ok {
		rel.Supersedes, _ = WrapperName(prev)
	}
	if sig, ok := rg.Object(w, PropSignature); ok {
		rel.Signature.Attributes = decodeAttributes(sig.Value)
	}
	if changes, ok := rg.Object(w, PropChanges); ok {
		rel.Changes = changes.Value
	}
	if src, ok := o.Source().MatchFirst(rdf.Any, PropHasWrapper, w); ok {
		rel.SourceID, _ = SourceID(src.S)
	}
	return rel, true
}

// latestReleaseOf returns the release of a source that no later one
// supersedes; the caller holds o.mu.
func (o *Ontology) latestReleaseOf(source rdf.Term) (Release, bool) {
	rg, ok := o.ds.Lookup(ReleaseGraphName)
	if !ok {
		return Release{}, false
	}
	for _, w := range o.Source().Objects(source, PropHasWrapper) {
		if rg.Count(rdf.Any, PropSupersedes, w) == 0 {
			if rel, ok := o.releaseOf(w); ok {
				return rel, true
			}
		}
	}
	return Release{}, false
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
