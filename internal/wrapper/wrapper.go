// Package wrapper implements the wrapper side of the mediator/wrapper
// architecture MDM builds on (paper §1, §2.2). A wrapper is the access
// mechanism for one schema version of one data source — "an API request
// or a database query" — exposing a flat relation with a fixed signature
// w(a1..an).
//
// Wrappers implement relalg.RowSource, so rewritten queries execute
// directly over them. The package provides HTTP-backed wrappers (REST
// APIs delivering JSON/XML/CSV), in-memory wrappers and function
// wrappers, plus a Registry that groups wrappers by data source,
// mirroring the S:DataSource 1—* S:Wrapper metamodel.
package wrapper

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mdm/internal/relalg"
	"mdm/internal/schema"
)

// Wrapper is a named, signed row source attached to a data source.
type Wrapper interface {
	relalg.RowSource
	// Signature returns the wrapper's declared signature w(a1..an).
	Signature() schema.Signature
	// SourceID identifies the owning data source.
	SourceID() string
	// CurrentSignature re-extracts the signature from the source's
	// current payload; drift detection diffs it against Signature to
	// detect schema evolution.
	CurrentSignature(ctx context.Context) (schema.Signature, error)
}

// base carries the common wrapper state.
type base struct {
	name     string
	sourceID string
	sig      schema.Signature
	cols     []string // sig's attribute names, built once: Columns is read on every fetch
}

// sign sets the declared signature w(a1..an).
func (b *base) sign(attrs []schema.Attribute) {
	b.sig = schema.Signature{Wrapper: b.name, Attributes: attrs}
	b.cols = b.sig.AttributeNames()
}

func (b *base) Name() string                { return b.name }
func (b *base) SourceID() string            { return b.sourceID }
func (b *base) Signature() schema.Signature { return b.sig }

// Columns implements relalg.RowSource. The slice is shared between calls
// and must not be modified.
func (b *base) Columns() []string { return b.cols }

// relation converts docs to the columns the fetch context asks for
// (relalg.ColumnsFrom), or to the whole signature when it asks for none:
// a column the plan drops is a cell per document not worth converting.
// Fields absent from the signature are dropped; signed attributes absent
// from a doc become NULL. keys names the payload field of each renamed
// attribute (HTTP.keys); nil reads every attribute under its own name.
func (b *base) relation(ctx context.Context, docs []schema.Doc, keys map[string]string) *relalg.Relation {
	return schema.ToRelation(docs, narrow(b.sig.Attributes, relalg.ColumnsFrom(ctx)), keys)
}

// narrow returns the attributes cols names, in cols' order. A request
// for nothing, or for a column the signature lacks, gets attrs whole:
// the engine accepts a full-width answer to any request and projects it
// itself, so a request this wrapper cannot serve is one it ignores.
func narrow(attrs []schema.Attribute, cols []string) []schema.Attribute {
	if len(cols) == 0 {
		return attrs
	}
	out := make([]schema.Attribute, 0, len(cols))
	for _, c := range cols {
		for _, a := range attrs {
			if a.Name == c {
				out = append(out, a)
				break
			}
		}
	}
	if len(out) != len(cols) {
		return attrs
	}
	return out
}

// --- HTTP wrapper ---

// HTTP is a wrapper over a REST endpoint. The wrapper definition (which
// URL, which renames) is the steward-provided "query contained in the
// wrapper" from the paper: it may rename payload fields (foot for
// preferred_foot) and therefore decouples attribute names from raw
// payload keys.
type HTTP struct {
	base
	url     string
	format  schema.Format
	renames map[string]string // payload field -> attribute, as the steward wrote them
	keys    map[string]string // attribute -> the one payload field it is read from
	client  *http.Client
}

// HTTPOption configures an HTTP wrapper.
type HTTPOption func(*HTTP)

// WithFormat forces the payload format instead of auto-detection.
func WithFormat(f schema.Format) HTTPOption { return func(w *HTTP) { w.format = f } }

// WithRename maps a flattened payload field to a signature attribute.
// The attribute is then read from that field alone: an explicit rename
// wins over a raw payload field that already carries the attribute's
// name (the raw field is dropped), and of two fields renamed to one
// attribute the lexically first wins — never whichever a map iteration
// happened to visit last.
func WithRename(from, to string) HTTPOption {
	return func(w *HTTP) { w.renames[from] = to }
}

// NewHTTP registers an HTTP wrapper by fetching a sample payload and
// extracting its signature (the automated part of paper §2.2). The
// returned wrapper's signature reflects the payload after renames.
func NewHTTP(ctx context.Context, name, sourceID, url string, opts ...HTTPOption) (*HTTP, error) {
	w := &HTTP{
		base:    base{name: name, sourceID: sourceID},
		url:     url,
		renames: map[string]string{},
		client:  &http.Client{Timeout: 30 * time.Second},
	}
	for _, o := range opts {
		o(w)
	}
	if len(w.renames) > 0 {
		w.keys = make(map[string]string, len(w.renames))
		for from, to := range w.renames {
			if cur, ok := w.keys[to]; !ok || from < cur {
				w.keys[to] = from
			}
		}
	}
	sig, err := w.CurrentSignature(ctx)
	if err != nil {
		return nil, fmt.Errorf("wrapper %s: extract signature: %w", name, err)
	}
	w.sign(sig.Attributes)
	return w, nil
}

// maxPayloadBytes caps how much of a source payload a wrapper reads. It
// is a var only so tests can lower it; treat it as a constant.
var maxPayloadBytes = int64(64 << 20)

// ErrPayloadTooLarge reports a source payload exceeding the wrapper
// read cap. It is returned instead of silently flattening a truncated
// (and therefore likely corrupt) document.
var ErrPayloadTooLarge = errors.New("payload exceeds wrapper read cap")

// StatusError reports a non-200 response from a wrapped endpoint. It is
// a typed error (rather than a formatted string) so callers — the
// federation retry classifier in particular — can distinguish a
// server-side failure worth retrying (5xx, 429) from a client-side
// request error that will fail identically on every attempt (4xx).
type StatusError struct {
	// URL is the fetched endpoint.
	URL string
	// Code is the HTTP status code of the response.
	Code int
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("GET %s: status %d", e.URL, e.Code)
}

// fetchDocs GETs the endpoint and flattens the payload. The status code
// is checked before the body is read — an error response's body is
// diagnostics, not data — and payloads over the read cap fail with
// ErrPayloadTooLarge rather than being truncated.
func (w *HTTP) fetchDocs(ctx context.Context) ([]schema.Doc, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, &StatusError{URL: w.url, Code: resp.StatusCode}
	}
	// Read one byte past the cap so an exactly-cap-sized payload is
	// distinguishable from an oversized one.
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxPayloadBytes+1))
	if err != nil {
		return nil, err
	}
	if int64(len(body)) > maxPayloadBytes {
		return nil, fmt.Errorf("GET %s: %w (%d byte cap)", w.url, ErrPayloadTooLarge, maxPayloadBytes)
	}
	format := w.format
	if format == "" {
		format = schema.DetectFormat(resp.Header.Get("Content-Type"), body)
	}
	return schema.Flatten(format, body)
}

// CurrentSignature implements Wrapper.
func (w *HTTP) CurrentSignature(ctx context.Context) (schema.Signature, error) {
	docs, err := w.fetchDocs(ctx)
	if err != nil {
		return schema.Signature{}, err
	}
	return schema.Signature{Wrapper: w.name, Attributes: schema.Infer(w.renamed(docs))}, nil
}

// renamed rebuilds docs under their attribute names, for signature
// inference — the one path that needs whole renamed documents; Fetch
// reads each attribute's payload field straight out of the original doc.
// Both follow the rule documented on WithRename.
func (w *HTTP) renamed(docs []schema.Doc) []schema.Doc {
	if len(w.renames) == 0 {
		return docs
	}
	out := make([]schema.Doc, len(docs))
	for i, d := range docs {
		nd := make(schema.Doc, len(d))
		for k, v := range d {
			if to, ok := w.renames[k]; ok {
				if w.keys[to] == k {
					nd[to] = v
				}
			} else if _, shadowed := w.keys[k]; !shadowed {
				nd[k] = v
			}
		}
		out[i] = nd
	}
	return out
}

// Fetch implements relalg.RowSource.
func (w *HTTP) Fetch(ctx context.Context) (*relalg.Relation, error) {
	docs, err := w.fetchDocs(ctx)
	if err != nil {
		return nil, fmt.Errorf("wrapper %s: %w", w.name, err)
	}
	return w.relation(ctx, docs, w.keys), nil
}

// --- In-memory wrapper ---

// Mem is a wrapper over in-memory documents; used in tests, examples and
// the paper's demo fixtures.
type Mem struct {
	base
	mu   sync.RWMutex
	docs []schema.Doc
}

// NewMem builds an in-memory wrapper. The signature is inferred from the
// initial documents unless attrs is non-nil.
func NewMem(name, sourceID string, docs []schema.Doc, attrs []schema.Attribute) *Mem {
	if attrs == nil {
		attrs = schema.Infer(docs)
	}
	w := &Mem{base: base{name: name, sourceID: sourceID}, docs: docs}
	w.sign(attrs)
	return w
}

// Fetch implements relalg.RowSource.
func (w *Mem) Fetch(ctx context.Context) (*relalg.Relation, error) {
	w.mu.RLock()
	defer w.mu.RUnlock()
	return w.relation(ctx, w.docs, nil), nil
}

// CurrentSignature implements Wrapper.
func (w *Mem) CurrentSignature(context.Context) (schema.Signature, error) {
	w.mu.RLock()
	defer w.mu.RUnlock()
	return schema.Signature{Wrapper: w.name, Attributes: schema.Infer(w.docs)}, nil
}

// SetDocs replaces the wrapper's documents (simulating source-side data
// or schema change).
func (w *Mem) SetDocs(docs []schema.Doc) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.docs = docs
}

// --- Function wrapper ---

// Func adapts an arbitrary Go function as a wrapper (Spark jobs, Mongo
// queries and other steward-defined access mechanisms from the paper are
// all "some code that yields rows").
type Func struct {
	base
	fn func(ctx context.Context) ([]schema.Doc, error)
}

// NewFunc builds a function wrapper with a declared signature.
func NewFunc(name, sourceID string, attrs []schema.Attribute, fn func(ctx context.Context) ([]schema.Doc, error)) *Func {
	w := &Func{base: base{name: name, sourceID: sourceID}, fn: fn}
	w.sign(attrs)
	return w
}

// Fetch implements relalg.RowSource.
func (w *Func) Fetch(ctx context.Context) (*relalg.Relation, error) {
	docs, err := w.fn(ctx)
	if err != nil {
		return nil, fmt.Errorf("wrapper %s: %w", w.name, err)
	}
	return w.relation(ctx, docs, nil), nil
}

// CurrentSignature implements Wrapper.
func (w *Func) CurrentSignature(ctx context.Context) (schema.Signature, error) {
	docs, err := w.fn(ctx)
	if err != nil {
		return schema.Signature{}, err
	}
	return schema.Signature{Wrapper: w.name, Attributes: schema.Infer(docs)}, nil
}

// --- Registry ---

// Registry indexes wrappers by name and groups them by data source. It
// is the runtime companion of the source graph: one S:DataSource node
// per source ID, one S:Wrapper node per registered wrapper.
type Registry struct {
	mu       sync.RWMutex
	byName   map[string]Wrapper
	bySource map[string][]string // source ID -> wrapper names in order
	gen      atomic.Uint64       // successful Register and Remove calls
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]Wrapper{}, bySource: map[string][]string{}}
}

// Register adds a wrapper; wrapper names are globally unique.
func (r *Registry) Register(w Wrapper) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[w.Name()]; dup {
		return fmt.Errorf("wrapper: duplicate wrapper name %q", w.Name())
	}
	r.byName[w.Name()] = w
	r.bySource[w.SourceID()] = append(r.bySource[w.SourceID()], w.Name())
	r.gen.Add(1)
	return nil
}

// Generation counts the registry's changes (successful Register and
// Remove calls). Holders of Wrapper objects obtained from Get — rewritten
// plans scan them directly — compare generations to learn that a name
// may now resolve to a different object, or to none.
func (r *Registry) Generation() uint64 { return r.gen.Load() }

// Get returns a wrapper by name.
func (r *Registry) Get(name string) (Wrapper, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	w, ok := r.byName[name]
	return w, ok
}

// Remove deletes a wrapper, reporting whether it existed.
func (r *Registry) Remove(name string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	w, ok := r.byName[name]
	if !ok {
		return false
	}
	delete(r.byName, name)
	names := r.bySource[w.SourceID()]
	for i, n := range names {
		if n == name {
			r.bySource[w.SourceID()] = append(names[:i], names[i+1:]...)
			break
		}
	}
	r.gen.Add(1)
	return true
}

// BySource returns the wrappers registered for a data source, in
// registration order (i.e. release order).
func (r *Registry) BySource(sourceID string) []Wrapper {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := r.bySource[sourceID]
	out := make([]Wrapper, 0, len(names))
	for _, n := range names {
		out = append(out, r.byName[n])
	}
	return out
}

// Sources returns all known data source IDs, sorted.
func (r *Registry) Sources() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.bySource))
	for s := range r.bySource {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// Names returns all wrapper names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.byName))
	for n := range r.byName {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Len returns the number of registered wrappers.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.byName)
}
