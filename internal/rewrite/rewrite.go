package rewrite

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"mdm/internal/bdi"
	"mdm/internal/federate"
	"mdm/internal/obs"
	"mdm/internal/rdf"
	"mdm/internal/relalg"
	"mdm/internal/wrapper"
)

var (
	obsCacheHits = obs.Default.NewCounter("mdm_rewrite_cache_hits_total",
		"Walk rewrites answered from the rewrite-result cache.")
	obsCacheMisses = obs.Default.NewCounter("mdm_rewrite_cache_misses_total",
		"Walk rewrites that ran the three-phase algorithm (first walk after an ontology or registry change, never-seen walk, failed rewrite).")
)

// Rewriter resolves walks over an ontology into federated plans over a
// wrapper registry. It is safe for concurrent use.
//
// The ontology changes once per release and the same walks run many
// times in between, so a Rewriter remembers its results: see stamp for
// what invalidates them and Result for the contract that sharing puts
// on callers.
type Rewriter struct {
	ont *bdi.Ontology
	reg *wrapper.Registry

	mu   sync.Mutex
	at   stamp              // what every entry of memo was derived from
	memo map[string]*Result // walk key -> result; nil when empty
}

// New returns a Rewriter over the given ontology and wrappers.
func New(ont *bdi.Ontology, reg *wrapper.Registry) *Rewriter {
	return &Rewriter{ont: ont, reg: reg}
}

// maxCached bounds the memo; one more distinct walk drops it whole. Two
// entries, programs included, retain 40 KB for the football walks at 16
// schema versions (TestCacheRetainedBytes), so a full memo holds about
// 5 MB. It is a constant because no deployment has a reason to choose
// another value: "hundreds of analytical processes" (paper §1) fit, and
// a population that does not fit only costs it the rewrites it paid
// before.
const maxCached = 256

// stamp is everything a rewrite result is a function of besides the walk
// itself; it is the one place that knows. A Rewriter's memo belongs to
// exactly one stamp: a walk is looked up under the stamp read before it
// is (re)written, a different stamp drops the whole memo, and a result
// is stored only if the memo still belongs to the stamp its rewrite
// started from. One stamp for the whole memo, because every component
// is global — a release touches the mapping graphs every walk reads —
// and comparing two words per request is cheaper than tracking which
// entries a write could have affected.
//
// Every counter is bumped after the change it counts is visible and
// never goes back — an ontology reads one dataset for as long as it
// lives, so its counter never starts over — and so a stamp read at one
// time equals a stamp read later only if nothing changed in between: a
// result derived after reading s is right for everyone who later reads
// s.
type stamp struct {
	// changes counts every change to the dataset, including the ones
	// that bypass bdi.Ontology: triples added, mapping graphs created or
	// dropped, prefixes bound (plan column names and the SPARQL rendering
	// go through CompactTerm): rdf.Dataset.Changes.
	changes uint64
	// registry counts wrapper registrations and removals; plans hold the
	// Scan.Src objects the registry resolved: wrapper.Registry.Generation.
	registry uint64
}

// stampMask, set only by tests, blanks one component of every stamp read:
// the mutation-kill rows of TestStampComponentsLoadBearing show that the
// differential test fails without each of them.
var stampMask func(stamp) stamp

func (r *Rewriter) stampNow() stamp {
	s := stamp{
		changes:  r.ont.Dataset().Changes(),
		registry: r.reg.Generation(),
	}
	if stampMask != nil {
		s = stampMask(s)
	}
	return s
}

// appendWalkKey appends an injective encoding of everything a rewrite
// reads from the walk: concepts in order, each with its features in
// order and their aliases, then the relations in order. Features filed
// under a concept the walk does not list take part in validation only;
// they follow in sorted order.
func appendWalkKey(b []byte, w *Walk) []byte {
	b = binary.AppendUvarint(b, uint64(len(w.Concepts)))
	for _, c := range w.Concepts {
		b = appendConceptKey(b, w, c)
	}
	b = binary.AppendUvarint(b, uint64(len(w.Relations)))
	for _, rel := range w.Relations {
		b = appendTermKey(appendTermKey(appendTermKey(b, rel.S), rel.P), rel.O)
	}
	var unlisted []rdf.Term
	for c, feats := range w.Features {
		if len(feats) > 0 && !containsTerm(w.Concepts, c) {
			unlisted = append(unlisted, c)
		}
	}
	if len(unlisted) > 0 {
		for _, c := range sortTerms(unlisted) {
			b = appendConceptKey(b, w, c)
		}
	}
	return b
}

func appendConceptKey(b []byte, w *Walk, c rdf.Term) []byte {
	b = appendTermKey(b, c)
	b = binary.AppendUvarint(b, uint64(len(w.Features[c])))
	for _, f := range w.Features[c] {
		b = appendStringKey(appendTermKey(b, f), w.Aliases[f])
	}
	return b
}

func appendTermKey(b []byte, t rdf.Term) []byte {
	b = append(b, byte(t.Kind))
	return appendStringKey(appendStringKey(appendStringKey(b, t.Value), t.Datatype), t.Lang)
}

// appendStringKey length-prefixes s, which keeps the encoding injective.
func appendStringKey(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// Result is the outcome of rewriting a walk.
//
// Results are shared and read-only: a Rewriter hands the same *Result to
// every caller that asks for the same walk until the ontology or the
// registry changes, possibly to several goroutines at once, and the CQs
// of one Result share sub-plans and slices. Nothing reachable from a
// Result may be modified; execution (federate, relalgtest.Execute) and
// the REST layer only read.
type Result struct {
	// Plan is the executable union of conjunctive queries.
	Plan relalg.Plan
	// Program is Plan prepared for the federation engine, once per
	// rewrite: every run of the walk binds it.
	Program *federate.Program
	// SPARQL is the walk's SPARQL rendering (display only).
	SPARQL string
	// CQs lists the conjunctive queries in the union, one entry per
	// wrapper combination, for inspection (Figure 8's algebra line).
	CQs []CQ
	// OutputColumns are the projected column names in order.
	OutputColumns []string
	// ExpandedFeatures are identifier features added by query expansion
	// (phase a) that are not part of the projection.
	ExpandedFeatures []rdf.Term
}

// CQ describes one conjunctive query of the union.
type CQ struct {
	// Wrappers are the wrapper names joined by this CQ, sorted.
	Wrappers []string
	plan     relalg.Plan
}

// Algebra renders the CQ's relational algebra expression. It is rendered
// on request rather than kept: the strings of a 16-CQ union are a third
// of what a remembered Result would otherwise retain.
func (c CQ) Algebra() string { return relalg.Algebra(c.plan) }

// Rewrite runs the three-phase algorithm on a walk, or returns the
// result it already produced for the same walk over the same ontology
// and registry state.
func (r *Rewriter) Rewrite(w *Walk) (*Result, error) { return r.RewriteTrace(w, nil) }

// RewriteTrace is Rewrite with an observability trace attached: it
// records the rewrite stage and the rewrite_cache=hit|miss attribute on
// tr. A nil tr behaves exactly like Rewrite.
func (r *Rewriter) RewriteTrace(w *Walk, tr *obs.Trace) (*Result, error) {
	t0 := time.Now()
	res, hit, err := r.cached(w)
	tr.StageDur("rewrite", time.Since(t0))
	if hit {
		obsCacheHits.Inc()
		tr.SetAttr("rewrite_cache", "hit")
	} else {
		obsCacheMisses.Inc()
		tr.SetAttr("rewrite_cache", "miss")
	}
	return res, err
}

// cached wraps the one rewrite path with the memo. Errors are not
// remembered: they are cheap to find again and the walk that caused one
// is usually about to be corrected.
func (r *Rewriter) cached(w *Walk) (res *Result, hit bool, err error) {
	at := r.stampNow() // before rewriting: see stamp
	var buf [512]byte
	key := appendWalkKey(buf[:0], w)

	r.mu.Lock()
	if r.at != at {
		r.at, r.memo = at, nil
	}
	res = r.memo[string(key)]
	r.mu.Unlock()
	if res != nil {
		return res, true, nil
	}

	if res, err = r.rewrite(w); err != nil {
		return nil, false, err
	}
	r.mu.Lock()
	// A release that raced this rewrite has moved the memo on; the result
	// may predate it and must not be filed under its stamp.
	if r.at == at {
		if r.memo == nil || len(r.memo) >= maxCached {
			r.memo = map[string]*Result{}
		}
		r.memo[string(key)] = res
	}
	r.mu.Unlock()
	return res, false, nil
}

// rewrite is the three-phase algorithm.
func (r *Rewriter) rewrite(w *Walk) (*Result, error) {
	if err := w.Validate(r.ont); err != nil {
		return nil, err
	}
	// --- Phase (a): query expansion ------------------------------------
	need, expanded, err := r.expand(w)
	if err != nil {
		return nil, err
	}

	// --- Phase (b): intra-concept generation ---------------------------
	// For each concept, compute which wrappers can contribute (cover the
	// concept and provide its identifier) and what they provide. The
	// actual cover choice happens jointly with phase (c) so that
	// relation-witness wrappers already in a combination are not
	// duplicated by redundant per-concept covers.
	coverages := map[rdf.Term]conceptCoverage{}
	for _, c := range w.Concepts {
		cov, err := r.conceptCoverage(c, need[c])
		if err != nil {
			return nil, err
		}
		coverages[c] = cov
	}

	// --- Phase (c): inter-concept generation ---------------------------
	combos, err := r.interConcept(w, need, coverages)
	if err != nil {
		return nil, err
	}

	// Assemble the projection.
	var projFeatures []rdf.Term
	for _, c := range w.Concepts {
		projFeatures = append(projFeatures, w.Features[c]...)
	}
	outCols := make([]string, len(projFeatures))
	seen := map[string]int{}
	for i, f := range projFeatures {
		name := w.columnName(f)
		seen[name]++
		if seen[name] > 1 {
			name = fmt.Sprintf("%s_%d", name, seen[name])
		}
		outCols[i] = name
	}

	res := &Result{
		SPARQL:           w.SPARQL(r.ont),
		OutputColumns:    outCols,
		ExpandedFeatures: sortTerms(expanded),
	}
	asm := newAssembly(r, projFeatures, outCols)
	var plans []relalg.Plan
	for _, combo := range combos {
		plan, err := asm.assemble(combo)
		if err != nil {
			return nil, err
		}
		plan = asm.share(relalg.Optimize(plan))
		res.CQs = append(res.CQs, CQ{Wrappers: combo, plan: plan})
		plans = append(plans, plan)
	}
	if len(plans) == 0 {
		return nil, fmt.Errorf("rewrite: no wrapper combination answers the walk")
	}
	if len(plans) == 1 {
		res.Plan = plans[0]
	} else {
		res.Plan = relalg.NewDistinct(relalg.NewUnion(plans...))
	}
	if res.Program, err = federate.Prepare(res.Plan); err != nil {
		return nil, err
	}
	return res, nil
}

// expand is phase (a), query expansion: every walk concept contributes
// its identifier feature, whether or not the analyst selected it; joins
// are only legal on identifiers. need maps each concept to its projected
// features and its identifier, and expanded lists the identifiers added.
func (r *Rewriter) expand(w *Walk) (need map[rdf.Term][]rdf.Term, expanded []rdf.Term, err error) {
	need = map[rdf.Term][]rdf.Term{}
	for _, c := range w.Concepts {
		feats := append([]rdf.Term(nil), w.Features[c]...)
		id, ok := r.ont.IdentifierOf(c)
		if !ok {
			return nil, nil, fmt.Errorf("rewrite: concept %s has no identifier feature; cannot expand query", c)
		}
		if !containsTerm(feats, id) {
			feats = append(feats, id)
			expanded = append(expanded, id)
		}
		need[c] = feats
	}
	return need, expanded, nil
}

// conceptCoverage records, for one walk concept, which wrappers can
// contribute tuples (they cover the concept and map its identifier) and
// which of the needed features each provides.
type conceptCoverage struct {
	concept    rdf.Term
	candidates []string                       // sorted wrapper names
	provides   map[string]map[rdf.Term]string // wrapper -> feature -> attribute
}

// conceptCoverage computes the candidates for one concept (phase b
// groundwork). It fails fast when a needed feature is provided by no
// wrapper at all.
func (r *Rewriter) conceptCoverage(c rdf.Term, feats []rdf.Term) (conceptCoverage, error) {
	id, _ := r.ont.IdentifierOf(c)
	cov := conceptCoverage{concept: c, provides: map[string]map[rdf.Term]string{}}
	for _, wname := range r.ont.WrappersCovering(c) {
		m := map[rdf.Term]string{}
		for _, f := range feats {
			if r.ont.WrapperProvidesFeature(wname, c, f) {
				if attr, ok := r.ont.AttributeForFeature(wname, f); ok {
					m[f] = attr
				}
			}
		}
		// Without the identifier a wrapper's tuples cannot be joined or
		// deduplicated, so it cannot contribute.
		if _, hasID := m[id]; !hasID {
			continue
		}
		cov.candidates = append(cov.candidates, wname)
		cov.provides[wname] = m
	}
	if len(cov.candidates) == 0 {
		return cov, fmt.Errorf("rewrite: no wrapper provides concept %s with its identifier", c)
	}
	sort.Strings(cov.candidates)
	for _, f := range feats {
		provided := false
		for _, m := range cov.provides {
			if _, ok := m[f]; ok {
				provided = true
				break
			}
		}
		if !provided {
			return cov, fmt.Errorf("rewrite: feature %s of concept %s is not provided by any wrapper",
				f.LocalName(), c)
		}
	}
	return cov, nil
}

// minimalCovers enumerates the minimal candidate subsets that provide
// every feature in feats not already provided by the chosen set. When
// nothing remains, the single empty cover is returned.
func (cov conceptCoverage) minimalCovers(feats []rdf.Term, chosen map[string]bool) [][]string {
	remaining := feats[:0:0]
	for _, f := range feats {
		already := false
		for wname := range chosen {
			if _, ok := cov.provides[wname][f]; ok {
				already = true
				break
			}
		}
		if !already {
			remaining = append(remaining, f)
		}
	}
	if len(remaining) == 0 {
		return [][]string{nil}
	}
	var covers [][]string
	allCovered := func(covered map[rdf.Term]bool) bool {
		for _, f := range remaining {
			if !covered[f] {
				return false
			}
		}
		return true
	}
	var search func(start int, picked []string, covered map[rdf.Term]bool)
	search = func(start int, picked []string, covered map[rdf.Term]bool) {
		if allCovered(covered) {
			covers = append(covers, append([]string(nil), picked...))
			return
		}
		for i := start; i < len(cov.candidates); i++ {
			wname := cov.candidates[i]
			adds := false
			for _, f := range remaining {
				if _, ok := cov.provides[wname][f]; ok && !covered[f] {
					adds = true
					break
				}
			}
			if !adds {
				continue
			}
			nc := map[rdf.Term]bool{}
			for k := range covered {
				nc[k] = true
			}
			for f := range cov.provides[wname] {
				nc[f] = true
			}
			search(i+1, append(picked, wname), nc)
		}
	}
	search(0, nil, map[rdf.Term]bool{})
	return dropSupersets(covers)
}

// dropSupersets removes covers that are strict supersets of another
// cover (minimality). Its input holds no two equal covers, so it has no
// duplicates to drop: minimalCovers' search picks distinct candidates in
// index order, so it reaches each set once, and interConcept files each
// combination once.
func dropSupersets(covers [][]string) [][]string {
	asSet := make([]map[string]bool, len(covers))
	for i, c := range covers {
		asSet[i] = map[string]bool{}
		for _, w := range c {
			asSet[i][w] = true
		}
	}
	var out [][]string
	for i, c := range covers {
		minimal := true
		for j := range covers {
			if len(asSet[j]) < len(asSet[i]) && subset(asSet[j], asSet[i]) {
				minimal = false
				break
			}
		}
		if minimal {
			out = append(out, c)
		}
	}
	return out
}

func subset(a, b map[string]bool) bool {
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// maxCombos bounds the inter-concept search; far beyond any sane mapping
// configuration, it guards against combinatorial blow-up. It is a var
// only so tests can lower it; treat it as a constant.
var maxCombos = 4096

// TooManyCQsError reports a walk whose rewriting has more wrapper
// combinations than the search enumerates. The walk is refused: a union
// cut off at the bound would answer with rows missing and no sign of it.
type TooManyCQsError struct {
	// Limit is the bound that was exceeded.
	Limit int
}

func (e *TooManyCQsError) Error() string {
	return fmt.Sprintf("rewrite: rewriting exceeds %d conjunctive queries", e.Limit)
}

// interConcept enumerates wrapper combinations: first a witness wrapper
// per relation edge (a witness covers the relation triple and maps the
// identifiers of both endpoints, materializing the edge as a joinable
// id-id relation), then, per concept, a minimal cover of the features
// not already provided by the wrappers chosen so far. Combinations are
// deduplicated by wrapper set, and sets that are strict supersets of
// another combination are pruned: under LAV certain-answer semantics the
// extra wrapper can only restrict the subset combination's answer.
//
// A combination is the sorted, deduplicated wrapper set of one
// conjunctive query.
func (r *Rewriter) interConcept(w *Walk, need map[rdf.Term][]rdf.Term, coverages map[rdf.Term]conceptCoverage) ([][]string, error) {
	witnessOpts := make([][]string, len(w.Relations))
	for i, rel := range w.Relations {
		idS, okS := r.ont.IdentifierOf(rel.S)
		idO, okO := r.ont.IdentifierOf(rel.O)
		if !okS || !okO {
			return nil, fmt.Errorf("rewrite: relation %s endpoint lacks an identifier", rel)
		}
		for _, wname := range r.ont.MappedWrappers() {
			if !r.ont.WrapperCoversRelation(wname, rel) {
				continue
			}
			if _, ok := r.ont.AttributeForFeature(wname, idS); !ok {
				continue
			}
			if _, ok := r.ont.AttributeForFeature(wname, idO); !ok {
				continue
			}
			witnessOpts[i] = append(witnessOpts[i], wname)
		}
		if len(witnessOpts[i]) == 0 {
			return nil, fmt.Errorf("rewrite: no wrapper witnesses relation %s —%s→ %s",
				rel.S.LocalName(), rel.P.LocalName(), rel.O.LocalName())
		}
	}

	var out [][]string
	seen := map[string]bool{}
	exceeded := false
	emit := func(set map[string]bool) {
		names := make([]string, 0, len(set))
		for n := range set {
			names = append(names, n)
		}
		sort.Strings(names)
		key := strings.Join(names, ",")
		if seen[key] {
			return
		}
		if len(out) >= maxCombos {
			exceeded = true
			return
		}
		seen[key] = true
		out = append(out, names)
	}

	var recConcepts func(j int, set map[string]bool)
	recConcepts = func(j int, set map[string]bool) {
		if exceeded {
			return
		}
		if j == len(w.Concepts) {
			emit(set)
			return
		}
		c := w.Concepts[j]
		for _, cover := range coverages[c].minimalCovers(need[c], set) {
			ns := set
			if len(cover) > 0 {
				ns = map[string]bool{}
				for k := range set {
					ns[k] = true
				}
				for _, wname := range cover {
					ns[wname] = true
				}
			}
			recConcepts(j+1, ns)
		}
	}
	var recWitness func(i int, set map[string]bool)
	recWitness = func(i int, set map[string]bool) {
		if exceeded {
			return
		}
		if i == len(w.Relations) {
			recConcepts(0, set)
			return
		}
		for _, wname := range witnessOpts[i] {
			ns := set
			if !set[wname] {
				ns = map[string]bool{}
				for k := range set {
					ns[k] = true
				}
				ns[wname] = true
			}
			recWitness(i+1, ns)
		}
	}
	recWitness(0, map[string]bool{})
	if exceeded {
		return nil, &TooManyCQsError{Limit: maxCombos}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("rewrite: no wrapper combination covers all relation edges of the walk")
	}
	return dropSupersets(out), nil
}

// assembly turns the combinations of one rewrite into plans. It derives
// each per-wrapper and per-feature fact once for the whole union — at n
// schema versions every CQ but one would otherwise re-read the same
// mapping graphs — and makes the CQs share what is identical between
// them, so that a remembered Result stays small.
type assembly struct {
	r *Rewriter
	// The final projection, the same for every CQ: the projected
	// features' columns, and their renaming to the output columns.
	featCols []string
	outNames [][2]string

	cols   map[rdf.Term]string // feature -> plan column
	leaves map[string]leaf     // wrapper name -> base plan
	plans  map[planKey]relalg.Plan
	pairs  map[string][][2]string
	lists  map[string][]string
}

// leaf is one wrapper's base plan and the identifier columns it offers
// to joins.
type leaf struct {
	plan   relalg.Plan
	idCols []string
}

func newAssembly(r *Rewriter, projFeatures []rdf.Term, outCols []string) *assembly {
	a := &assembly{
		r:      r,
		cols:   map[rdf.Term]string{},
		leaves: map[string]leaf{},
		plans:  map[planKey]relalg.Plan{},
		pairs:  map[string][][2]string{},
		lists:  map[string][]string{},
	}
	for i, f := range projFeatures {
		a.featCols = append(a.featCols, a.col(f))
		a.outNames = append(a.outNames, [2]string{a.col(f), outCols[i]})
	}
	return a
}

// col names the plan column for a feature: its CURIE when a prefix is
// bound (readable in algebra renderings), else the full IRI form.
func (a *assembly) col(f rdf.Term) string {
	c, ok := a.cols[f]
	if !ok {
		c = a.r.ont.Dataset().Prefixes().CompactTerm(f)
		a.cols[f] = c
	}
	return c
}

// assemble builds the CQ plan for a combination: per-wrapper base plans
// (scan + rename attributes to feature IRIs), joined greedily on shared
// identifier-feature columns, then projected and renamed to the output
// columns.
func (a *assembly) assemble(names []string) (relalg.Plan, error) {
	// One base plan per distinct wrapper in the combination (feature
	// providers and relation witnesses alike). A wrapper may serve
	// several concepts (e.g. w1 covers Player and the Team identifier);
	// its sameAs links are applied once.
	//
	// Identifier features are the only legal join columns (paper §2.3).
	// Collect them from every participating wrapper's sameAs targets so
	// relation witnesses contribute their join columns too.
	isID := map[string]bool{}
	for _, wname := range names {
		l, err := a.leaf(wname)
		if err != nil {
			return nil, err
		}
		for _, c := range l.idCols {
			isID[c] = true
		}
	}

	// Greedy connected join on shared identifier columns.
	remaining := append([]string(nil), names...)
	plan := a.leaves[remaining[0]].plan
	remaining = remaining[1:]
	for len(remaining) > 0 {
		progress := false
		for i, wname := range remaining {
			base := a.leaves[wname].plan
			on := sharedIDColumns(plan.Columns(), base.Columns(), isID)
			if len(on) == 0 {
				continue
			}
			plan = relalg.NewJoin(plan, base, on)
			remaining = append(remaining[:i], remaining[i+1:]...)
			progress = true
			break
		}
		if !progress {
			return nil, fmt.Errorf("rewrite: wrapper combination %v is not joinable on identifier features", names)
		}
	}

	// Final projection: feature IRIs -> output column names.
	return relalg.NewRename(relalg.NewProject(plan, a.featCols...), a.outNames), nil
}

// leaf builds scan+rename for one wrapper: attributes that have a
// sameAs link are renamed to their feature IRI; unmapped attributes are
// dropped by a projection.
func (a *assembly) leaf(wname string) (leaf, error) {
	if l, ok := a.leaves[wname]; ok {
		return l, nil
	}
	wr, ok := a.r.reg.Get(wname)
	if !ok {
		return leaf{}, fmt.Errorf("rewrite: wrapper %q has a mapping but is not registered", wname)
	}
	m, ok := a.r.ont.MappingOf(wname)
	if !ok {
		return leaf{}, fmt.Errorf("rewrite: wrapper %q has no LAV mapping", wname)
	}
	var l leaf
	var mapping [][2]string
	var keep []string
	// Deterministic order over attributes.
	attrs := make([]string, 0, len(m.SameAs))
	for attr := range m.SameAs {
		attrs = append(attrs, attr)
	}
	sort.Strings(attrs)
	have := map[string]bool{}
	for _, col := range wr.Columns() {
		have[col] = true
	}
	for _, attr := range attrs {
		if !have[attr] {
			return leaf{}, fmt.Errorf("rewrite: mapping of %s references attribute %q missing from wrapper signature", wname, attr)
		}
		f := m.SameAs[attr]
		mapping = append(mapping, [2]string{attr, a.col(f)})
		keep = append(keep, a.col(f))
		if a.r.ont.IsIdentifier(f) {
			l.idCols = append(l.idCols, a.col(f))
		}
	}
	if len(keep) == 0 {
		return leaf{}, fmt.Errorf("rewrite: wrapper %s maps no attributes", wname)
	}
	renamed := relalg.NewRename(relalg.NewScan(wr), mapping)
	l.plan = relalg.NewProject(renamed, keep...)
	a.leaves[wname] = l
	return l, nil
}

// planKey identifies a plan node up to structure, given children that
// are already canonical: operator, children, and its column list or
// pairs flattened into one string.
type planKey struct {
	op   rune
	l, r relalg.Plan
	spec string
}

// share returns the canonical copy of an optimized CQ plan: a node
// structurally equal to one an earlier CQ of this rewrite produced (the
// same wrapper's leaf under the same projection) is replaced by that
// node, and nodes that differ only below still share their column lists
// and pairs. The optimizer builds p afresh for every CQ, so p is ours to
// edit in place.
func (a *assembly) share(p relalg.Plan) relalg.Plan {
	var k planKey
	switch n := p.(type) {
	case *relalg.Project:
		n.Child = a.share(n.Child)
		k = planKey{op: 'π', l: n.Child, spec: strings.Join(n.Cols, "\x00")}
		n.Cols = canonical(a.lists, k.spec, n.Cols)
	case *relalg.Rename:
		n.Child = a.share(n.Child)
		k = planKey{op: 'ρ', l: n.Child, spec: joinPairs(n.Mapping)}
		n.Mapping = canonical(a.pairs, k.spec, n.Mapping)
	case *relalg.Join:
		n.L, n.R = a.share(n.L), a.share(n.R)
		k = planKey{op: '⋈', l: n.L, r: n.R, spec: joinPairs(n.On)}
		n.On = canonical(a.pairs, k.spec, n.On)
	default:
		return p // a Scan: already one per wrapper (see leaf)
	}
	if q, ok := a.plans[k]; ok {
		return q
	}
	a.plans[k] = p
	return p
}

// canonical returns the first value filed under key, filing v if there
// is none.
func canonical[T any](m map[string]T, key string, v T) T {
	if first, ok := m[key]; ok {
		return first
	}
	m[key] = v
	return v
}

func joinPairs(pairs [][2]string) string {
	var sb strings.Builder
	for _, p := range pairs {
		sb.WriteString(p[0])
		sb.WriteByte(0)
		sb.WriteString(p[1])
		sb.WriteByte(0)
	}
	return sb.String()
}

// sharedIDColumns returns natural-join pairs over identifier features
// present on both sides.
func sharedIDColumns(l, r []string, isID map[string]bool) [][2]string {
	rset := map[string]bool{}
	for _, c := range r {
		rset[c] = true
	}
	var on [][2]string
	for _, c := range l {
		if isID[c] && rset[c] {
			on = append(on, [2]string{c, c})
		}
	}
	return on
}

func containsTerm(ts []rdf.Term, t rdf.Term) bool {
	for _, e := range ts {
		if e == t {
			return true
		}
	}
	return false
}
