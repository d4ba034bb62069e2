package rewrite

// StampComponents names the components of a stamp, for MaskStamp.
var StampComponents = []string{"changes", "registry"}

// MaskStamp makes every stamp read from now on ignore one component, as
// if the stamp did not have it, until the returned function is called.
func MaskStamp(component string) (restore func()) {
	stampMask = func(s stamp) stamp {
		switch component {
		case "changes":
			s.changes = 0
		case "registry":
			s.registry = 0
		default:
			panic("rewrite: no stamp component " + component)
		}
		return s
	}
	return func() { stampMask = nil }
}

// MaxCached is the memo's capacity.
const MaxCached = maxCached

// Cached returns how many results the memo holds.
func (r *Rewriter) Cached() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.memo)
}

// SetMaxCombos lowers the inter-concept search bound until the returned
// function is called.
func SetMaxCombos(n int) (restore func()) {
	old := maxCombos
	maxCombos = n
	return func() { maxCombos = old }
}

// ConceptCovers returns what phase (b) finds for each concept of the walk
// w, in order, with no wrapper chosen yet: the covers of the features the
// concept needs after phase (a).
func (r *Rewriter) ConceptCovers(w *Walk) ([][][]string, error) {
	need, _, err := r.expand(w)
	if err != nil {
		return nil, err
	}
	out := make([][][]string, len(w.Concepts))
	for i, c := range w.Concepts {
		cov, err := r.conceptCoverage(c, need[c])
		if err != nil {
			return nil, err
		}
		out[i] = cov.minimalCovers(need[c], nil)
	}
	return out, nil
}
