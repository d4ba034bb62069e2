// Command metricslint enforces the repo's Prometheus metric
// conventions at build time. It imports every instrumented package so
// all metric registrations run — a duplicate name panics in
// obs.(*Registry).register right here instead of at mdmd startup — and
// then lints the populated default registry: mdm_ prefix, lowercase
// names, counters ending in _total (and only counters), histograms
// carrying a base-unit suffix, reserved labels (le, quantile) unused,
// help text present. It then diffs the registry's family names against
// the metric catalog tables of docs/OBSERVABILITY.md (expanding
// `mdm_x_{a,b}_total` groups) and reports every name present on one
// side only, so the catalog cannot rot. CI runs it from the repo root
// in the docs job; a nonzero exit fails the build.
//
// Usage:
//
//	go run ./tools/metricslint
package main

import (
	"fmt"
	"os"
	"regexp"
	"sort"
	"strings"

	"mdm/internal/obs"

	// Imported for their metric registrations only: rest pulls in the
	// sparql, federate and tdb instrumentation transitively, but each
	// is named so a future layering change cannot silently drop one
	// from the lint.
	_ "mdm/internal/federate"
	_ "mdm/internal/rest"
	_ "mdm/internal/sparql"
	_ "mdm/internal/tdb"
)

// catalogPath is the metric catalog, relative to the repo root.
const catalogPath = "docs/OBSERVABILITY.md"

func main() {
	violations := obs.Default.Lint()
	doc, err := os.ReadFile(catalogPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "metricslint:", err)
		os.Exit(1)
	}
	violations = append(violations, diffCatalog(registeredFamilies(), catalogFamilies(string(doc)))...)
	for _, v := range violations {
		fmt.Fprintln(os.Stderr, "metricslint:", v)
	}
	if n := len(violations); n > 0 {
		fmt.Fprintf(os.Stderr, "metricslint: %d violation(s)\n", n)
		os.Exit(1)
	}
	fmt.Println("metricslint: ok")
}

// registeredFamilies returns the family names GET /metrics renders: one
// "# TYPE <name> <type>" line per family.
func registeredFamilies() map[string]bool {
	var b strings.Builder
	_ = obs.Default.WritePrometheus(&b) // a strings.Builder never fails
	out := map[string]bool{}
	for _, line := range strings.Split(b.String(), "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			out[f[2]] = true
		}
	}
	return out
}

// catalogRow matches the first cell of a catalog table row.
var catalogRow = regexp.MustCompile("^\\| `(mdm_[a-z0-9_{},]+)` \\|")

// catalogFamilies returns the names documented in the tables of the
// "## Metric catalog" section.
func catalogFamilies(doc string) map[string]bool {
	out := map[string]bool{}
	inCatalog := false
	for _, line := range strings.Split(doc, "\n") {
		if strings.HasPrefix(line, "## ") {
			inCatalog = line == "## Metric catalog"
		}
		if m := catalogRow.FindStringSubmatch(line); inCatalog && m != nil {
			for _, name := range expandGroups(m[1]) {
				out[name] = true
			}
		}
	}
	return out
}

// expandGroups expands every {a,b,c} group of a catalog name.
func expandGroups(name string) []string {
	open, end := strings.IndexByte(name, '{'), strings.IndexByte(name, '}')
	if open < 0 || end < open {
		return []string{name}
	}
	var out []string
	for _, alt := range strings.Split(name[open+1:end], ",") {
		out = append(out, expandGroups(name[:open]+alt+name[end+1:])...)
	}
	return out
}

// diffCatalog reports every name present on one side only.
func diffCatalog(registered, documented map[string]bool) []string {
	var out []string
	for name := range registered {
		if !documented[name] {
			out = append(out, name+": registered but missing from "+catalogPath)
		}
	}
	for name := range documented {
		if !registered[name] {
			out = append(out, name+": listed in "+catalogPath+" but not registered")
		}
	}
	sort.Strings(out)
	return out
}
