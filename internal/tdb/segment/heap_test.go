package segment

import (
	"fmt"
	"path/filepath"
	"runtime"
	"testing"

	"mdm/internal/rdf"
)

// ontologyShaped builds a dataset with the shape that matters to the
// load path's sizing: many subjects and objects, a handful of predicates,
// one large graph — concepts × features of steward metadata.
func ontologyShaped(concepts, features int) *rdf.Dataset {
	ds := rdf.NewDataset()
	g := ds.Graph(iri("global"))
	typ, label, has := iri("type"), iri("label"), iri("hasFeature")
	for i := 0; i < concepts; i++ {
		c := iri(fmt.Sprint("C", i))
		g.MustAdd(rdf.T(c, typ, iri("Concept")))
		g.MustAdd(rdf.T(c, label, rdf.Lit(fmt.Sprint("Concept ", i))))
		for j := 0; j < features; j++ {
			f := iri(fmt.Sprint("c", i, "_f", j))
			g.MustAdd(rdf.T(f, typ, iri("Feature")))
			g.MustAdd(rdf.T(f, label, rdf.Lit(fmt.Sprint("c", i, "_f", j))))
			g.MustAdd(rdf.T(c, has, f))
		}
	}
	return ds
}

func heapAlloc() int64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// TestLoadedDatasetFitsCompactedHeap: the dataset a process serves from
// is the one LoadFile built at open, so it must not be larger than a
// fresh dataset the same quads were added to one by one: the outer index
// maps are sized by their distinct keys, not by runs of an unsorted
// position.
func TestLoadedDatasetFitsCompactedHeap(t *testing.T) {
	full := filepath.Join(t.TempDir(), "full.seg")
	if _, err := WriteFile(full, DatasetOps(ontologyShaped(1500, 8))); err != nil {
		t.Fatal(err)
	}
	base := heapAlloc()
	loaded := rdf.NewDataset()
	if _, err := LoadFile(full, loaded); err != nil {
		t.Fatal(err)
	}
	loadedHeap := heapAlloc() - base
	added := rdf.NewDataset()
	for _, q := range loaded.Quads() {
		added.Graph(q.Graph).MustAdd(q.Triple)
	}
	loaded = nil
	addedHeap := heapAlloc() - base
	runtime.KeepAlive(added)
	t.Logf("loaded %d KiB, added one by one %d KiB", loadedHeap>>10, addedHeap>>10)
	if loadedHeap > addedHeap+addedHeap/20 {
		t.Errorf("dataset loaded from a full segment holds %d KiB, more than 5%% over the %d KiB of the same quads added one by one", loadedHeap>>10, addedHeap>>10)
	}
}

// TestDeltaSegmentLoadCostsWhatItHolds: a delta segment of 80 triples
// must grow the heap like 80 adds do, not by a bulk-load arena chunk per
// index. The same ops are applied to the same base both ways, so the
// dictionary and the maps grow identically and the difference is the
// load path's own overhead.
func TestDeltaSegmentLoadCostsWhatItHolds(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full.seg")
	if _, err := WriteFile(full, DatasetOps(ontologyShaped(1500, 8))); err != nil {
		t.Fatal(err)
	}
	// Forty deltas: HeapAlloc repeats to a few hundred KiB between runs,
	// an arena chunk per index per delta would be some 7 MiB.
	deltas := make([][]Op, 40)
	for d := range deltas {
		for i := 0; i < 80; i++ {
			deltas[d] = append(deltas[d], Op{Kind: OpAdd, Quad: rdf.Quad{Graph: iri("global"),
				Triple: rdf.T(iri(fmt.Sprint("w", d, "_", i/8)), iri("hasAttribute"), iri(fmt.Sprint("a", d, "_", i)))}})
		}
		if _, err := WriteFile(filepath.Join(dir, fmt.Sprint("delta", d, ".seg")), deltas[d]); err != nil {
			t.Fatal(err)
		}
	}
	grown := func(apply func(ds *rdf.Dataset, d int)) int64 {
		base := heapAlloc()
		ds := rdf.NewDataset()
		if _, err := LoadFile(full, ds); err != nil {
			t.Fatal(err)
		}
		for d := range deltas {
			apply(ds, d)
		}
		h := heapAlloc() - base
		runtime.KeepAlive(ds)
		return h
	}
	viaAdds := grown(func(ds *rdf.Dataset, d int) { ds.Apply(deltas[d]) })
	viaSegments := grown(func(ds *rdf.Dataset, d int) {
		if _, err := LoadFile(filepath.Join(dir, fmt.Sprint("delta", d, ".seg")), ds); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("base + %d deltas: %d KiB loaded as segments, %d KiB applied as adds", len(deltas), viaSegments>>10, viaAdds>>10)
	if over := viaSegments - viaAdds; over > 1<<20 {
		t.Errorf("%d delta segments cost %d KiB more than the adds they hold", len(deltas), over>>10)
	}
}
