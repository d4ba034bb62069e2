package segment

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mdm/internal/rdf"
)

func iri(n string) rdf.Term { return rdf.IRI("http://ex/" + n) }

// mixedOps is a delta segment's worth of every op kind: add runs in the
// default graph and in two named graphs, the drop of one of them, and a
// prefix binding.
func mixedOps() []Op {
	return []Op{
		{Kind: OpPrefix, Prefix: "ex", NS: "http://ex/"},
		{Kind: OpAdd, Quad: rdf.Q(iri("s1"), iri("p"), rdf.Lit("a"), rdf.Term{})},
		{Kind: OpAdd, Quad: rdf.Q(iri("s2"), iri("p"), rdf.LangLit("hei", "no"), rdf.Term{})},
		{Kind: OpAdd, Quad: rdf.Q(iri("s1"), iri("p"), rdf.IntLit(7), iri("g1"))},
		{Kind: OpAdd, Quad: rdf.Q(iri("s9"), iri("p"), rdf.Lit("doomed"), iri("g2"))},
		{Kind: OpDrop, Quad: rdf.Quad{Graph: iri("g2")}},
	}
}

// checkMixed asserts the dataset mixedOps loads to.
func checkMixed(t *testing.T, ds *rdf.Dataset) {
	t.Helper()
	if ds.Default().Len() != 2 {
		t.Fatalf("default graph Len = %d, want 2", ds.Default().Len())
	}
	if _, ok := ds.Lookup(iri("g2")); ok {
		t.Fatal("dropped graph g2 survived")
	}
	g1, ok := ds.Lookup(iri("g1"))
	if !ok || g1.Len() != 1 || !g1.Has(rdf.T(iri("s1"), iri("p"), rdf.IntLit(7))) {
		t.Fatalf("g1 = %v, %v", g1, ok)
	}
	if got := ds.GraphNames(); len(got) != 1 {
		t.Fatalf("named graphs %v, want only g1", got)
	}
	if exp, ok := ds.Prefixes().Expand("ex:x"); !ok || exp != "http://ex/x" {
		t.Fatal("prefix op not applied")
	}
	if !ds.Default().Has(rdf.T(iri("s2"), iri("p"), rdf.LangLit("hei", "no"))) {
		t.Fatal("lang literal lost fidelity through the segment")
	}
	if !ds.Default().Has(rdf.T(iri("s1"), iri("p"), rdf.Lit("a"))) {
		t.Fatal("plain literal lost")
	}
}

func TestWriteLoadRoundTripMixedOps(t *testing.T) {
	path := filepath.Join(t.TempDir(), SegmentName(1))
	ops := mixedOps()
	ws, err := WriteFile(path, ops)
	if err != nil {
		t.Fatal(err)
	}
	if ws.Records != len(ops) {
		t.Fatalf("written records = %d, want %d", ws.Records, len(ops))
	}
	if ws.DictTerms == 0 || ws.DictBytes == 0 {
		t.Fatalf("dict stats empty: %+v", ws)
	}

	ds := rdf.NewDataset()
	ls, err := LoadFile(path, ds)
	if err != nil {
		t.Fatal(err)
	}
	if ls.Records != ws.Records || ls.DictTerms != ws.DictTerms {
		t.Fatalf("load stats %+v != write stats %+v", ls, ws)
	}
	// Ops applied in order: g2 added then dropped.
	checkMixed(t, ds)
}

// pinnedSegment is mixedOps as the segment writer sealed it before the
// triple removal op left the format. It holds the op bytes 0 (add), 2
// (drop) and 3 (prefix): renumbering them would load it to another
// dataset, or not at all.
const pinnedSegment = "MDMSEG1\n\n\x00\fhttp://ex/s1\x00\x00\x00\vhttp://ex/p\x00\x00\x01\x01a\x00\x00\x00\fhttp://ex/s2\x00\x00\x01\x03hei\x00\x02no\x00\fhttp://ex/g1\x00\x00\x01\x017(http://www.w3.org/2001/XMLSchema#integer\x00\x00\fhttp://ex/g2\x00\x00\x00\fhttp://ex/s9\x00\x00\x01\x06doomed\x00\x00\x05\x03\x00\x01\x02ex\nhttp://ex/\x00\x00\x02\x00\x01\x02\x03\x01\x04\x00\x06\x01\x00\x01\x06\x00\b\x01\b\x01\t\x02\b\x01\xb1v\xc1\xf6\xd7\x00\x00\x00\x00\x00\x00\x00\xa5\x00\x00\x00\x00\x00\x00\x00\x06\x00\x00\x00\x00\x00\x00\x00MDMSEGF!"

// TestPinnedSegmentLoads: segment bytes sealed by an earlier release load
// to the dataset they were sealed from, and today's writer seals the same
// ops to the same bytes.
func TestPinnedSegmentLoads(t *testing.T) {
	path := filepath.Join(t.TempDir(), SegmentName(1))
	if err := os.WriteFile(path, []byte(pinnedSegment), 0o644); err != nil {
		t.Fatal(err)
	}
	ds := rdf.NewDataset()
	if _, err := LoadFile(path, ds); err != nil {
		t.Fatal(err)
	}
	checkMixed(t, ds)
	if _, err := WriteFile(path, mixedOps()); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != pinnedSegment {
		t.Fatalf("the writer seals mixedOps to\n%q\nwant\n%q", got, pinnedSegment)
	}
}

// reseal rewrites data's footer so that its checksum, body length and
// tail magic match the body, keeping the dict length and record count
// the footer holds. Short data is returned as is.
func reseal(data []byte) []byte {
	if len(data) < footerSize {
		return data
	}
	body, foot := data[:len(data)-footerSize], data[len(data)-footerSize:]
	binary.LittleEndian.PutUint32(foot[0:], crc32.ChecksumIEEE(body))
	binary.LittleEndian.PutUint64(foot[4:], uint64(len(body)))
	copy(foot[28:], tailMagic)
	return data
}

// removeBlockSegment seals one add and turns its block into a triple
// removal block (op byte 1), as an earlier release would have read it.
func removeBlockSegment(t testing.TB) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), SegmentName(1))
	st, err := WriteFile(path, []Op{{Kind: OpAdd, Quad: rdf.Q(iri("s"), iri("p"), rdf.Lit("v"), rdf.Term{})}})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	op := len(magic) + int(st.DictBytes) + 1 // after the one-byte block count
	if data[op] != byte(OpAdd) {
		t.Fatalf("byte %d is %d, not the add block's op", op, data[op])
	}
	data[op] = byte(removeOp)
	return reseal(data)
}

// TestLoadRejectsHostileDictLength: a footer whose dict block length is
// near MaxInt64 (checksum intact: the footer is not checksummed) is an
// error naming the file, not an index panic in the decoder.
func TestLoadRejectsHostileDictLength(t *testing.T) {
	path := filepath.Join(t.TempDir(), SegmentName(1))
	if _, err := WriteFile(path, mixedOps()); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint64(data[len(data)-footerSize+12:], math.MaxInt64-3)
	if err := os.WriteFile(path, reseal(data), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = LoadFile(path, rdf.NewDataset())
	if err == nil || !strings.Contains(err.Error(), path) {
		t.Fatalf("LoadFile = %v, want an error naming %s", err, path)
	}
}

// FuzzSegmentLoad feeds arbitrary bytes to the segment decoder. The
// harness re-seals the checksum and body length, so a mutation reaches
// the decoder instead of failing at the checksum. The invariant: the
// load returns an error or loads; it never panics.
func FuzzSegmentLoad(f *testing.F) {
	seal := func(ops []Op) []byte {
		path := filepath.Join(f.TempDir(), SegmentName(1))
		if _, err := WriteFile(path, ops); err != nil {
			f.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		return data
	}
	f.Add(seal(mixedOps()))
	f.Add(seal(mixedOps()[:3]))
	f.Add(seal(DatasetOps(rdf.NewDataset())))
	f.Add(removeBlockSegment(f))
	// A dict entry whose string length is read past the end of the dict
	// block: an error, not a slice of the dict string out of range.
	f.Add([]byte("MDMSEG1\n0000000000000000000000000000000000000000000000000000000000000000000000\x02\x00\x00\x00\x00\x00\x00\x000000000000000000"))
	f.Fuzz(func(t *testing.T, data []byte) {
		// An error is a valid outcome; a panic fails the input.
		_, _ = apply(reseal(append([]byte(nil), data...)), rdf.NewDataset())
	})
}

func TestDatasetOpsFullSegmentRoundTrip(t *testing.T) {
	src := rdf.NewDataset()
	src.Prefixes().Bind("ex", "http://ex/")
	src.Default().MustAdd(rdf.T(iri("s"), iri("p"), rdf.TypedLit("3.14", "http://www.w3.org/2001/XMLSchema#decimal")))
	src.Graph(iri("g")).MustAdd(rdf.T(iri("s"), iri("q"), rdf.Lit("named")))

	path := filepath.Join(t.TempDir(), SegmentName(1))
	if _, err := WriteFile(path, DatasetOps(src)); err != nil {
		t.Fatal(err)
	}
	dst := rdf.NewDataset()
	if _, err := LoadFile(path, dst); err != nil {
		t.Fatal(err)
	}
	if got, want := rdf.WriteDataset(dst), rdf.WriteDataset(src); got != want {
		t.Fatalf("round trip differs:\n%s\nwant:\n%s", got, want)
	}
}

func TestLoadDetectsCorruption(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, SegmentName(1))
	ops := DatasetOps(func() *rdf.Dataset {
		ds := rdf.NewDataset()
		for i := 0; i < 50; i++ {
			ds.Default().MustAdd(rdf.T(iri("s"), iri("p"), rdf.IntLit(int64(i))))
		}
		return ds
	}())
	if _, err := WriteFile(path, ops); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	flip := func(name string, mutate func([]byte) []byte) {
		t.Run(name, func(t *testing.T) {
			bad := filepath.Join(dir, "bad-"+name+".seg")
			if err := os.WriteFile(bad, mutate(append([]byte(nil), data...)), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := LoadFile(bad, rdf.NewDataset()); err == nil {
				t.Fatal("corrupt segment loaded cleanly")
			}
		})
	}
	flip("body-byte", func(b []byte) []byte { b[len(b)/2] ^= 0xff; return b })
	flip("truncated", func(b []byte) []byte { return b[:len(b)-10] })
	flip("bad-magic", func(b []byte) []byte { b[0] = 'X'; return b })
	flip("empty", func(b []byte) []byte { return nil })
}

func TestReadStatsFooterOnly(t *testing.T) {
	path := filepath.Join(t.TempDir(), SegmentName(7))
	ds := rdf.NewDataset()
	ds.Default().MustAdd(rdf.T(iri("s"), iri("p"), rdf.Lit("v")))
	ws, err := WriteFile(path, DatasetOps(ds))
	if err != nil {
		t.Fatal(err)
	}
	rs, err := ReadStats(path)
	if err != nil {
		t.Fatal(err)
	}
	// The footer carries record count and sizes but not the term count.
	if rs.Records != ws.Records || rs.DictBytes != ws.DictBytes || rs.FileBytes != ws.FileBytes {
		t.Fatalf("ReadStats %+v != WriteFile stats %+v", rs, ws)
	}
}

func TestManifestWriteLoadSweep(t *testing.T) {
	dir := t.TempDir()
	if m, err := LoadManifest(dir); err != nil || m != nil {
		t.Fatalf("LoadManifest on empty dir = %v, %v", m, err)
	}
	m := &Manifest{Version: 1, Segments: []string{SegmentName(1), SegmentName(3)}, NextSeq: 4}
	if err := m.Write(dir); err != nil {
		t.Fatal(err)
	}
	got, err := LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.NextSeq != 4 || len(got.Segments) != 2 || got.Segments[1] != SegmentName(3) {
		t.Fatalf("loaded manifest = %+v", got)
	}

	// Sweep removes unreferenced segments and temp files, keeps the rest.
	for _, name := range []string{SegmentName(1), SegmentName(2), SegmentName(3), "stray.tmp"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got.Sweep(dir)
	for name, want := range map[string]bool{
		SegmentName(1): true, SegmentName(2): false, SegmentName(3): true, "stray.tmp": false,
	} {
		_, err := os.Stat(filepath.Join(dir, name))
		if exists := err == nil; exists != want {
			t.Errorf("%s exists = %v, want %v", name, exists, want)
		}
	}

	// Corrupt manifest is an error, not a silent fresh store.
	if err := os.WriteFile(filepath.Join(dir, ManifestFile), []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadManifest(dir); err == nil {
		t.Fatal("corrupt manifest accepted")
	}

	c := m.Clone()
	c.Segments = append(c.Segments, SegmentName(9))
	if len(m.Segments) != 2 {
		t.Fatal("Clone shares the segment slice")
	}
	if !strings.HasPrefix(SegmentName(12), "seg-000012") {
		t.Fatalf("SegmentName(12) = %s", SegmentName(12))
	}
}
