// Package segment implements the immutable on-disk segment format of
// the tdb storage engine.
//
// A segment is a sealed, checksummed, dictionary-encoded slice of store
// history. Checkpoints seal the WAL tail into a DELTA segment (the ops
// since the last seal); compaction rewrites the whole live dataset into
// one FULL segment whose dictionary block contains only live terms. A
// store directory is described by a MANIFEST file listing the live
// segments in apply order plus the WAL truncation point; the manifest is
// published with a temp-file + rename, so a crash mid-seal leaves the
// previous manifest (and the WAL it points at) intact.
//
// # File layout
//
// Little-endian, varint-heavy (encoding/binary Uvarint):
//
//	magic    "MDMSEG1\n"
//	dict     uvarint termCount, then per term:
//	           kind byte, then value / datatype / lang as
//	           (uvarint length + raw bytes)
//	blocks   uvarint blockCount, then per block:
//	           op byte (add 0 | drop 2 | prefix 3)
//	           graph ref: uvarint (0 = default graph, else localID+1)
//	           uvarint recordCount, then per record:
//	             add:    s, p, o as uvarint local IDs
//	             drop:   nothing (the block's graph ref is the victim)
//	             prefix: prefix + namespace as (uvarint len + bytes)
//	footer   crc32(IEEE) of everything above (uint32), body length
//	         (uint64), dict block length in bytes (uint64), record count
//	         (uint64), tail magic "MDMSEGF!"
//
// Records inside a segment preserve store-op order: consecutive ops with
// the same kind and graph are run-length grouped into one block, which
// degenerates to "one dict block + one ID-triple block per graph" for
// full segments (each graph written as a single add run) while staying
// order-faithful for delta segments with interleaved drops.
//
// Op byte 1 was a triple removal block. No shipping writer emitted one,
// but earlier releases read it, so a segment holding one is refused
// with ErrRemove rather than skipped: the store is append-only.
//
// Terms are interned once in the segment-local dictionary; triples are
// three uvarints. Loading therefore interns each distinct term exactly
// once into the dataset dictionary and inserts triples through the
// ID-level fast path (rdf.Graph.BulkAddIDs) — no Turtle re-parsing, no
// per-position Term hashing.
package segment

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"

	"mdm/internal/rdf"
)

// Op is one store mutation, shared with the WAL and the ontology's
// write path; the kind values are the block op bytes of the file format.
type Op = rdf.Op

// Op kinds.
const (
	OpAdd    = rdf.OpAdd
	OpDrop   = rdf.OpDrop
	OpPrefix = rdf.OpPrefix
)

// removeOp is the op byte of the triple removal blocks earlier releases
// read.
const removeOp rdf.OpKind = 1

// ErrRemove is what a store meets when its files hold a triple removal:
// a segment block with op byte 1, or a WAL record with a "remove" op.
// The open fails, naming the file and the byte offset.
var ErrRemove = errors.New("holds a triple removal; PR 25 is the last release that reads removes")

var (
	magic     = []byte("MDMSEG1\n")
	tailMagic = []byte("MDMSEGF!")
)

// footerSize is crc32 + bodyLen + dictBytes + records + tail magic.
const footerSize = 4 + 8 + 8 + 8 + 8

// Stats summarizes a written or loaded segment.
type Stats struct {
	Records   int   // mutation records (adds + drops + prefixes)
	DictTerms int   // entries in the segment-local dictionary
	DictBytes int64 // encoded size of the dict block
	FileBytes int64 // total file size
}

// writer accumulates the encoded body of one segment.
type writer struct {
	buf   []byte
	ids   map[rdf.Term]uint64
	terms []rdf.Term
}

func (w *writer) uvarint(v uint64) {
	w.buf = binary.AppendUvarint(w.buf, v)
}

func (w *writer) str(s string) {
	w.buf = binary.AppendUvarint(w.buf, uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// intern assigns the segment-local ID of t.
func (w *writer) intern(t rdf.Term) uint64 {
	if id, ok := w.ids[t]; ok {
		return id
	}
	id := uint64(len(w.terms))
	w.ids[t] = id
	w.terms = append(w.terms, t)
	return id
}

// graphRef encodes a graph name: 0 for the default graph, localID+1
// otherwise.
func (w *writer) graphRef(name rdf.Term) uint64 {
	if name.IsZero() {
		return 0
	}
	return w.intern(name) + 1
}

// WriteFile seals ops into a new segment at path. The file is fsynced
// before WriteFile returns, so a caller that then publishes it in a
// manifest (atomic rename) gets the standard crash contract: either the
// manifest names a fully durable segment or it does not name it at all.
func WriteFile(path string, ops []Op) (Stats, error) {
	// Two passes share one local dictionary: the first interns terms and
	// encodes blocks, the second (cheap) assembles dict + blocks + footer.
	bw := &writer{ids: make(map[rdf.Term]uint64)}

	// Run-length group ops into blocks. A block boundary is any change of
	// (kind, graph); drop and prefix blocks carry one record each for
	// simplicity (they are rare).
	type block struct {
		op    rdf.OpKind
		graph uint64
		start int // offset of the block's records in bw.buf
		n     uint64
	}
	var blocks []block
	flushHeaderless := func(op rdf.OpKind, graph uint64) *block {
		blocks = append(blocks, block{op: op, graph: graph, start: len(bw.buf)})
		return &blocks[len(blocks)-1]
	}
	var cur *block
	records := 0
	for _, op := range ops {
		records++
		switch op.Kind {
		case OpAdd:
			gref := bw.graphRef(op.Quad.Graph)
			if cur == nil || cur.op != op.Kind || cur.graph != gref {
				cur = flushHeaderless(op.Kind, gref)
			}
			bw.uvarint(bw.intern(op.Quad.S))
			bw.uvarint(bw.intern(op.Quad.P))
			bw.uvarint(bw.intern(op.Quad.O))
			cur.n++
		case OpDrop:
			b := flushHeaderless(OpDrop, bw.graphRef(op.Quad.Graph))
			b.n = 1
			cur = nil
		case OpPrefix:
			b := flushHeaderless(OpPrefix, 0)
			bw.str(op.Prefix)
			bw.str(op.NS)
			b.n = 1
			cur = nil
		default:
			return Stats{}, fmt.Errorf("segment: unknown op kind %d", op.Kind)
		}
	}
	body := bw.buf

	// Assemble: magic, dict, blocks, footer.
	out := make([]byte, 0, len(body)+len(body)/2+64)
	out = append(out, magic...)
	dictStart := len(out)
	out = binary.AppendUvarint(out, uint64(len(bw.terms)))
	for _, t := range bw.terms {
		out = append(out, byte(t.Kind))
		out = binary.AppendUvarint(out, uint64(len(t.Value)))
		out = append(out, t.Value...)
		out = binary.AppendUvarint(out, uint64(len(t.Datatype)))
		out = append(out, t.Datatype...)
		out = binary.AppendUvarint(out, uint64(len(t.Lang)))
		out = append(out, t.Lang...)
	}
	dictBytes := int64(len(out) - dictStart)
	out = binary.AppendUvarint(out, uint64(len(blocks)))
	for i, b := range blocks {
		out = append(out, byte(b.op))
		out = binary.AppendUvarint(out, b.graph)
		out = binary.AppendUvarint(out, b.n)
		end := len(body)
		if i+1 < len(blocks) {
			end = blocks[i+1].start
		}
		out = append(out, body[b.start:end]...)
	}

	bodyLen := uint64(len(out))
	var foot [footerSize]byte
	binary.LittleEndian.PutUint32(foot[0:], crc32.ChecksumIEEE(out))
	binary.LittleEndian.PutUint64(foot[4:], bodyLen)
	binary.LittleEndian.PutUint64(foot[12:], uint64(dictBytes))
	binary.LittleEndian.PutUint64(foot[20:], uint64(records))
	copy(foot[28:], tailMagic)
	out = append(out, foot[:]...)

	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return Stats{}, fmt.Errorf("segment: create %s: %w", path, err)
	}
	if _, err := f.Write(out); err != nil {
		f.Close()
		return Stats{}, fmt.Errorf("segment: write %s: %w", path, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return Stats{}, fmt.Errorf("segment: sync %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return Stats{}, fmt.Errorf("segment: close %s: %w", path, err)
	}
	return Stats{
		Records:   records,
		DictTerms: len(bw.terms),
		DictBytes: dictBytes,
		FileBytes: int64(len(out)),
	}, nil
}

// DatasetOps flattens a dataset into the op list of a full segment:
// every prefix binding, then every quad (default graph first, named
// graphs in name order) as adds. WriteFile interns terms as it meets
// them in the ops, so the segment's dict block holds exactly the live
// terms, however many dead ones ds's own dictionary still carries.
func DatasetOps(ds *rdf.Dataset) []Op {
	quads := ds.Quads()
	pairs := ds.Prefixes().Pairs()
	ops := make([]Op, 0, len(quads)+len(pairs))
	for _, p := range pairs {
		ops = append(ops, Op{Kind: OpPrefix, Prefix: p[0], NS: p[1]})
	}
	for _, q := range quads {
		ops = append(ops, Op{Kind: OpAdd, Quad: q})
	}
	return ops
}

// reader decodes one segment body. base, when set, is a string copy of
// buf[baseOff:baseOff+len(base)]; substr slices it so decoded strings
// share one backing array instead of allocating per string.
type reader struct {
	buf     []byte
	pos     int
	base    string
	baseOff int
}

func (r *reader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.buf[r.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("segment: truncated varint at offset %d", r.pos)
	}
	r.pos += n
	return v, nil
}

func (r *reader) str() (string, error) {
	n, err := r.uvarint()
	if err != nil {
		return "", err
	}
	if uint64(len(r.buf)-r.pos) < n {
		return "", fmt.Errorf("segment: string of %d bytes overruns body at offset %d", n, r.pos)
	}
	s := string(r.buf[r.pos : r.pos+int(n)])
	r.pos += int(n)
	return s, nil
}

// substr is str without the per-string copy: the result is a slice of
// r.base. limit bounds the read to the region base covers.
func (r *reader) substr(limit int) (string, error) {
	n, err := r.uvarint()
	if err != nil {
		return "", err
	}
	if r.pos > limit || uint64(limit-r.pos) < n {
		return "", fmt.Errorf("segment: string of %d bytes overruns block at offset %d", n, r.pos)
	}
	start := r.pos - r.baseOff
	r.pos += int(n)
	return r.base[start : start+int(n)], nil
}

// LoadFile verifies and applies a segment into ds, returning its stats.
// Ops are applied in stored order; adds go through the ID-level fast
// path of the dataset's shared dictionary.
func LoadFile(path string, ds *rdf.Dataset) (Stats, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Stats{}, fmt.Errorf("segment: read %s: %w", path, err)
	}
	st, err := apply(data, ds)
	if err != nil {
		return Stats{}, fmt.Errorf("segment: %s: %w", path, err)
	}
	st.FileBytes = int64(len(data))
	return st, nil
}

// ReadStats verifies a segment's footer and checksum without applying
// it — the cheap integrity + size probe used by compaction accounting.
func ReadStats(path string) (Stats, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Stats{}, fmt.Errorf("segment: read %s: %w", path, err)
	}
	st, _, err := checkFooter(data)
	if err != nil {
		return Stats{}, fmt.Errorf("segment: %s: %w", path, err)
	}
	st.FileBytes = int64(len(data))
	return st, nil
}

// checkFooter validates framing + checksum and returns footer stats and
// the body slice.
func checkFooter(data []byte) (Stats, []byte, error) {
	if len(data) < len(magic)+footerSize {
		return Stats{}, nil, fmt.Errorf("file of %d bytes is too short for a segment", len(data))
	}
	if string(data[:len(magic)]) != string(magic) {
		return Stats{}, nil, fmt.Errorf("bad magic %q", data[:len(magic)])
	}
	foot := data[len(data)-footerSize:]
	if string(foot[28:]) != string(tailMagic) {
		return Stats{}, nil, fmt.Errorf("bad tail magic (truncated segment?)")
	}
	bodyLen := binary.LittleEndian.Uint64(foot[4:])
	if bodyLen != uint64(len(data)-footerSize) {
		return Stats{}, nil, fmt.Errorf("body length %d does not match file size %d", bodyLen, len(data)-footerSize)
	}
	body := data[:bodyLen]
	if got, want := crc32.ChecksumIEEE(body), binary.LittleEndian.Uint32(foot[0:]); got != want {
		return Stats{}, nil, fmt.Errorf("checksum mismatch: file says %08x, body hashes to %08x", want, got)
	}
	return Stats{
		DictBytes: int64(binary.LittleEndian.Uint64(foot[12:])),
		Records:   int(binary.LittleEndian.Uint64(foot[20:])),
	}, body, nil
}

func apply(data []byte, ds *rdf.Dataset) (Stats, error) {
	st, body, err := checkFooter(data)
	if err != nil {
		return Stats{}, err
	}
	// The dict block (whose extent the footer records) is converted to a
	// single string up front; every term's value/datatype/lang is a
	// substring sharing that one backing array. Decoding a 100k-term dict
	// then costs one allocation instead of three per term.
	// Compared as uint64 before any int arithmetic: a hostile footer's
	// length must not wrap the slice bound below.
	if uint64(st.DictBytes) > uint64(len(body)-len(magic)) {
		return Stats{}, fmt.Errorf("dict block of %d bytes overruns body", uint64(st.DictBytes))
	}
	dictEnd := len(magic) + int(st.DictBytes)
	dictStr := string(body[len(magic):dictEnd])
	r := &reader{buf: body, pos: len(magic), base: dictStr, baseOff: len(magic)}

	// Dict block: intern every segment-local term into the dataset dict
	// once, building the local -> dataset ID remap.
	termCount, err := r.uvarint()
	if err != nil {
		return Stats{}, err
	}
	if termCount > uint64(len(body)) {
		return Stats{}, fmt.Errorf("implausible term count %d", termCount)
	}
	st.DictTerms = int(termCount)
	remap := make([]rdf.TermID, termCount)
	terms := make([]rdf.Term, termCount)
	for i := range remap {
		if r.pos >= dictEnd {
			return Stats{}, fmt.Errorf("dict entry %d overruns dict block", i)
		}
		kind := rdf.TermKind(r.buf[r.pos])
		r.pos++
		val, err := r.substr(dictEnd)
		if err != nil {
			return Stats{}, err
		}
		dt, err := r.substr(dictEnd)
		if err != nil {
			return Stats{}, err
		}
		lang, err := r.substr(dictEnd)
		if err != nil {
			return Stats{}, err
		}
		terms[i] = rdf.Term{Kind: kind, Value: val, Datatype: dt, Lang: lang}
	}
	if r.pos != dictEnd {
		return Stats{}, fmt.Errorf("dict block size %d does not match its %d terms", st.DictBytes, termCount)
	}
	ds.Dict().InternBatch(terms, remap)

	graphTerm := func(ref uint64) (rdf.Term, error) {
		if ref == 0 {
			return rdf.Term{}, nil
		}
		if ref-1 >= termCount {
			return rdf.Term{}, fmt.Errorf("graph ref %d out of dict range %d", ref, termCount)
		}
		return terms[ref-1], nil
	}

	blockCount, err := r.uvarint()
	if err != nil {
		return Stats{}, err
	}
	var batch [][3]rdf.TermID // reused add-run buffer across blocks
	for b := uint64(0); b < blockCount; b++ {
		if r.pos >= len(r.buf) {
			return Stats{}, fmt.Errorf("block %d overruns body", b)
		}
		start := r.pos
		op := rdf.OpKind(r.buf[r.pos])
		r.pos++
		if op == removeOp {
			return Stats{}, fmt.Errorf("block %d at byte offset %d: %w", b, start, ErrRemove)
		}
		gref, err := r.uvarint()
		if err != nil {
			return Stats{}, err
		}
		n, err := r.uvarint()
		if err != nil {
			return Stats{}, err
		}
		switch op {
		case OpAdd:
			gname, err := graphTerm(gref)
			if err != nil {
				return Stats{}, err
			}
			g := ds.Graph(gname)
			batch = batch[:0]
			for i := uint64(0); i < n; i++ {
				s, err := r.uvarint()
				if err != nil {
					return Stats{}, err
				}
				p, err := r.uvarint()
				if err != nil {
					return Stats{}, err
				}
				o, err := r.uvarint()
				if err != nil {
					return Stats{}, err
				}
				if s >= termCount || p >= termCount || o >= termCount {
					return Stats{}, fmt.Errorf("triple ID out of dict range %d", termCount)
				}
				batch = append(batch, [3]rdf.TermID{remap[s], remap[p], remap[o]})
			}
			if len(batch) > 0 {
				g.BulkAddIDs(batch)
			}
		case OpDrop:
			gname, err := graphTerm(gref)
			if err != nil {
				return Stats{}, err
			}
			ds.DropGraph(gname)
		case OpPrefix:
			for i := uint64(0); i < n; i++ {
				prefix, err := r.str()
				if err != nil {
					return Stats{}, err
				}
				ns, err := r.str()
				if err != nil {
					return Stats{}, err
				}
				ds.Prefixes().Bind(prefix, ns)
			}
		default:
			return Stats{}, fmt.Errorf("unknown op %d in block %d", op, b)
		}
	}
	return st, nil
}
