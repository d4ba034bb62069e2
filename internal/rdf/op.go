package rdf

// OpKind names a dataset mutation.
type OpKind byte

// Mutation kinds. The values are part of the segment file format, so they
// are spelled out: 1 was the triple removal op, which no release writes
// any more and the storage layer refuses to read.
const (
	OpAdd    OpKind = 0
	OpDrop   OpKind = 2
	OpPrefix OpKind = 3
)

// Op is one dataset mutation in the form the storage layers log, seal
// and replay: the ontology builds them, the tdb WAL records them and
// delta segments carry them. The dataset only grows, except that a drop
// removes a whole named graph.
type Op struct {
	Kind       OpKind
	Quad       Quad   // add; Graph doubles as the drop victim
	Prefix, NS string // prefix
}

// Apply performs ops in order. Every op is idempotent against its own
// effect — adding a present triple or dropping a missing graph changes
// nothing — so replaying a sealed or logged run on top of its own result
// leaves the dataset unchanged. Adds of structurally invalid triples are
// skipped; writers that must report them check Triple.Valid first.
func (d *Dataset) Apply(ops []Op) {
	// Runs cluster by graph (MDM mutates one named graph at a time), so
	// the last graph resolved is kept across ops.
	var (
		name  Term
		graph *Graph
	)
	for _, op := range ops {
		switch op.Kind {
		case OpAdd:
			if graph == nil || name != op.Quad.Graph {
				name, graph = op.Quad.Graph, d.Graph(op.Quad.Graph)
			}
			_, _ = graph.Add(op.Quad.Triple) // invalid triples are skipped, see above
		case OpDrop:
			d.DropGraph(op.Quad.Graph)
			graph = nil
		case OpPrefix:
			d.prefixes.Bind(op.Prefix, op.NS)
		}
	}
}
