package rdf

// OpKind names a dataset mutation.
type OpKind byte

// Mutation kinds. The values are part of the segment file format.
const (
	OpAdd OpKind = iota
	OpRemove
	OpDrop
	OpPrefix
)

// Op is one dataset mutation in the form the storage layers log, seal
// and replay: the ontology builds them, the tdb WAL records them and
// delta segments carry them.
type Op struct {
	Kind       OpKind
	Quad       Quad   // add / remove; Graph doubles as the drop victim
	Prefix, NS string // prefix
}

// Apply performs ops in order. Every op is idempotent against its own
// effect — adding a present triple, removing an absent one or dropping a
// missing graph changes nothing — so replaying a sealed or logged run on
// top of its own result leaves the dataset unchanged. Removing from a
// named graph that does not exist does not create it (and so does not
// bump Version). Adds of structurally invalid triples are skipped;
// writers that must report them check Triple.Valid first.
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
		case OpRemove:
			if g, ok := d.Lookup(op.Quad.Graph); ok {
				g.Remove(op.Quad.Triple)
			}
		case OpDrop:
			d.DropGraph(op.Quad.Graph)
			graph = nil
		case OpPrefix:
			d.prefixes.Bind(op.Prefix, op.NS)
		}
	}
}
