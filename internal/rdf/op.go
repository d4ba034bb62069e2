package rdf

import "fmt"

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

// CheckOp reports an op that must not reach a dataset, a log or a
// segment: a graph is named by an IRI or a blank node, the default graph
// by the zero term, and a triple must be storable.
func CheckOp(op Op) error {
	g := op.Quad.Graph
	switch op.Kind {
	case OpAdd:
		if !op.Quad.Triple.Valid() || !(g.IsZero() || g.IsIRI() || g.IsBlank()) {
			return fmt.Errorf("rdf: invalid quad %s", op.Quad)
		}
	case OpDrop:
		if g.IsZero() || !(g.IsIRI() || g.IsBlank()) {
			return fmt.Errorf("rdf: drop of invalid graph name %s", g)
		}
	case OpPrefix:
	default:
		return fmt.Errorf("rdf: unknown op kind %d", op.Kind)
	}
	return nil
}

// Commit is the write path of a dataset no store logs: it checks every op
// of the batch (CheckOp) and, only when all pass, applies them in order,
// so a batch with one bad op changes nothing.
func (d *Dataset) Commit(ops []Op) error {
	for _, op := range ops {
		if err := CheckOp(op); err != nil {
			return err
		}
	}
	d.Apply(ops)
	return nil
}

// Apply performs ops in order. Every op is idempotent against its own
// effect — adding a present triple or dropping a missing graph changes
// nothing — so replaying a sealed or logged run on top of its own result
// leaves the dataset unchanged. Adds of structurally invalid triples are
// skipped; writers that must report them go through Commit or CheckOp.
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
