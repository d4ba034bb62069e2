package sparql

import "mdm/internal/rdf"

// ParseTriG reads a TriG document (Turtle plus named-graph blocks) into a
// new dataset with the query parser's lexer and term and triples
// grammar. On top of a query's triples it reads what only data has:
// @prefix and PREFIX directives between statements, graph blocks opened
// by an IRI, by GRAPH and an IRI, or by a bare '{' (the default graph),
// and blank nodes (_:label, and [] for a fresh one). Every term must be
// ground: a variable or a property path is an error. Prefix bindings go
// to the dataset's PrefixMap, which starts with the rdf, rdfs, owl and
// xsd prefixes bound. rdf.WriteDataset writes what ParseTriG reads back
// as the same quads and bindings.
func ParseTriG(src string) (*rdf.Dataset, error) {
	ds := rdf.NewDataset()
	p := &parser{lx: newLexer(src, "trig"), prefixes: ds.Prefixes(), data: true}
	err := p.bump()
	for err == nil && p.tok.kind != tokEOF {
		err = p.parseTriGStatement(ds)
	}
	if err != nil {
		return nil, err
	}
	return ds, nil
}

func (p *parser) parseTriGStatement(ds *rdf.Dataset) error {
	var name Node // of the graph block the statement opens
	switch {
	case p.tok.kind == tokLangTag && p.tok.text == "prefix": // @prefix ex: <iri> .
		if err := p.bump(); err != nil {
			return err
		}
		if err := p.parsePrefixDecl(); err != nil {
			return err
		}
		return p.expectDot()
	case p.tok.kind == tokKeyword && p.tok.text == "PREFIX":
		if err := p.bump(); err != nil {
			return err
		}
		return p.parsePrefixDecl()
	case p.tok.kind == tokKeyword && p.tok.text == "GRAPH":
		if err := p.bump(); err != nil {
			return err
		}
		var err error
		if name, err = p.parseNode(); err != nil {
			return err
		}
		if !name.Term.IsIRI() || p.tok.kind != tokLBrace {
			return p.errf("expected an IRI and { after GRAPH")
		}
	case p.tok.kind != tokLBrace:
		subj, err := p.parseNode()
		if err != nil {
			return err
		}
		if p.tok.kind != tokLBrace || !subj.Term.IsIRI() {
			p.graph = ds.Default()
			if err := p.parsePropertyList(nil, subj); err != nil {
				return err
			}
			return p.expectDot()
		}
		name = subj
	}
	// A graph block, from its '{'; the last triples before the '}' need
	// no '.'.
	p.graph = ds.Graph(name.Term)
	if err := p.bump(); err != nil {
		return err
	}
	for p.tok.kind != tokRBrace {
		if p.tok.kind == tokEOF {
			return p.errf("unterminated graph block")
		}
		subj, err := p.parseNode()
		if err != nil {
			return err
		}
		if err := p.parsePropertyList(nil, subj); err != nil {
			return err
		}
		if p.tok.kind != tokRBrace {
			if err := p.expectDot(); err != nil {
				return err
			}
		}
	}
	return p.bump()
}

func (p *parser) expectDot() error {
	if p.tok.kind != tokDot {
		return p.errf("expected '.' after triples, got %q", p.tok.text)
	}
	return p.bump()
}
