package sparql

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"

	"mdm/internal/rdf"
)

// Env supplies variable values to FILTER expressions. Binding is the
// eager map-based implementation; the ID-row engine passes a lazily
// decoding implementation so a filter only materializes the terms it
// actually reads (the decode-at-projection rule applied to filters).
type Env interface {
	// Lookup returns the term bound to the variable, or ok = false when
	// the variable is unbound.
	Lookup(name string) (rdf.Term, bool)
}

// Expr is a FILTER expression. Evaluation follows a pragmatic subset of
// SPARQL semantics: type errors make the enclosing FILTER reject the
// solution (error ⇒ effective boolean value false).
type Expr interface {
	// Eval computes the expression value under the environment.
	Eval(env Env) (Value, error)
	// Vars records the variables the expression mentions.
	Vars(dst map[string]bool)
	String() string
}

// Value is an expression result: a term or an evaluation error sentinel.
type Value struct {
	Term rdf.Term
}

// AsBool converts the value to an effective boolean value.
func (v Value) AsBool() (bool, error) {
	t := v.Term
	if !t.IsLiteral() {
		return false, fmt.Errorf("sparql: non-literal %s has no boolean value", t)
	}
	switch t.Datatype {
	case rdf.XSDBoolean:
		return strconv.ParseBool(t.Value)
	case rdf.XSDInteger, rdf.XSDDecimal, rdf.XSDDouble:
		f, err := strconv.ParseFloat(t.Value, 64)
		return f != 0, err
	default:
		return t.Value != "", nil
	}
}

// numeric returns the value as float64 if it is a numeric literal.
func (v Value) numeric() (float64, bool) {
	t := v.Term
	if !t.IsLiteral() {
		return 0, false
	}
	switch t.Datatype {
	case rdf.XSDInteger, rdf.XSDDecimal, rdf.XSDDouble:
		f, err := strconv.ParseFloat(t.Value, 64)
		return f, err == nil
	}
	return 0, false
}

// VarExpr references a variable.
type VarExpr struct{ Name string }

// Eval implements Expr.
func (e VarExpr) Eval(env Env) (Value, error) {
	t, ok := env.Lookup(e.Name)
	if !ok {
		return Value{}, fmt.Errorf("sparql: unbound variable ?%s", e.Name)
	}
	return Value{Term: t}, nil
}

// Vars implements Expr.
func (e VarExpr) Vars(dst map[string]bool) { dst[e.Name] = true }

func (e VarExpr) String() string { return "?" + e.Name }

// ConstExpr is a literal or IRI constant.
type ConstExpr struct{ Term rdf.Term }

// Eval implements Expr.
func (e ConstExpr) Eval(Env) (Value, error) { return Value{Term: e.Term}, nil }

// Vars implements Expr.
func (e ConstExpr) Vars(map[string]bool) {}

func (e ConstExpr) String() string { return e.Term.String() }

// CmpExpr is a binary comparison: = != < <= > >=.
type CmpExpr struct {
	Op   string
	L, R Expr
}

// Eval implements Expr.
func (e CmpExpr) Eval(env Env) (Value, error) {
	lv, err := e.L.Eval(env)
	if err != nil {
		return Value{}, err
	}
	rv, err := e.R.Eval(env)
	if err != nil {
		return Value{}, err
	}
	var res bool
	lf, lok := lv.numeric()
	rf, rok := rv.numeric()
	if lok && rok {
		switch e.Op {
		case "=":
			res = lf == rf
		case "!=":
			res = lf != rf
		case "<":
			res = lf < rf
		case "<=":
			res = lf <= rf
		case ">":
			res = lf > rf
		case ">=":
			res = lf >= rf
		default:
			return Value{}, fmt.Errorf("sparql: unknown operator %q", e.Op)
		}
		return Value{Term: rdf.BoolLit(res)}, nil
	}
	// Term comparison: equality on exact term, ordering on lexical value.
	switch e.Op {
	case "=":
		res = lv.Term == rv.Term
	case "!=":
		res = lv.Term != rv.Term
	case "<":
		res = lv.Term.Value < rv.Term.Value
	case "<=":
		res = lv.Term.Value <= rv.Term.Value
	case ">":
		res = lv.Term.Value > rv.Term.Value
	case ">=":
		res = lv.Term.Value >= rv.Term.Value
	default:
		return Value{}, fmt.Errorf("sparql: unknown operator %q", e.Op)
	}
	return Value{Term: rdf.BoolLit(res)}, nil
}

// Vars implements Expr.
func (e CmpExpr) Vars(dst map[string]bool) { e.L.Vars(dst); e.R.Vars(dst) }

func (e CmpExpr) String() string {
	return fmt.Sprintf("%s %s %s", operand(e.L), e.Op, operand(e.R))
}

// operand renders the operand of a comparison or a negation: a
// comparison there is parenthesized, since the grammar nests one only
// inside parentheses.
func operand(x Expr) string {
	if c, ok := x.(CmpExpr); ok {
		return "(" + c.String() + ")"
	}
	return x.String()
}

// LogicExpr is && or ||.
type LogicExpr struct {
	Op   string // "&&" or "||"
	L, R Expr
}

// Eval implements Expr.
func (e LogicExpr) Eval(env Env) (Value, error) {
	lv, err := e.L.Eval(env)
	if err != nil {
		return Value{}, err
	}
	lb, err := lv.AsBool()
	if err != nil {
		return Value{}, err
	}
	if e.Op == "&&" && !lb {
		return Value{Term: rdf.BoolLit(false)}, nil
	}
	if e.Op == "||" && lb {
		return Value{Term: rdf.BoolLit(true)}, nil
	}
	rv, err := e.R.Eval(env)
	if err != nil {
		return Value{}, err
	}
	rb, err := rv.AsBool()
	if err != nil {
		return Value{}, err
	}
	return Value{Term: rdf.BoolLit(rb)}, nil
}

// Vars implements Expr.
func (e LogicExpr) Vars(dst map[string]bool) { e.L.Vars(dst); e.R.Vars(dst) }

func (e LogicExpr) String() string { return fmt.Sprintf("(%s %s %s)", e.L, e.Op, e.R) }

// NotExpr negates its operand.
type NotExpr struct{ X Expr }

// Eval implements Expr.
func (e NotExpr) Eval(env Env) (Value, error) {
	v, err := e.X.Eval(env)
	if err != nil {
		return Value{}, err
	}
	bv, err := v.AsBool()
	if err != nil {
		return Value{}, err
	}
	return Value{Term: rdf.BoolLit(!bv)}, nil
}

// Vars implements Expr.
func (e NotExpr) Vars(dst map[string]bool) { e.X.Vars(dst) }

func (e NotExpr) String() string { return "!" + operand(e.X) }

// BoundExpr is BOUND(?v).
type BoundExpr struct{ Name string }

// Eval implements Expr.
func (e BoundExpr) Eval(env Env) (Value, error) {
	_, ok := env.Lookup(e.Name)
	return Value{Term: rdf.BoolLit(ok)}, nil
}

// Vars implements Expr.
func (e BoundExpr) Vars(dst map[string]bool) { dst[e.Name] = true }

func (e BoundExpr) String() string { return fmt.Sprintf("BOUND(?%s)", e.Name) }

// RegexExpr is REGEX(str-expr, pattern [, flags]).
type RegexExpr struct {
	X       Expr
	Pattern string
	Flags   string
	re      *regexp.Regexp
}

// NewRegexExpr compiles the pattern eagerly so syntax errors surface at
// parse time.
func NewRegexExpr(x Expr, pattern, flags string) (*RegexExpr, error) {
	p := pattern
	if strings.Contains(flags, "i") {
		p = "(?i)" + p
	}
	re, err := regexp.Compile(p)
	if err != nil {
		return nil, fmt.Errorf("sparql: bad regex %q: %w", pattern, err)
	}
	return &RegexExpr{X: x, Pattern: pattern, Flags: flags, re: re}, nil
}

// Eval implements Expr.
func (e *RegexExpr) Eval(env Env) (Value, error) {
	v, err := e.X.Eval(env)
	if err != nil {
		return Value{}, err
	}
	return Value{Term: rdf.BoolLit(e.re.MatchString(v.Term.Value))}, nil
}

// Vars implements Expr.
func (e *RegexExpr) Vars(dst map[string]bool) { e.X.Vars(dst) }

func (e *RegexExpr) String() string {
	if e.Flags != "" {
		return fmt.Sprintf("REGEX(%s, %s, %s)", e.X, rdf.Lit(e.Pattern), rdf.Lit(e.Flags))
	}
	return fmt.Sprintf("REGEX(%s, %s)", e.X, rdf.Lit(e.Pattern))
}

// StrExpr is STR(expr): the lexical form of a term.
type StrExpr struct{ X Expr }

// Eval implements Expr.
func (e StrExpr) Eval(env Env) (Value, error) {
	v, err := e.X.Eval(env)
	if err != nil {
		return Value{}, err
	}
	return Value{Term: rdf.Lit(v.Term.Value)}, nil
}

// Vars implements Expr.
func (e StrExpr) Vars(dst map[string]bool) { e.X.Vars(dst) }

func (e StrExpr) String() string { return fmt.Sprintf("STR(%s)", e.X) }
