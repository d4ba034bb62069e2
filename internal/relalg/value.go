// Package relalg is the relational algebra the walk rewriters emit:
// typed relations and the six operators of a union of conjunctive queries
// under set semantics — scan, projection, renaming, equi-join, union and
// distinct — with a light optimizer.
//
// In the original MDM, data fetched by wrappers was loaded into temporary
// SQLite tables and the rewritten query was executed as federated SQL.
// This package plays that role: the query rewriting algorithm emits a
// relalg.Plan over wrapper-backed Scan nodes, which internal/federate
// streams; the materializing executor its tests compare against is
// relalgtest.Execute, which no binary links. Plans also render as algebra
// expressions (π, ρ, ⋈, ∪, δ) so the demo can display them exactly as
// Figure 8 of the paper does.
package relalg

import (
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Type enumerates scalar types.
type Type uint8

// Scalar types. TypeNull is the type of the SQL-like NULL value.
const (
	TypeNull Type = iota
	TypeString
	TypeInt
	TypeFloat
	TypeBool
)

// String returns the type name.
func (t Type) String() string {
	switch t {
	case TypeNull:
		return "null"
	case TypeString:
		return "string"
	case TypeInt:
		return "int"
	case TypeFloat:
		return "float"
	case TypeBool:
		return "bool"
	}
	return fmt.Sprintf("Type(%d)", uint8(t))
}

// Value is a scalar cell value. The zero Value is NULL. The fields are
// ordered widest first so that the two one-byte fields share the last
// word: a cell is 40 bytes, not the 48 that T-first padding made it, and
// every relation, row slab and document map stores cells by value.
type Value struct {
	S string
	I int64
	F float64
	T Type
	B bool
}

// Null returns the NULL value.
func Null() Value { return Value{} }

// String returns a string value.
func String(s string) Value { return Value{T: TypeString, S: s} }

// Int returns an integer value.
func Int(i int64) Value { return Value{T: TypeInt, I: i} }

// Float returns a float value.
func Float(f float64) Value { return Value{T: TypeFloat, F: f} }

// Bool returns a boolean value.
func Bool(b bool) Value { return Value{T: TypeBool, B: b} }

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.T == TypeNull }

// AsFloat converts numeric values to float64.
func (v Value) AsFloat() (float64, bool) {
	switch v.T {
	case TypeInt:
		return float64(v.I), true
	case TypeFloat:
		return v.F, true
	}
	return 0, false
}

// Text renders the value for display; NULL renders as the empty string.
func (v Value) Text() string {
	switch v.T {
	case TypeNull:
		return ""
	case TypeString:
		return v.S
	case TypeInt:
		return strconv.FormatInt(v.I, 10)
	case TypeFloat:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case TypeBool:
		return strconv.FormatBool(v.B)
	}
	return ""
}

// GoString renders the value with type info, for debugging.
func (v Value) GoString() string {
	if v.IsNull() {
		return "NULL"
	}
	return fmt.Sprintf("%s(%s)", v.T, v.Text())
}

// Infer parses a string into the most specific value type: int, float,
// bool, else string. Empty strings stay strings (not NULL) because
// wrappers distinguish missing fields explicitly.
func Infer(s string) Value {
	if s == "" {
		return String("")
	}
	if i, err := strconv.ParseInt(s, 10, 64); err == nil {
		return Int(i)
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		return Float(f)
	}
	if s == "true" || s == "false" {
		return Bool(s == "true")
	}
	return String(s)
}

// Equal compares two values for equality with numeric coercion between
// int and float. NULL equals nothing, including NULL (SQL semantics).
func Equal(a, b Value) bool {
	if a.IsNull() || b.IsNull() {
		return false
	}
	if fa, ok := a.AsFloat(); ok {
		if fb, ok := b.AsFloat(); ok {
			return fa == fb
		}
		return false
	}
	if a.T != b.T {
		return false
	}
	switch a.T {
	case TypeString:
		return a.S == b.S
	case TypeBool:
		return a.B == b.B
	}
	return false
}

// Compare orders values: NULL < bool < numeric < string; within numerics
// by value, within strings lexically. ok is false when the values are
// incomparable under these rules (never, currently).
func Compare(a, b Value) int {
	ra, rb := rank(a), rank(b)
	if ra != rb {
		if ra < rb {
			return -1
		}
		return 1
	}
	switch {
	case a.IsNull():
		return 0
	case ra == 1: // bool
		switch {
		case !a.B && b.B:
			return -1
		case a.B && !b.B:
			return 1
		}
		return 0
	case ra == 2: // numeric
		fa, _ := a.AsFloat()
		fb, _ := b.AsFloat()
		switch {
		case fa < fb:
			return -1
		case fa > fb:
			return 1
		}
		return 0
	default:
		return strings.Compare(a.S, b.S)
	}
}

func rank(v Value) int {
	switch v.T {
	case TypeNull:
		return 0
	case TypeBool:
		return 1
	case TypeInt, TypeFloat:
		return 2
	default:
		return 3
	}
}

// AppendKey appends a canonical hash key of v to dst: a type tag, then
// the IEEE bits of a numeric, a bool byte, or the length-prefixed bytes of
// a string. Two non-NULL values share a key exactly when Equal holds —
// numeric values of equal magnitude do, whether int or float, and so do 0
// and -0 — except that every NaN shares one key although NaN equals
// nothing. Keys are self-delimiting, so those of several columns
// concatenate without separators.
func (v Value) AppendKey(dst []byte) []byte {
	switch v.T {
	case TypeNull:
		return append(dst, 'N')
	case TypeBool:
		if v.B {
			return append(dst, 'B', 1)
		}
		return append(dst, 'B', 0)
	case TypeInt, TypeFloat:
		return binary.BigEndian.AppendUint64(append(dst, 'F'), math.Float64bits(v.keyFloat()))
	default:
		return append(binary.AppendUvarint(append(dst, 'S'), uint64(len(v.S))), v.S...)
	}
}

// keyFloat is a numeric value as its keys see it: -0 folded into 0 and
// every NaN payload into one.
func (v Value) keyFloat() float64 {
	f, _ := v.AsFloat()
	switch {
	case f == 0:
		return 0
	case f != f:
		return math.NaN()
	}
	return f
}
