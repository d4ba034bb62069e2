package relalg_test

import (
	"math"
	"testing"
	"testing/quick"
	"unsafe"

	. "mdm/internal/relalg"
	"mdm/internal/relalg/relalgtest"
)

func TestValueConstructorsAndText(t *testing.T) {
	cases := []struct {
		v    Value
		typ  Type
		text string
	}{
		{Null(), TypeNull, ""},
		{String("x"), TypeString, "x"},
		{Int(-5), TypeInt, "-5"},
		{Float(2.5), TypeFloat, "2.5"},
		{Bool(true), TypeBool, "true"},
	}
	for _, c := range cases {
		if c.v.T != c.typ {
			t.Errorf("type of %#v = %v, want %v", c.v, c.v.T, c.typ)
		}
		if got := c.v.Text(); got != c.text {
			t.Errorf("Text(%#v) = %q, want %q", c.v, got, c.text)
		}
	}
	if !Null().IsNull() || Int(0).IsNull() {
		t.Error("IsNull wrong")
	}
}

// TestValueSize pins a cell at 40 bytes: a relation stores its cells by
// value, so every byte here is paid once per cell of every snapshot. It is
// not 32, which folding the int, float and bool into one word would give,
// because the benchmark program reads the five fields by name
// (bench/synthetic.go) and a relation's rows as Rows (bench/trace.go); that
// step waits for the next change to the benchmark.
func TestValueSize(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 40 {
		t.Fatalf("sizeof(Value) = %d, want 40: keep the one-byte fields T and B last", got)
	}
}

func TestInfer(t *testing.T) {
	cases := []struct {
		in   string
		want Value
	}{
		{"42", Int(42)},
		{"-7", Int(-7)},
		{"170.18", Float(170.18)},
		{"1e3", Float(1000)},
		{"true", Bool(true)},
		{"false", Bool(false)},
		{"hello", String("hello")},
		{"", String("")},
		{"42abc", String("42abc")},
	}
	for _, c := range cases {
		if got := Infer(c.in); got != c.want {
			t.Errorf("Infer(%q) = %#v, want %#v", c.in, got, c.want)
		}
	}
}

func TestEqualNumericCoercion(t *testing.T) {
	if !Equal(Int(5), Float(5.0)) {
		t.Error("int 5 should equal float 5.0")
	}
	if Equal(Int(5), String("5")) {
		t.Error("int should not equal string")
	}
	if Equal(Null(), Null()) {
		t.Error("NULL = NULL must be false")
	}
	if Equal(Null(), Int(0)) || Equal(Int(0), Null()) {
		t.Error("NULL equals nothing")
	}
	if !Equal(String("a"), String("a")) || Equal(String("a"), String("b")) {
		t.Error("string equality wrong")
	}
	if !Equal(Bool(true), Bool(true)) || Equal(Bool(true), Bool(false)) {
		t.Error("bool equality wrong")
	}
	if Equal(Bool(true), Int(1)) {
		t.Error("bool should not coerce to int")
	}
}

func TestCompareOrdering(t *testing.T) {
	if Compare(Int(1), Int(2)) >= 0 || Compare(Int(2), Int(1)) <= 0 {
		t.Error("int ordering wrong")
	}
	if Compare(Int(2), Float(2.5)) >= 0 {
		t.Error("cross numeric ordering wrong")
	}
	if Compare(String("a"), String("b")) >= 0 {
		t.Error("string ordering wrong")
	}
	if Compare(Null(), Int(0)) >= 0 {
		t.Error("NULL should sort first")
	}
	if Compare(Bool(false), Bool(true)) >= 0 {
		t.Error("false < true expected")
	}
	if Compare(Int(7), Int(7)) != 0 || Compare(Int(7), Float(7)) != 0 {
		t.Error("equal numerics should compare 0")
	}
	if Compare(Bool(true), Int(0)) >= 0 {
		t.Error("bool should rank below numeric")
	}
	if Compare(Int(999), String("0")) >= 0 {
		t.Error("numeric should rank below string")
	}
}

func TestKeyCoercesNumerics(t *testing.T) {
	if relalgtest.Key(Int(3)) != relalgtest.Key(Float(3.0)) {
		t.Error("int/float keys should match for equal magnitude")
	}
	if relalgtest.Key(Int(3)) == relalgtest.Key(String("3")) {
		t.Error("int and string keys must differ")
	}
	if relalgtest.Key(Null()) == relalgtest.Key(String("")) {
		t.Error("NULL key must differ from empty string")
	}
}

// TestKeysMatchEqual pins both key forms to Equal on the values where
// text and bits disagree with arithmetic: Equal and ⋈/δ must treat 0 and
// -0 alike, and every NaN payload is one key (NaN equals nothing, so this
// is the one place the keys are coarser than Equal).
func TestKeysMatchEqual(t *testing.T) {
	negZero := math.Copysign(0, -1)
	nan2 := math.Float64frombits(math.Float64bits(math.NaN()) ^ 1)
	vals := []Value{
		Null(), Bool(true), Bool(false), String(""), String("0"), String("a\x01b"),
		Int(0), Float(0), Float(negZero), Int(3), Float(3), Float(3.5), Int(-3),
		Float(math.Inf(1)), Float(math.NaN()), Float(nan2), Int(1 << 53), Int(1<<53 + 1),
	}
	for _, a := range vals {
		for _, b := range vals {
			keyEq := relalgtest.Key(a) == relalgtest.Key(b)
			if byteEq := string(a.AppendKey(nil)) == string(b.AppendKey(nil)); byteEq != keyEq {
				t.Errorf("%#v vs %#v: Key equal = %v, AppendKey equal = %v", a, b, keyEq, byteEq)
			}
			fa, _ := a.AsFloat()
			fb, _ := b.AsFloat()
			want := Equal(a, b) || (a.IsNull() && b.IsNull()) || (fa != fa && fb != fb)
			if keyEq != want {
				t.Errorf("%#v vs %#v: keys equal = %v, want %v", a, b, keyEq, want)
			}
		}
	}
	// Self-delimiting: column boundaries survive concatenation.
	ab := String("b").AppendKey(String("a").AppendKey(nil))
	if string(ab) == string(String("").AppendKey(String("ab").AppendKey(nil))) {
		t.Error("concatenated AppendKeys of (a,b) and (ab,\"\") collide")
	}
}

func TestPropCompareAntisymmetric(t *testing.T) {
	f := func(a, b int64) bool {
		return Compare(Int(a), Int(b)) == -Compare(Int(b), Int(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropEqualIffKeyEqual(t *testing.T) {
	f := func(a, b int64) bool {
		return Equal(Int(a), Int(b)) == (relalgtest.Key(Int(a)) == relalgtest.Key(Int(b)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	g := func(a, b string) bool {
		return Equal(String(a), String(b)) == (relalgtest.Key(String(a)) == relalgtest.Key(String(b)))
	}
	if err := quick.Check(g, nil); err != nil {
		t.Error(err)
	}
}

func TestPropInferRoundTripsText(t *testing.T) {
	f := func(i int64) bool {
		v := Int(i)
		return Infer(v.Text()) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
