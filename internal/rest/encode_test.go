package rest

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"mdm/internal/relalg"
)

// jsonStringSeeds are the inputs on which a hand-written escaper and
// encoding/json could disagree.
var jsonStringSeeds = []string{
	"",
	"plain ascii",
	"<script>&amp;</script>",
	`"quoted" and \backslashed\`,
	"\x00\x01\x1f\x7f",
	"\b\f\n\r\t",
	"bad \xff\xfe utf-8, truncated \xc3",
	"\xed\xa0\x80 surrogate half",
	"line\u2028and\u2029paragraph separators",
	"héllo wörld ✓ 日本語 🎉",
	strings.Repeat("multi-KB <&> \u2028 \xff \" \\ \n", 400),
}

// checkJSONString holds appendJSONString to json.Marshal, byte for byte,
// and to appending (dst's content survives).
func checkJSONString(t testing.TB, s string) {
	t.Helper()
	want, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if got := appendJSONString([]byte("dst"), s); string(got) != "dst"+string(want) {
		t.Errorf("appendJSONString(%q)\n got: %s\nwant: dst%s", s, got, want)
	}
}

func TestAppendJSONString(t *testing.T) {
	for _, s := range jsonStringSeeds {
		checkJSONString(t, s)
	}
}

func FuzzAppendJSONString(f *testing.F) {
	for _, s := range jsonStringSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) { checkJSONString(t, s) })
}

// TestAppendValueCell: a walk cell is the JSON string of Value.Text().
func TestAppendValueCell(t *testing.T) {
	for _, v := range []relalg.Value{
		relalg.Null(), relalg.String(""), relalg.String(`a<b>"c"`), relalg.Bool(true), relalg.Bool(false),
		relalg.Int(0), relalg.Int(-42), relalg.Int(math.MinInt64), relalg.Float(170.18), relalg.Float(1e21),
		relalg.Float(-1e-7), relalg.Float(math.Copysign(0, -1)), relalg.Float(math.Inf(-1)), relalg.Float(math.NaN()),
	} {
		want, _ := json.Marshal(v.Text())
		if got := appendValueCell(nil, v); string(got) != string(want) {
			t.Errorf("appendValueCell(%#v) = %s, want %s", v, got, want)
		}
	}
}
