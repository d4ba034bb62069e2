package rest

import (
	"strconv"
	"unicode/utf8"

	"mdm/internal/relalg"
)

// Result cells are appended to a byte buffer straight from the engines'
// values — no []string per row, no string per numeric cell, no reflection.

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a JSON string literal the way
// encoding/json does with HTML escaping on: ", \ and control bytes are
// escaped, so are <, > and & (as \u00XX) and U+2028/U+2029, and each
// invalid UTF-8 byte becomes \ufffd.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b', '\t', '\n', '\f', '\r': // bytes 8-13 but \v, which has no short form
				dst = append(dst, '\\', "btn_fr"[b-'\b'])
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(append(dst, s[start:i]...), `\ufffd`...)
			start = i + size
		case c == '\u2028' || c == '\u2029':
			dst = append(append(dst, s[start:i]...), '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			start = i + size
		}
		i += size
	}
	return append(append(dst, s[start:]...), '"')
}

// appendValueCell appends a walk result cell: the JSON string of
// v.Text(). Only string values can need escaping.
func appendValueCell(dst []byte, v relalg.Value) []byte {
	switch v.T {
	case relalg.TypeString:
		return appendJSONString(dst, v.S)
	case relalg.TypeInt:
		dst = strconv.AppendInt(append(dst, '"'), v.I, 10)
	case relalg.TypeFloat:
		dst = strconv.AppendFloat(append(dst, '"'), v.F, 'g', -1, 64)
	case relalg.TypeBool:
		dst = strconv.AppendBool(append(dst, '"'), v.B)
	default: // NULL is the empty cell
		dst = append(dst, '"')
	}
	return append(dst, '"')
}
