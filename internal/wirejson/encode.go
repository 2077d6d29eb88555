package wirejson

import (
	"errors"
	"math"
	"strconv"
	"unicode/utf8"
)

// Encoder appends a record's JSON encoding to Buf, byte for byte what
// json.Marshal writes for it. A float json.Marshal refuses — NaN or an
// infinity — leaves its first such error in Err and the bytes unusable.
type Encoder struct {
	Buf []byte
	Err error
}

// Raw appends s as it is: the punctuation and quoted keys of a record.
func (e *Encoder) Raw(s string) { e.Buf = append(e.Buf, s...) }

// String appends s as a JSON string.
func (e *Encoder) String(s string) { e.Buf = AppendString(e.Buf, s) }

// Int appends n.
func (e *Encoder) Int(n int) { e.Buf = strconv.AppendInt(e.Buf, int64(n), 10) }

// Bool appends b.
func (e *Encoder) Bool(b bool) { e.Buf = strconv.AppendBool(e.Buf, b) }

// Float appends f as encoding/json formats a float64: the shortest
// representation that round-trips, in exponent form outside
// [1e-6, 1e21) with a one-digit negative exponent unpadded.
func (e *Encoder) Float(f float64) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		if e.Err == nil {
			e.Err = errors.New("json: unsupported value: " + strconv.FormatFloat(f, 'g', -1, 64))
		}
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.Buf = strconv.AppendFloat(e.Buf, f, format, -1, 64)
	if n := len(e.Buf); format == 'e' && e.Buf[n-4] == 'e' && e.Buf[n-3] == '-' && e.Buf[n-2] == '0' {
		e.Buf[n-2] = e.Buf[n-1] // e-07 → e-7
		e.Buf = e.Buf[:n-1]
	}
}

// Ints appends s as a JSON array, null when s is nil.
func (e *Encoder) Ints(s []int) {
	if s == nil {
		e.Raw("null")
		return
	}
	e.Buf = append(e.Buf, '[')
	for i, n := range s {
		if i > 0 {
			e.Buf = append(e.Buf, ',')
		}
		e.Int(n)
	}
	e.Buf = append(e.Buf, ']')
}

// Add takes over the result of another record's append encoder, called
// on Buf: e.Add(rec.AppendJSON(e.Buf)).
func (e *Encoder) Add(b []byte, err error) {
	e.Buf = b
	if e.Err == nil {
		e.Err = err
	}
}

// AppendSlice appends items as a JSON array, each element by
// appendElem, and null for a nil slice, as json.Marshal writes them.
func AppendSlice[T any](b []byte, items []T, appendElem func(T, []byte) ([]byte, error)) ([]byte, error) {
	if items == nil {
		return append(b, "null"...), nil
	}
	e := Encoder{Buf: append(b, '[')}
	for i := range items {
		if i > 0 {
			e.Buf = append(e.Buf, ',')
		}
		e.Add(appendElem(items[i], e.Buf))
	}
	e.Buf = append(e.Buf, ']')
	return e.Buf, e.Err
}

// htmlSafe marks the ASCII bytes a JSON string carries unescaped when
// HTML characters are escaped, as json.Marshal does.
var htmlSafe = func() (safe [utf8.RuneSelf]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		safe[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return safe
}()

const hexDigits = "0123456789abcdef"

// AppendString appends s as a JSON string the way json.Marshal does:
// the quote, the backslash, control bytes and the HTML characters < > &
// escaped, invalid UTF-8 replaced by U+FFFD, and U+2028 and U+2029
// escaped for JavaScript.
func AppendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if htmlSafe[c] {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, n := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && n == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += n
			continue
		}
		i += n
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
