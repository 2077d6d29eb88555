// Package wirejson is the one JSON codec of the daemon's wire records:
// the job, status, cluster, report and error bodies of the HTTP API and
// the job record of the write-ahead log, the replication stream and the
// snapshot. Each record's codec sits beside its type, written against
// this package: a decoder built from the scanner here and an append
// encoder built from the encoders in encode.go.
//
// The decoder accepts exactly what encoding/json accepts for the
// records and yields the same values: the JSON grammar, escapes with
// invalid UTF-8 and lone surrogates replaced by U+FFFD, numbers parsed
// by strconv from their exact literal, keys matched exactly or else
// case-insensitively, unknown keys skipped, the last duplicate key
// winning, null leaving a field as it is (and clearing a slice or a
// pointer), a syntax error anywhere beating the first type error.
// Unlike encoding/json it allocates little beyond the value itself: a
// string repeated within one document is allocated once and a string
// the record names as a known value not at all, every slice is counted
// before it is filled and allocated once, and the integer lists and
// optional numbers inside an array's elements are carved from one slab
// per array.
package wirejson

import (
	"reflect"
	"strconv"
	"strings"
	"sync"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// maxDepth is encoding/json's nesting limit.
const maxDepth = 10000

// SyntaxError is input that is not one well-formed JSON value.
type SyntaxError struct {
	msg string
}

func (e *SyntaxError) Error() string { return e.msg }

// TypeError is a well-formed JSON value that does not fit the field it
// is decoded into: a string for a number, an object for a list, a
// fraction or an out-of-range literal for an integer. Struct and Field
// name the field as encoding/json does.
type TypeError struct {
	Value  string // what the input held: "string", "number 1.5", …
	Type   string // the Go type the field takes
	Struct string // the innermost record with a member open, "" outside any
	Field  string // the open members' names, outermost first, joined by "."
}

func (e *TypeError) Error() string {
	if e.Struct != "" || e.Field != "" {
		return "json: cannot unmarshal " + e.Value + " into Go struct field " + e.Struct + "." + e.Field + " of type " + e.Type
	}
	return "json: cannot unmarshal " + e.Value + " into Go value of type " + e.Type
}

// Decoder reads one JSON document. Get one from Unmarshal; the decode
// methods of the records drive it.
type Decoder struct {
	data   []byte
	pos    int
	depth  int
	syntax *SyntaxError
	typ    *TypeError

	// seen holds the first copy of the strings decoded so far, for the
	// next equal string to share.
	seen  [16]string
	nseen int
	// ints and floats are the slabs integer lists and optional numbers
	// are carved from; left is how many elements of the innermost array
	// being decoded follow the current one.
	ints   []int
	floats []float64
	left   int
	// esc holds the current string's bytes when it had to be unescaped.
	esc []byte
	// open is the records being decoded, outermost first, each with the
	// member whose value is being decoded: a type error's field.
	open []member
}

type member struct {
	keys *Keys
	name string // "" between members and under a key no field takes
}

var decoders = sync.Pool{New: func() any { return new(Decoder) }}

// maxPooledEsc bounds the unescape scratch a pooled decoder keeps.
const maxPooledEsc = 64 << 10

// Unmarshal decodes data, which must hold one JSON value and nothing
// but whitespace around it, with decode. The error is the first syntax
// error in data, or else the first type error, as with encoding/json.
func Unmarshal(data []byte, decode func(*Decoder)) error {
	d := decoders.Get().(*Decoder)
	*d = Decoder{data: data, esc: d.esc[:0], open: d.open[:0]}
	decode(d)
	if d.skipSpace(); d.pos < len(d.data) {
		d.fail("after top-level value")
	}
	var err error
	if d.syntax != nil {
		err = d.syntax
	} else if d.typ != nil {
		err = d.typ
	}
	esc := d.esc[:0]
	if cap(esc) > maxPooledEsc {
		esc = nil
	}
	*d = Decoder{esc: esc, open: d.open[:0]}
	decoders.Put(d)
	return err
}

// --- records ---

// Keys is a record's member names in declaration order, and the names
// of its Go type that type errors report.
type Keys struct {
	names    []string
	folded   []string
	typ      string // "energysched.JobSpec"
	typeName string // "JobSpec"
}

// KeysOf reads the member names of record type T from its fields' json
// tags, once at start-up: the tags stay the one declaration of the
// names, and of their order (the first case-folded match wins).
func KeysOf[T any]() *Keys {
	t := reflect.TypeFor[T]()
	k := &Keys{typ: t.String(), typeName: t.Name()}
	for i := 0; i < t.NumField(); i++ {
		name, _, _ := strings.Cut(t.Field(i).Tag.Get("json"), ",")
		k.names = append(k.names, name)
		k.folded = append(k.folded, string(appendFolded(nil, []byte(name))))
	}
	return k
}

// match returns the name key selects: the name equal to it, or else
// the first whose case-folded form equals the key's (encoding/json's
// fallback), or "" for a key no field takes.
func (k *Keys) match(key []byte) string {
	for _, n := range k.names {
		if string(key) == n {
			return n
		}
	}
	var buf [32]byte
	folded := appendFolded(buf[:0], key)
	for i, f := range k.folded {
		if string(folded) == f {
			return k.names[i]
		}
	}
	return ""
}

// appendFolded appends the form of s under which encoding/json compares
// keys case-insensitively: ASCII letters upper-cased, every other rune
// replaced by the smallest rune of its case-folding orbit.
func appendFolded(dst, s []byte) []byte {
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if 'a' <= c && c <= 'z' {
				c -= 'a' - 'A'
			}
			dst = append(dst, c)
			i++
			continue
		}
		r, n := utf8.DecodeRune(s[i:])
		for {
			next := unicode.SimpleFold(r)
			if next <= r {
				r = next
				break
			}
			r = next
		}
		dst = utf8.AppendRune(dst, r)
		i += n
	}
	return dst
}

// Object enters the object at the cursor, a record with member names
// keys, and reports whether a member follows. It returns false, having
// consumed the value, for an empty object, for null (which leaves a
// record as it is) and for any other value (a type error). Read each
// member with Key and its value, then call More.
func (d *Decoder) Object(keys *Keys) bool {
	if d.Null() {
		return false
	}
	if d.peek() != '{' {
		d.mismatch(keys.typ)
		return false
	}
	if !d.enter('}') {
		return false
	}
	d.open = append(d.open, member{keys: keys})
	return true
}

// Key reads a member's key and the colon after it and returns the name
// in the record's keys it selects, or "" for a key no field takes: the
// caller then skips the value.
func (d *Decoder) Key() string {
	if d.peek() != '"' {
		d.fail("looking for beginning of object key string")
		return ""
	}
	key, ok := d.str()
	if !ok {
		return ""
	}
	if d.peek() != ':' {
		d.fail("after object key")
		return ""
	}
	d.pos++
	m := &d.open[len(d.open)-1]
	m.name = m.keys.match(key)
	return m.name
}

// More consumes what follows an object member and reports whether
// another member follows it; false leaves the record.
func (d *Decoder) More() bool {
	if d.next('}') {
		return true
	}
	d.open = d.open[:len(d.open)-1]
	return false
}

// Slice decodes an array into *p the way encoding/json does: null
// stores nil, [] an empty slice, and elem decodes each element into the
// slot it lands in — a zero value, or on a repeated key the element the
// earlier array left there. A slice decoded for the first time is
// counted before it is filled, so it is allocated once, and the integer
// lists its elements hold share one slab.
func Slice[T any](d *Decoder, p *[]T, elem func(*T, *Decoder)) {
	if d.Null() {
		*p = nil
		return
	}
	if d.peek() != '[' {
		d.mismatch(reflect.TypeFor[[]T]().String())
		return
	}
	s, n := *p, 0
	if s == nil {
		var nested int
		n, nested = d.count()
		s = make([]T, 0, n)
		if len(d.ints) < nested {
			d.ints = make([]int, nested)
		}
	}
	outer := d.left
	i := 0
	for more := d.enter(']'); more; more = d.next(']') {
		if i < cap(s) {
			s = s[:i+1]
		} else {
			var zero T
			s = append(s, zero)
		}
		d.left = max(n-i-1, 0)
		elem(&s[i], d)
		i++
	}
	d.left = outer
	if i == 0 {
		s = []T{}
	}
	*p = s[:i]
}

// count scans the array at the cursor, without consuming it, for the
// number of its elements and the number of elements of the arrays one
// record down (the member lists of its elements). Malformed input only
// makes the counts wrong: they size allocations, the decoding checks.
func (d *Decoder) count() (elems, nested int) {
	var isArray [4]bool // the container kind at each of the first depths
	depth, valueNext := 0, false
	for i := d.pos; i < len(d.data); i++ {
		c := d.data[i]
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			continue
		}
		if valueNext && c != ']' {
			switch depth {
			case 1:
				elems++
			case 3:
				nested++
			}
		}
		valueNext = false
		switch c {
		case '"':
			for i++; i < len(d.data) && d.data[i] != '"'; i++ {
				if d.data[i] == '\\' {
					i++
				}
			}
		case '[', '{':
			depth++
			if depth < len(isArray) {
				isArray[depth] = c == '['
			}
			valueNext = c == '['
		case ']', '}':
			if depth--; depth == 0 {
				return elems, nested
			}
		case ',':
			valueNext = depth < len(isArray) && isArray[depth]
		}
	}
	return elems, nested
}

// --- fields ---

// String decodes a string into *p; null leaves *p as it is. A value
// equal to one of known is stored as that string and a value this
// document already held as its first copy, so neither allocates.
func (d *Decoder) String(p *string, known []string) {
	switch d.peek() {
	case '"':
		if b, ok := d.str(); ok {
			*p = d.intern(b, known)
		}
	case 'n':
		d.null()
	default:
		d.mismatch("string")
	}
}

func (d *Decoder) intern(b []byte, known []string) string {
	for _, s := range known {
		if string(b) == s {
			return s
		}
	}
	for _, s := range d.seen[:d.nseen] {
		if string(b) == s {
			return s
		}
	}
	s := string(b)
	if d.nseen < len(d.seen) {
		d.seen[d.nseen] = s
		d.nseen++
	}
	return s
}

// Float decodes a number into *p; null leaves *p as it is.
func (d *Decoder) Float(p *float64) {
	switch c := d.peek(); {
	case c == '-' || isDigit(c):
		if lit := d.number(); lit != nil {
			f, err := strconv.ParseFloat(string(lit), 64)
			if err != nil {
				d.wrong("number "+string(lit), "float64")
				return
			}
			*p = f
		}
	case c == 'n':
		d.null()
	default:
		d.mismatch("float64")
	}
}

// FloatPtr decodes a number into **p and null into a nil *p. A nil *p
// gets its float from the slab of the array being decoded, so a batch
// of records allocates its optional numbers once.
func (d *Decoder) FloatPtr(p **float64) {
	if d.Null() {
		*p = nil
		return
	}
	if *p == nil {
		if len(d.floats) == 0 {
			d.floats = make([]float64, 1+d.left)
		}
		*p, d.floats = &d.floats[0], d.floats[1:]
	}
	d.Float(*p)
}

// Int decodes an integer into *p; null leaves *p as it is.
func (d *Decoder) Int(p *int) {
	switch c := d.peek(); {
	case c == '-' || isDigit(c):
		if lit := d.number(); lit != nil {
			n, err := strconv.ParseInt(string(lit), 10, strconv.IntSize)
			if err != nil {
				d.wrong("number "+string(lit), "int")
				return
			}
			*p = int(n)
		}
	case c == 'n':
		d.null()
	default:
		d.mismatch("int")
	}
}

// Bool decodes true or false into *p; null leaves *p as it is.
func (d *Decoder) Bool(p *bool) {
	switch d.peek() {
	case 't':
		if d.literal("true") {
			*p = true
		}
	case 'f':
		if d.literal("false") {
			*p = false
		}
	case 'n':
		d.null()
	default:
		d.mismatch("bool")
	}
}

// Ints decodes an array of integers into *p: null stores nil, [] an
// empty slice. The elements are carved from the slab of the enclosing
// Slice, or allocated at the array's length.
func (d *Decoder) Ints(p *[]int) {
	if d.Null() {
		*p = nil
		return
	}
	if d.peek() != '[' {
		d.mismatch("[]int")
		return
	}
	n, _ := d.count()
	var s []int
	if len(d.ints) >= n {
		s, d.ints = d.ints[:0:n], d.ints[n:]
	} else {
		s = make([]int, 0, n)
	}
	for more := d.enter(']'); more; more = d.next(']') {
		s = append(s, 0)
		d.Int(&s[len(s)-1])
	}
	if len(s) == 0 {
		s = []int{}
	}
	*p = s
}

// Null consumes a null at the cursor and reports whether there was one:
// a pointer or a slice then stores nil, and anything else decodes into
// the value it points to.
func (d *Decoder) Null() bool {
	if d.peek() != 'n' {
		return false
	}
	d.null()
	return true
}

// Skip consumes the value at the cursor, checking its syntax.
func (d *Decoder) Skip() {
	switch c := d.peek(); {
	case c == '{':
		for more := d.enter('}'); more; more = d.next('}') {
			if d.peek() != '"' {
				d.fail("looking for beginning of object key string")
				return
			}
			d.str()
			if d.peek() != ':' {
				d.fail("after object key")
				return
			}
			d.pos++
			d.Skip()
		}
	case c == '[':
		for more := d.enter(']'); more; more = d.next(']') {
			d.Skip()
		}
	case c == '"':
		d.str()
	case c == 't':
		d.literal("true")
	case c == 'f':
		d.literal("false")
	case c == 'n':
		d.null()
	case c == '-' || isDigit(c):
		d.number()
	default:
		d.fail("looking for beginning of value")
	}
}

// --- scanner ---

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func (d *Decoder) skipSpace() {
	for d.pos < len(d.data) {
		switch d.data[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

// peek skips whitespace and returns the next byte, 0 at the end of the
// input (a 0 byte is no token either).
func (d *Decoder) peek() byte {
	if d.skipSpace(); d.pos < len(d.data) {
		return d.data[d.pos]
	}
	return 0
}

// fail records a syntax error at the cursor — the first one wins — and
// moves the cursor to the end, so decoding winds down.
func (d *Decoder) fail(context string) {
	if d.syntax == nil {
		msg := "unexpected end of JSON input"
		if d.pos < len(d.data) {
			msg = "invalid character " + quoteChar(d.data[d.pos]) + " " + context
		}
		d.syntax = &SyntaxError{msg: msg}
	}
	d.pos = len(d.data)
}

func quoteChar(c byte) string {
	switch c {
	case '\'':
		return `'\''`
	case '"':
		return `'"'`
	}
	q := strconv.Quote(string(rune(c)))
	return "'" + q[1:len(q)-1] + "'"
}

// wrong records a type error — the first one wins; decoding goes on.
// The field it names is the path of open members, as encoding/json
// reports it.
func (d *Decoder) wrong(value, typ string) {
	if d.typ != nil {
		return
	}
	e := &TypeError{Value: value, Type: typ}
	var path []string
	for _, m := range d.open {
		if m.name != "" {
			e.Struct = m.keys.typeName
			path = append(path, m.name)
		}
	}
	e.Field = strings.Join(path, ".")
	d.typ = e
}

// mismatch skips a value that does not fit a field of type typ and
// records the type error, unless the value is malformed too.
func (d *Decoder) mismatch(typ string) {
	value := "number"
	switch d.peek() {
	case '"':
		value = "string"
	case '{':
		value = "object"
	case '[':
		value = "array"
	case 't', 'f':
		value = "bool"
	}
	d.Skip()
	if d.syntax == nil {
		d.wrong(value, typ)
	}
}

// enter consumes the opening byte of a container whose closing byte is
// end and reports whether an element follows.
func (d *Decoder) enter(end byte) bool {
	if d.depth++; d.depth > maxDepth {
		d.fail("exceeding max depth")
		return false
	}
	d.pos++
	if d.peek() == end {
		d.pos++
		d.depth--
		return false
	}
	return true
}

// next consumes the comma after an element, or the container's closing
// byte, and reports whether another element follows.
func (d *Decoder) next(end byte) bool {
	switch d.peek() {
	case ',':
		d.pos++
		return true
	case end:
		d.pos++
		d.depth--
		return false
	}
	if end == '}' {
		d.fail("after object key:value pair")
	} else {
		d.fail("after array element")
	}
	return false
}

func (d *Decoder) literal(lit string) bool {
	if len(d.data)-d.pos >= len(lit) && string(d.data[d.pos:d.pos+len(lit)]) == lit {
		d.pos += len(lit)
		return true
	}
	d.fail("in literal " + lit)
	return false
}

func (d *Decoder) null() bool { return d.literal("null") }

// number consumes a number and returns its literal, nil on a syntax
// error.
func (d *Decoder) number() []byte {
	start, i, data := d.pos, d.pos, d.data
	digits := func() {
		for i < len(data) && isDigit(data[i]) {
			i++
		}
	}
	if i < len(data) && data[i] == '-' {
		i++
	}
	switch {
	case i < len(data) && data[i] == '0':
		i++
	case i < len(data) && isDigit(data[i]):
		digits()
	default:
		d.pos = i
		d.fail("in numeric literal")
		return nil
	}
	if i < len(data) && data[i] == '.' {
		if i++; i >= len(data) || !isDigit(data[i]) {
			d.pos = i
			d.fail("after decimal point in numeric literal")
			return nil
		}
		digits()
	}
	if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		if i++; i < len(data) && (data[i] == '+' || data[i] == '-') {
			i++
		}
		if i >= len(data) || !isDigit(data[i]) {
			d.pos = i
			d.fail("in exponent of numeric literal")
			return nil
		}
		digits()
	}
	d.pos = i
	return data[start:i]
}

// str consumes the string at the cursor and returns its value: a slice
// of the input when it holds only unescaped ASCII, else the unescaped
// bytes in the decoder's scratch, valid until the next string.
func (d *Decoder) str() ([]byte, bool) {
	start := d.pos + 1
	for i := start; i < len(d.data); i++ {
		switch c := d.data[i]; {
		case c == '"':
			d.pos = i + 1
			return d.data[start:i], true
		case c == '\\' || c < ' ' || c >= utf8.RuneSelf:
			return d.unescape(start, i)
		}
	}
	d.pos = len(d.data)
	d.fail("")
	return nil, false
}

// unescape decodes the rest of a string whose bytes from start to i
// are plain ASCII, as encoding/json does: escapes resolved, a surrogate
// pair joined, invalid UTF-8 and lone surrogates replaced by U+FFFD.
func (d *Decoder) unescape(start, i int) ([]byte, bool) {
	data := d.data
	out := append(d.esc[:0], data[start:i]...)
	defer func() { d.esc = out[:0] }()
	for i < len(data) {
		c := data[i]
		switch {
		case c == '"':
			d.pos = i + 1
			return out, true
		case c < ' ':
			d.pos = i
			d.fail("in string literal")
			return nil, false
		case c < utf8.RuneSelf && c != '\\':
			out = append(out, c)
			i++
		case c >= utf8.RuneSelf:
			r, n := utf8.DecodeRune(data[i:])
			out = utf8.AppendRune(out, r)
			i += n
		default: // an escape
			if i+1 >= len(data) {
				d.pos = len(data)
				d.fail("")
				return nil, false
			}
			switch e := data[i+1]; e {
			case '"', '\\', '/':
				out = append(out, e)
			case 'b':
				out = append(out, '\b')
			case 'f':
				out = append(out, '\f')
			case 'n':
				out = append(out, '\n')
			case 'r':
				out = append(out, '\r')
			case 't':
				out = append(out, '\t')
			case 'u':
				r := hex4(data[i+2:])
				if r < 0 {
					d.pos = i
					d.fail("in \\u hexadecimal character escape")
					return nil, false
				}
				i += 6
				if utf16.IsSurrogate(r) {
					if i+1 < len(data) && data[i] == '\\' && data[i+1] == 'u' {
						if r2 := hex4(data[i+2:]); r2 >= 0 {
							if pair := utf16.DecodeRune(r, r2); pair != unicode.ReplacementChar {
								out = utf8.AppendRune(out, pair)
								i += 6
								continue
							}
						}
					}
					r = unicode.ReplacementChar
				}
				out = utf8.AppendRune(out, r)
				continue
			default:
				d.pos = i + 1
				d.fail("in string escape code")
				return nil, false
			}
			i += 2
		}
	}
	d.pos = len(data)
	d.fail("")
	return nil, false
}

// hex4 decodes the four hex digits b starts with, -1 if it does not.
func hex4(b []byte) rune {
	if len(b) < 4 {
		return -1
	}
	v, err := strconv.ParseUint(string(b[:4]), 16, 16)
	if err != nil {
		return -1
	}
	return rune(v)
}
