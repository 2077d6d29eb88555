package wirejson

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"
)

// probe is a record with one field of each kind the codec decodes.
type probe struct {
	Name  string   `json:"name"`
	X     float64  `json:"x"`
	P     *float64 `json:"p"`
	N     int      `json:"n"`
	B     bool     `json:"b"`
	IDs   []int    `json:"ids"`
	Items []probe  `json:"items"`
}

var probeKeys = KeysOf[probe]()

func (p *probe) decode(d *Decoder) {
	for more := d.Object(probeKeys); more; more = d.More() {
		switch d.Key() {
		case "name":
			d.String(&p.Name, []string{"known"})
		case "x":
			d.Float(&p.X)
		case "p":
			d.FloatPtr(&p.P)
		case "n":
			d.Int(&p.N)
		case "b":
			d.Bool(&p.B)
		case "ids":
			d.Ints(&p.IDs)
		case "items":
			Slice(d, &p.Items, (*probe).decode)
		default:
			d.Skip()
		}
	}
}

func unmarshalProbe(data []byte) (p probe, err error) {
	err = Unmarshal(data, p.decode)
	return p, err
}

// Nesting deeper than encoding/json's 10 000 levels is a syntax error
// for both, wherever it sits.
func TestDepthLimit(t *testing.T) {
	for _, depth := range []int{9998, 9999, 10000} {
		doc := []byte(`{"skipped":` + strings.Repeat("[", depth) + strings.Repeat("]", depth) + `}`)
		_, err := unmarshalProbe(doc)
		jerr := json.Unmarshal(doc, new(probe))
		var syntax *SyntaxError
		if (err == nil) != (jerr == nil) || (err != nil && !errors.As(err, &syntax)) {
			t.Errorf("%d nested arrays inside the record: codec %v, encoding/json %v", depth, err, jerr)
		}
	}
}

// A syntax error anywhere beats a type error before it, as in
// encoding/json, which checks the whole input before decoding any of it.
func TestSyntaxErrorBeatsTypeError(t *testing.T) {
	var syntax *SyntaxError
	var typ *TypeError
	if _, err := unmarshalProbe([]byte(`{"n":"x","b":tru}`)); !errors.As(err, &syntax) {
		t.Errorf("type error then malformed literal: %v, want a syntax error", err)
	}
	if _, err := unmarshalProbe([]byte(`{"n":"x","b":true}`)); !errors.As(err, &typ) || typ.Value != "string" || typ.Type != "int" {
		t.Errorf("string for an int: %v, want a type error", err)
	}
	if _, err := unmarshalProbe([]byte(`{"n":1.5}`)); !errors.As(err, &typ) || typ.Value != "number 1.5" {
		t.Errorf("fraction for an int: %v, want a type error naming the literal", err)
	}
}

// Decoded strings are copies: the body buffer they came from is pooled
// and overwritten by the next request.
func TestStringsDoNotAliasTheInput(t *testing.T) {
	doc := []byte(`{"name":"plain","items":[{"name":"plain"},{"name":"known"},{"name":"escé"}]}`)
	p, err := unmarshalProbe(doc)
	if err != nil {
		t.Fatal(err)
	}
	for i := range doc {
		doc[i] = 'x'
	}
	if p.Name != "plain" || p.Items[0].Name != "plain" || p.Items[1].Name != "known" || p.Items[2].Name != "escé" {
		t.Fatalf("decoded strings changed with their input: %+v", p)
	}
}

// One array's records share one slab for their optional numbers and one
// for their integer lists, and the slices they get do not overlap.
func TestSlabsAreCarvedWithoutOverlap(t *testing.T) {
	p, err := unmarshalProbe([]byte(`{"items":[{"p":1,"ids":[1,2]},{"p":2,"ids":[]},{"ids":[3]},{"p":3,"ids":[4,5,6]}]}`))
	if err != nil {
		t.Fatal(err)
	}
	items := p.Items
	items[0].IDs = append(items[0].IDs, 99) // must reallocate, not overwrite the next list
	*items[0].P = 10
	if items[2].IDs[0] != 3 || len(items[1].IDs) != 0 || items[1].IDs == nil || *items[1].P != 2 || items[2].P != nil || *items[3].P != 3 {
		t.Fatalf("carved slices overlap or lost their values: %+v", items)
	}
	doc := []byte(`{"items":[{"p":1,"ids":[1,2]},{"p":2,"ids":[7]},{"p":3,"ids":[4,5,6]}]}`)
	allocs := testing.AllocsPerRun(50, func() { unmarshalProbe(doc) })
	if allocs > 3 { // the record list, the float slab, the int slab
		t.Fatalf("decoding three records allocates %.0f objects, want 3", allocs)
	}
}
