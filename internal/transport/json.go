package transport

import (
	"bytes"
	"cmp"
	"encoding"
	"encoding/json"
	"math"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
)

// JSONCodec writes and reads json.Marshal's bytes and json.Unmarshal's
// values and errors. For strings, bools, numbers and structs of them with
// plain `json:"name"` tags or none, a plan built once per type handles the
// canonical form itself: no whitespace, fields in order, strings of
// printable ASCII but `"`, `\`, `<`, `>` and `&`. The rest goes to encoding/json.
type JSONCodec[T any] struct{}

// Encode marshals v.
func (c JSONCodec[T]) Encode(v T) ([]byte, error) { return c.appendEncode(nil, v) }

// appendEncode appends v's encoding to dst (appendEncoder): the duplexes
// hand it a pooled buffer their frame owns.
func (JSONCodec[T]) appendEncode(dst []byte, v T) ([]byte, error) {
	if p := jsonPlanFor[T](); p != nil {
		if b, ok := p.encode(dst, reflect.ValueOf(&v).Elem()); ok {
			return b, nil
		}
	}
	b, err := json.Marshal(v)
	if dst == nil || err != nil {
		return b, err
	}
	return append(dst, b...), nil
}

// Decode unmarshals data.
func (JSONCodec[T]) Decode(data []byte) (v T, err error) {
	if p := jsonPlanFor[T](); p != nil && p.decode(reflect.ValueOf(&v).Elem(), data) {
		return v, nil
	}
	var fresh T // the plan may have set fields of v before it gave up
	err = json.Unmarshal(data, &fresh)
	return fresh, err
}

// DecodeAliases reports false: the plan and encoding/json copy what they decode.
func (JSONCodec[T]) DecodeAliases() bool { return false }

// jsonPlan is the canonical form of one type: each field's value follows
// its key, and end follows the last. A scalar is one field with index -1.
type jsonPlan struct {
	fields []jsonField
	end    []byte
}

type jsonField struct {
	index int
	key   []byte // `{"name":` for the first field, `,"name":` for the others
	kind  reflect.Kind
	bits  int // of a number
}

var jsonPlans sync.Map // reflect.Type → *jsonPlan, nil for a type left to encoding/json

func jsonPlanFor[T any]() *jsonPlan {
	t := reflect.TypeFor[T]()
	p, ok := jsonPlans.Load(t)
	if !ok {
		p, _ = jsonPlans.LoadOrStore(t, newJSONPlan(t))
	}
	return p.(*jsonPlan)
}

// newJSONPlan returns t's plan, or nil to leave t to encoding/json. A
// number's kind is reflect.Int, Uint or Float64 whatever its size.
func newJSONPlan(t reflect.Type) *jsonPlan {
	switch reflect.New(t).Interface().(type) {
	case json.Marshaler, json.Unmarshaler, encoding.TextMarshaler, encoding.TextUnmarshaler, *json.Number:
		return nil
	}
	f := jsonField{index: -1, kind: t.Kind()}
	switch f.kind {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		f.kind, f.bits = reflect.Int, t.Bits()
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		f.kind, f.bits = reflect.Uint, t.Bits()
	case reflect.Float32, reflect.Float64:
		f.kind, f.bits = reflect.Float64, t.Bits()
	case reflect.String, reflect.Bool, reflect.Struct:
	default:
		return nil
	}
	if f.kind != reflect.Struct {
		return &jsonPlan{fields: []jsonField{f}}
	}
	p := &jsonPlan{end: []byte("}")}
	names := map[string]bool{} // case-folded, as encoding/json matches keys
	for i := 0; i < t.NumField(); i++ {
		sf := t.Field(i)
		if !sf.IsExported() && !sf.Anonymous {
			continue // encoding/json skips it too
		}
		name := cmp.Or(sf.Tag.Get("json"), sf.Name) // not plain with an option or as "-"
		fp, folded := newJSONPlan(sf.Type), strings.ToLower(name)
		if fp == nil || fp.end != nil || sf.Anonymous || names[folded] ||
			strings.Trim(name, "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_") != "" {
			return nil
		}
		names[folded] = true
		f := fp.fields[0]
		f.index, f.key = i, []byte(`,"`+name+`":`)
		p.fields = append(p.fields, f)
	}
	if len(p.fields) == 0 {
		return nil
	}
	p.fields[0].key[0] = '{'
	return p
}

// plainJSONString reports whether json.Marshal writes s as is in quotes.
func plainJSONString[S string | []byte](s S) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return false
		}
	}
	return true
}

func (f *jsonField) of(v reflect.Value) reflect.Value {
	if f.index < 0 {
		return v
	}
	return v.Field(f.index)
}

// encode appends v to b as json.Marshal would write it, growing b at
// most once, or reports false.
func (p *jsonPlan) encode(b []byte, v reflect.Value) ([]byte, bool) {
	n := len(p.end)
	for i := range p.fields {
		f := &p.fields[i]
		n += len(f.key) + 25 // the longest number, "-0.0000012345678901234567"
		if f.kind == reflect.String {
			n += len(f.of(v).String())
		}
	}
	b = slices.Grow(b, n)
	for i := range p.fields {
		f := &p.fields[i]
		var ok bool
		if b, ok = f.append(append(b, f.key...), f.of(v)); !ok {
			return nil, false
		}
	}
	return append(b, p.end...), true
}

// append writes v as encoding/json does, or reports false for a string
// that is not plain, NaN and ±Inf. A float takes its shortest form, in
// exponent notation below 1e-6 and from 1e21, "e-07" trimmed to "e-7".
func (f *jsonField) append(b []byte, v reflect.Value) ([]byte, bool) {
	switch f.kind {
	case reflect.String:
		return append(append(append(b, '"'), v.String()...), '"'), plainJSONString(v.String())
	case reflect.Bool:
		return strconv.AppendBool(b, v.Bool()), true
	case reflect.Int:
		return strconv.AppendInt(b, v.Int(), 10), true
	case reflect.Uint:
		return strconv.AppendUint(b, v.Uint(), 10), true
	}
	x, format := v.Float(), byte('f')
	if a := math.Abs(x); a != 0 && (f.bits == 64 && (a < 1e-6 || a >= 1e21) || f.bits == 32 && (float32(a) < 1e-6 || float32(a) >= 1e21)) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, x, format, -1, f.bits)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b, !math.IsNaN(x) && !math.IsInf(x, 0)
}

// decode sets v from data if data is what encode writes for some value.
// A value ends where the next key starts: no plain string holds a quote,
// and no number or bool a comma.
func (p *jsonPlan) decode(v reflect.Value, data []byte) bool {
	data, ok := bytes.CutSuffix(data, p.end)
	for i := range p.fields {
		f := &p.fields[i]
		rest, ok2 := bytes.CutPrefix(data, f.key)
		end := len(rest)
		if i+1 < len(p.fields) {
			end = bytes.Index(rest, p.fields[i+1].key)
		}
		if !ok || !ok2 || end < 0 || !f.decode(f.of(v), rest[:end]) {
			return false
		}
		data = rest[end:]
	}
	return true
}

// decode sets v from tok if tok is what append writes for some value: a
// number or bool is read, written again and compared.
func (f *jsonField) decode(v reflect.Value, tok []byte) bool {
	var err error
	switch f.kind {
	case reflect.String:
		n := len(tok)
		if n < 2 || tok[0] != '"' || tok[n-1] != '"' || !plainJSONString(tok[1:n-1]) {
			return false
		}
		v.SetString(string(tok[1 : n-1]))
		return true
	case reflect.Bool:
		v.SetBool(string(tok) == "true")
	case reflect.Int:
		var x int64
		x, err = strconv.ParseInt(string(tok), 10, f.bits)
		v.SetInt(x)
	case reflect.Uint:
		var x uint64
		x, err = strconv.ParseUint(string(tok), 10, f.bits)
		v.SetUint(x)
	default:
		var x float64
		x, err = strconv.ParseFloat(string(tok), f.bits)
		v.SetFloat(x)
	}
	b, ok := f.append(make([]byte, 0, 32), v)
	return err == nil && ok && bytes.Equal(b, tok)
}
