package transport

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"pando/internal/race"
)

// collatzShaped has the shape of apps.CollatzResult, the result type of
// the benchmark's collatz-small workload.
type collatzShaped struct {
	N     string `json:"n"`
	Steps int    `json:"steps"`
	Ops   int    `json:"ops"`
}

type label string

type allKinds struct {
	S   string
	B   bool `json:"b"`
	I   int
	I8  int8
	I16 int16
	I32 int32
	I64 int64
	U   uint
	U8  uint8
	U16 uint16
	U32 uint32
	U64 uint64
	F32 float32
	F64 float64
	L   label `json:"label"`
	low int
}

type omitEmpty struct {
	N     string `json:"n,omitempty"`
	Steps int    `json:"steps,omitempty"`
}

type marshaled struct{ N string }

func (m marshaled) MarshalJSON() ([]byte, error) { return json.Marshal("m:" + m.N) }

// unmarshaled, texted and untexted are plain kinds whose type or pointer
// decodes or encodes itself, so encoding/json calls those methods.
type unmarshaled string

func (u *unmarshaled) UnmarshalJSON(b []byte) error { *u = unmarshaled("u:" + string(b)); return nil }

type texted int

func (x texted) MarshalText() ([]byte, error) { return []byte("t" + strconv.Itoa(int(x))), nil }

type untexted int

func (x *untexted) UnmarshalText(b []byte) error { *x = untexted(len(b)); return nil }

// dupNames has two fields named B: encoding/json writes the tagged one.
type dupNames struct {
	A int `json:"B"`
	B int
}

// sameJSONError reports whether two errors read the same; both nil counts.
func sameJSONError(a, b error) bool { return fmt.Sprint(a) == fmt.Sprint(b) }

// encodeLikeJSON checks that JSONCodec[T] writes json.Marshal's bytes
// and error for v.
func encodeLikeJSON[T any](t *testing.T, v T) {
	t.Helper()
	got, err := JSONCodec[T]{}.Encode(v)
	want, wantErr := json.Marshal(v)
	if !bytes.Equal(got, want) || !sameJSONError(err, wantErr) {
		t.Fatalf("Encode(%#v) = %q, %v; json.Marshal = %q, %v", v, got, err, want, wantErr)
	}
}

// decodeLikeJSON checks that JSONCodec[T] reads json.Unmarshal's value
// and error from data.
func decodeLikeJSON[T any](t *testing.T, data []byte) {
	t.Helper()
	got, err := JSONCodec[T]{}.Decode(data)
	var want T
	wantErr := json.Unmarshal(data, &want)
	if !reflect.DeepEqual(got, want) || !sameJSONError(err, wantErr) {
		t.Fatalf("Decode(%q) = %#v, %v; json.Unmarshal = %#v, %v", data, got, err, want, wantErr)
	}
}

// roundTripsOnPlan checks that a value the plan encodes, the plan decodes
// back to itself: the fast path reads what it writes.
func roundTripsOnPlan[T comparable](t *testing.T, v T) {
	t.Helper()
	p := jsonPlanFor[T]()
	if p == nil {
		t.Fatalf("%T has no plan", v)
	}
	b, ok := p.encode(nil, reflect.ValueOf(&v).Elem())
	if !ok {
		return
	}
	var got T
	if !p.decode(reflect.ValueOf(&got).Elem(), b) || got != v {
		t.Fatalf("the plan wrote %q for %#v and read it back as %#v", b, v, got)
	}
}

func jsonCodecLikeJSON[T comparable](t *testing.T, v T, data []byte) {
	t.Helper()
	encodeLikeJSON(t, v)
	decodeLikeJSON[T](t, data)
	if jsonPlanFor[T]() != nil {
		roundTripsOnPlan(t, v)
	}
}

// FuzzJSONCodec compares JSONCodec with encoding/json: the same bytes
// for every value, the same value and error for every input.
func FuzzJSONCodec(f *testing.F) {
	f.Add([]byte(`{"n":"1000000","steps":152,"ops":607}`), "1000000", int64(152), 0.5, true)
	f.Add([]byte(`"plain"`), `esc"ape<>&`, int64(-128), 1e-7, false)
	f.Add([]byte(`{"n":"1","steps":1, "ops":1}`), "ünï", int64(300), 1e21, true)
	f.Add([]byte(`{"ops":1,"n":"1","steps":1}`), "", int64(math.MaxInt64), -0.0, false)
	f.Add([]byte(`{"N":"1","Steps":1,"Ops":1}`), "\x00\x7f", int64(math.MinInt64), 123456789.125, true)
	f.Add([]byte(`-0`), "a\\b", int64(0), math.Inf(1), false)
	f.Add([]byte(`1e-07`), "\xff", int64(65535), math.NaN(), true)
	f.Add([]byte(` 01`), "x", int64(-1), 3.4028235e38, false)
	f.Add([]byte(`null`), "x", int64(1), 1e-300, false)
	f.Add([]byte(`{"a":1}`), "m", int64(2), 5e-324, true)
	f.Add([]byte(`"é"`), "é", int64(3), 0.000001, false)
	f.Fuzz(func(t *testing.T, data []byte, s string, i int64, x float64, b bool) {
		jsonCodecLikeJSON(t, s, data)
		jsonCodecLikeJSON(t, int8(i), data)
		jsonCodecLikeJSON(t, uint16(i), data)
		jsonCodecLikeJSON(t, b, data)
		jsonCodecLikeJSON(t, float32(x), data)
		if !math.IsNaN(x) {
			jsonCodecLikeJSON(t, x, data)
		} else {
			encodeLikeJSON(t, x)
			decodeLikeJSON[float64](t, data)
		}
		jsonCodecLikeJSON(t, label(s), data)
		jsonCodecLikeJSON(t, collatzShaped{N: s, Steps: int(i), Ops: int(i >> 3)}, data)
		jsonCodecLikeJSON(t, omitEmpty{N: s, Steps: int(i)}, data)
		jsonCodecLikeJSON(t, marshaled{N: s}, data)
		jsonCodecLikeJSON(t, dupNames{A: int(i), B: 1}, data)
		v := allKinds{S: s, B: b, I: int(i), I8: int8(i), I16: int16(i), I32: int32(i), I64: i,
			U: uint(i), U8: uint8(i), U16: uint16(i), U32: uint32(i), U64: uint64(i),
			F32: float32(x), F64: x, L: label(s)}
		if !math.IsNaN(x) {
			jsonCodecLikeJSON(t, v, data)
		}
	})
}

// TestJSONCodecFallbacks: every type, value and input the plan does not
// cover reaches encoding/json, one row per trigger.
func TestJSONCodecFallbacks(t *testing.T) {
	type (
		tagString struct {
			N int `json:"n,string"`
		}
		embedded struct {
			collatzShaped
			X int
		}
		foldDup struct {
			A int `json:"x"`
			B int `json:"X"`
		}
		dashed struct {
			A int `json:"-"`
		}
		nested     struct{ C collatzShaped }
		number     struct{ N json.Number }
		withTexted struct{ T texted }
	)
	// The plan covers none of these types.
	noPlan := []struct {
		name string
		plan func() *jsonPlan
		test func(*testing.T)
	}{
		{"omitempty", jsonPlanFor[omitEmpty], func(t *testing.T) { decodeLikeJSON[omitEmpty](t, []byte(`{"n":"1"}`)) }},
		{",string", jsonPlanFor[tagString], func(t *testing.T) { encodeLikeJSON(t, tagString{7}) }},
		{"embedded", jsonPlanFor[embedded], func(t *testing.T) { encodeLikeJSON(t, embedded{collatzShaped{"1", 2, 3}, 4}) }},
		{"duplicate names", jsonPlanFor[dupNames], func(t *testing.T) { encodeLikeJSON(t, dupNames{1, 2}) }},
		{"case-folded duplicates", jsonPlanFor[foldDup], func(t *testing.T) { decodeLikeJSON[foldDup](t, []byte(`{"x":1,"X":2}`)) }},
		{`json:"-"`, jsonPlanFor[dashed], func(t *testing.T) { encodeLikeJSON(t, dashed{1}) }},
		{"nested struct", jsonPlanFor[nested], func(t *testing.T) { encodeLikeJSON(t, nested{}) }},
		{"json.Number field", jsonPlanFor[number], func(t *testing.T) { decodeLikeJSON[number](t, []byte(`{"N":12}`)) }},
		{"json.Marshaler", jsonPlanFor[marshaled], func(t *testing.T) { encodeLikeJSON(t, marshaled{"1"}) }},
		{"json.Unmarshaler on *T", jsonPlanFor[unmarshaled], func(t *testing.T) { decodeLikeJSON[unmarshaled](t, []byte(`"x"`)) }},
		{"encoding.TextMarshaler", jsonPlanFor[texted], func(t *testing.T) { encodeLikeJSON(t, texted(7)) }},
		{"encoding.TextMarshaler field", jsonPlanFor[withTexted], func(t *testing.T) { encodeLikeJSON(t, withTexted{7}) }},
		{"encoding.TextUnmarshaler on *T", jsonPlanFor[untexted], func(t *testing.T) { decodeLikeJSON[untexted](t, []byte(`"abc"`)) }},
		{"json.RawMessage", jsonPlanFor[json.RawMessage], func(t *testing.T) { decodeLikeJSON[json.RawMessage](t, []byte(`"x"`)) }},
		{"pointer", jsonPlanFor[*int], func(t *testing.T) { decodeLikeJSON[*int](t, []byte(`1`)) }},
		{"interface", jsonPlanFor[any], func(t *testing.T) { decodeLikeJSON[any](t, []byte(`{"n":"1"}`)) }},
	}
	for _, row := range noPlan {
		t.Run("type/"+row.name, func(t *testing.T) {
			if row.plan() != nil {
				t.Fatal("the type has a plan; want encoding/json to do it all")
			}
			row.test(t)
		})
	}

	// The plan covers the type but declines the value.
	values := []struct {
		name string
		test func(*testing.T) bool // reports whether the plan took it
	}{
		{"NaN", valueOnPlan(math.NaN())},
		{"+Inf", valueOnPlan(math.Inf(1))},
		{"-Inf float32", valueOnPlan(float32(math.Inf(-1)))},
		{"quote", valueOnPlan(collatzShaped{N: `"`})},
		{"backslash", valueOnPlan(`a\b`)},
		{"HTML", valueOnPlan("<a href=x&y>")},
		{"control byte", valueOnPlan("a\nb")},
		{"DEL", valueOnPlan("\x7f")},
		{"non-ASCII", valueOnPlan(label("héllo"))},
		{"invalid UTF-8", valueOnPlan("\xff")},
	}
	for _, row := range values {
		t.Run("value/"+row.name, func(t *testing.T) {
			if row.test(t) {
				t.Fatal("the plan encoded the value")
			}
		})
	}

	// The plan covers the type but declines the input.
	inputs := []struct {
		name string
		data string
		test func(*testing.T, []byte) bool // reports whether the plan took it
	}{
		{"leading space", ` {"n":"1","steps":2,"ops":3}`, onPlan[collatzShaped]},
		{"inner space", `{"n":"1", "steps":2,"ops":3}`, onPlan[collatzShaped]},
		{"trailing newline", "{\"n\":\"1\",\"steps\":2,\"ops\":3}\n", onPlan[collatzShaped]},
		{"escape", `{"n":"\u0031","steps":2,"ops":3}`, onPlan[collatzShaped]},
		{"null", `null`, onPlan[collatzShaped]},
		{"null field", `{"n":null,"steps":2,"ops":3}`, onPlan[collatzShaped]},
		{"unknown key", `{"n":"1","steps":2,"ops":3,"x":4}`, onPlan[collatzShaped]},
		{"missing key", `{"n":"1","ops":3}`, onPlan[collatzShaped]},
		{"reordered keys", `{"steps":2,"n":"1","ops":3}`, onPlan[collatzShaped]},
		{"case-folded key", `{"N":"1","steps":2,"ops":3}`, onPlan[collatzShaped]},
		{"duplicate key", `{"n":"1","steps":2,"ops":3,"ops":4}`, onPlan[collatzShaped]},
		{"string for a number", `{"n":"1","steps":"2","ops":3}`, onPlan[collatzShaped]},
		{"number for a string", `{"n":1,"steps":2,"ops":3}`, onPlan[collatzShaped]},
		{"unterminated string", `{"n":"1,"steps":2,"ops":3}`, onPlan[collatzShaped]},
		{"empty", ``, onPlan[collatzShaped]},
		{"extra brace", `{"n":"1","steps":2,"ops":3}}`, onPlan[collatzShaped]},
		{"leading zero", `01`, onPlan[int]},
		{"plus sign", `+1`, onPlan[int]},
		{"negative zero int", `-0`, onPlan[int]},
		{"fraction for an int", `1.0`, onPlan[int]},
		{"exponent for an int", `1e2`, onPlan[int]},
		{"int8 out of range", `128`, onPlan[int8]},
		{"uint out of range", `-1`, onPlan[uint16]},
		{"int64 overflow", `9223372036854775808`, onPlan[int64]},
		{"float trailing zero", `1.50`, onPlan[float64]},
		{"float long exponent", `1e-07`, onPlan[float64]},
		{"float exponent form below 1e21", `1e20`, onPlan[float64]},
		{"float32 out of range", `1e39`, onPlan[float32]},
		{"float64 out of range", `1e400`, onPlan[float64]},
		{"NaN literal", `NaN`, onPlan[float64]},
		{"Inf literal", `+Inf`, onPlan[float64]},
		{"hex float", `0x1p-2`, onPlan[float64]},
		{"capital bool", `True`, onPlan[bool]},
		{"raw HTML in a string", `"<"`, onPlan[string]},
		{"invalid UTF-8 string", "\"\xff\"", onPlan[string]},
		{"raw tab in a string", "\"a\tb\"", onPlan[string]},
		{"trailing garbage", `"a"x`, onPlan[string]},
	}
	for _, row := range inputs {
		t.Run("input/"+row.name, func(t *testing.T) {
			if row.test(t, []byte(row.data)) {
				t.Fatalf("the plan decoded %q", row.data)
			}
		})
	}
}

// valueOnPlan checks that T's Encode of v matches encoding/json and
// reports whether T's plan wrote v itself.
func valueOnPlan[T any](v T) func(*testing.T) bool {
	return func(t *testing.T) bool {
		t.Helper()
		encodeLikeJSON(t, v)
		_, ok := jsonPlanFor[T]().encode(nil, reflect.ValueOf(v))
		return ok
	}
}

// onPlan checks that T's Decode of data matches encoding/json and reports
// whether T's plan accepted data itself.
func onPlan[T any](t *testing.T, data []byte) bool {
	t.Helper()
	p := jsonPlanFor[T]()
	if p == nil {
		t.Fatalf("%v has no plan", reflect.TypeFor[T]())
	}
	decodeLikeJSON[T](t, data)
	var v T
	return p.decode(reflect.ValueOf(&v).Elem(), data)
}

// TestJSONCodecAllocs gates the plan's cost: Encode makes the one slice
// it returns, and Decode one copy per string field and nothing for
// numbers or bools.
func TestJSONCodecAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector changes escape analysis")
	}
	rows := []struct {
		name         string
		allocs       func(*testing.T) (encode, decode float64)
		decodeAllocs float64
	}{
		{"collatzShaped", codecAllocs(collatzShaped{"1234567", 152, 607}), 1},
		{"4KiB string", codecAllocs(strings.Repeat("A+/=", 1024)), 1},
		{"label", codecAllocs(label("xy")), 1},
		{"int", codecAllocs(math.MinInt64), 0},
		{"uint64", codecAllocs(uint64(math.MaxUint64)), 0},
		{"float64", codecAllocs(-1.2345678901234567e-7), 0},
		{"float64 f-form", codecAllocs(-0.0000012345678901234567), 0},
		{"float32", codecAllocs(float32(1.0e21)), 0},
		{"bool", codecAllocs(true), 0},
		{"allKinds", codecAllocs(allKinds{S: "str", I64: math.MinInt64, U64: math.MaxUint64, F32: -1e-7, F64: -1.2345678901234567e-7, L: "lbl"}), 2},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			encode, decode := row.allocs(t)
			if encode != 1 {
				t.Errorf("Encode makes %.1f allocations, want 1", encode)
			}
			if decode != row.decodeAllocs {
				t.Errorf("Decode makes %.1f allocations, want %.0f", decode, row.decodeAllocs)
			}
		})
	}
}

// codecAllocs measures JSONCodec[T]'s allocations for v and its
// encoding, once it has checked them against encoding/json.
func codecAllocs[T comparable](v T) func(*testing.T) (float64, float64) {
	return func(t *testing.T) (float64, float64) {
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		jsonCodecLikeJSON(t, v, data)
		var c JSONCodec[T]
		encode := testing.AllocsPerRun(200, func() { _, _ = c.Encode(v) })
		decode := testing.AllocsPerRun(200, func() { _, _ = c.Decode(data) })
		return encode, decode
	}
}
