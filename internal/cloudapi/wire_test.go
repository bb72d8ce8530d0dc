package cloudapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// plainJSON is the reference the encoder is held to: v as the plain Go
// tree encoding/json marshals reflectively — nil, string, int64, bool,
// a {"$ref": "Type/ID"} map, []any and map[string]any, empty
// collections non-nil. Value.MarshalJSON itself renders through
// AppendJSON, so marshalling a Value would compare the encoder with
// itself.
func plainJSON(v Value) any {
	switch v.Kind() {
	case KindString:
		return v.AsString()
	case KindInt:
		return v.AsInt()
	case KindBool:
		return v.AsBool()
	case KindRef:
		return map[string]string{"$ref": v.AsRef().String()}
	case KindList:
		out := make([]any, len(v.AsList()))
		for i, e := range v.AsList() {
			out[i] = plainJSON(e)
		}
		return out
	case KindMap:
		out := make(map[string]any, len(v.AsMap()))
		for k, e := range v.AsMap() {
			out[k] = plainJSON(e)
		}
		return out
	default:
		return nil
	}
}

// TestQuickAppendJSONMatchesEncodingJSON: the append-based encoder
// must produce byte-for-byte what encoding/json produces for the plain
// Go tree, across randomly generated value trees with hostile strings
// (see hostileValueGen), refs kept as {"$ref"} wrappers.
func TestQuickAppendJSONMatchesEncodingJSON(t *testing.T) {
	f := func(g hostileValueGen) bool {
		want, err := json.Marshal(plainJSON(g.V))
		return err == nil && bytes.Equal(AppendJSON(nil, &g.V), want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestAppendJSONEscaping pins the string-escaping corners one by one:
// quotes, backslashes, the HTML-unsafe set, control characters, the
// U+2028 pair, and invalid UTF-8 — and that json.Marshal of a Value
// renders the same bytes, refusing a kind the encoder does not know.
func TestAppendJSONEscaping(t *testing.T) {
	cases := []Value{
		Nil,
		Bool(true),
		Bool(false),
		Int(0),
		Int(-9223372036854775808),
		Str(""),
		Str("plain"),
		Str(`quote " backslash \`),
		Str("html <b>&amp;</b>"),
		Str("ctl \n\r\t \x01\x1f"),
		Str("unicode \u2713 sep \u2028 and \u2029 done"),
		Str("bad utf8 \xff\xfe tail"),
		Str("\xed\xa0\x80"), // lone surrogate bytes
		RefVal("Vpc", "vpc-00000001"),
		RefVal("We<ird", "id&1"),
		List(),
		List(Int(1), Str("two"), Nil, List(Bool(true))),
		Map(nil),
		Map(map[string]Value{
			"b":      Int(2),
			"a":      Str("x"),
			"esc<&>": Str("v"),
			"nested": List(Map(map[string]Value{"k": Nil})),
		}),
	}
	for _, v := range cases {
		want, err := json.Marshal(plainJSON(v))
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		if got := AppendJSON(nil, &v); !bytes.Equal(got, want) {
			t.Errorf("AppendJSON(%v)\n got %s\nwant %s", v, got, want)
		}
		if got, err := json.Marshal(v); err != nil || !bytes.Equal(got, want) {
			t.Errorf("json.Marshal(%v) = %s, %v; want %s", v, got, err, want)
		}
	}
	if _, err := json.Marshal(Value{kind: KindMap + 1}); err == nil {
		t.Error("json.Marshal of an unknown kind succeeded")
	}
}

// hostilePieces are what hostileString strings together: every escape
// class appendJSONString handles, multi-byte runes, and invalid UTF-8
// (a stray continuation byte, a lone surrogate, a truncated sequence).
var hostilePieces = []string{
	"a", "Z", "9", "/", "-", `"`, `\`, "<", ">", "&", "\n", "\r", "\t", "\x00", "\x1f", "\x7f",
	"\u2028", "\u2029", "é", "😀", "\xff", "\xed\xa0\x80", "\xe2\x80",
}

func hostileString(r *rand.Rand) string {
	var sb strings.Builder
	for n := r.Intn(6); n > 0; n-- {
		sb.WriteString(hostilePieces[r.Intn(len(hostilePieces))])
	}
	return sb.String()
}

// hostileValueGen draws value trees whose strings, keys and refs come
// from hostileString, with refs at every depth.
type hostileValueGen struct{ V Value }

func (hostileValueGen) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(hostileValueGen{V: randomValueOf(r, 4, hostileString)})
}

// TestQuickAppendNormalizedJSONMatchesEncodingJSON: encoding a value
// normalized on the fly is byte-for-byte encoding/json over the plain
// tree of the NormalizeValue copy, and leaves the value itself
// untouched.
func TestQuickAppendNormalizedJSONMatchesEncodingJSON(t *testing.T) {
	f := func(g hostileValueGen) bool {
		want, err := json.Marshal(plainJSON(NormalizeValue(g.V)))
		if err != nil {
			return false
		}
		before := g.V.String()
		got := AppendNormalizedJSON([]byte("prefix"), &g.V)
		if !bytes.Equal(got[len("prefix"):], want) || g.V.String() != before {
			t.Logf("AppendNormalizedJSON(%v)\n got %s\nwant %s", g.V, got[len("prefix"):], want)
			return false
		}
		if g.V.Kind() == KindMap {
			return bytes.Equal(AppendNormalizedResult(nil, Result(g.V.AsMap())), want)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	if got := string(AppendNormalizedResult(nil, nil)); got != "{}" {
		t.Errorf("nil result encodes as %s, want {}", got)
	}
}

// BenchmarkAppendJSON/BenchmarkMarshalJSON compare the encoder with
// encoding/json's reflective one (over the plain tree) on a
// describe-sized payload.
func benchPayload() Value {
	vpcs := make([]Value, 8)
	for i := range vpcs {
		vpcs[i] = Map(map[string]Value{
			"vpcId":     Str("vpc-00000001"),
			"cidrBlock": Str("10.0.0.0/16"),
			"state":     Str("available"),
			"isDefault": Bool(false),
		})
	}
	return Map(map[string]Value{"vpcs": List(vpcs...)})
}

func BenchmarkAppendJSON(b *testing.B) {
	v := benchPayload()
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = AppendJSON(buf[:0], &v)
	}
}

func BenchmarkMarshalJSON(b *testing.B) {
	v := plainJSON(benchPayload())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := json.Marshal(v); err != nil {
			b.Fatal(err)
		}
	}
}

// sameDecode reports whether the scalar fast path and the generic
// decoder agree on data: same value on success, same error text on
// failure. It is the whole contract of DecodeScalar.
func sameDecode(data []byte) (string, bool) {
	var fast, generic Value
	ferr, gerr := fast.UnmarshalJSON(data), generic.unmarshalGeneric(data)
	switch {
	case (ferr == nil) != (gerr == nil):
		return fmt.Sprintf("%q: fast err %v, generic err %v", data, ferr, gerr), false
	case ferr != nil && ferr.Error() != gerr.Error():
		return fmt.Sprintf("%q: fast err %q, generic err %q", data, ferr, gerr), false
	case ferr == nil && (fast.Kind() != generic.Kind() || !fast.Equal(generic)):
		return fmt.Sprintf("%q: fast %v (%v), generic %v (%v)", data, fast, fast.Kind(), generic, generic.Kind()), false
	}
	return "", true
}

// TestQuickUnmarshalFastPathMatchesGeneric: over random value trees
// (through both encoders) and over random mutations of their bytes, a
// value decodes the same with and without the scalar fast path.
func TestQuickUnmarshalFastPathMatchesGeneric(t *testing.T) {
	f := func(g valueGen, cut, flip uint16) bool {
		data, err := json.Marshal(g.V)
		if err != nil {
			return false
		}
		mutated := append([]byte(nil), data[:int(cut)%(len(data)+1)]...)
		if len(mutated) > 0 {
			mutated[int(flip)%len(mutated)] ^= byte(flip >> 8)
		}
		for _, in := range [][]byte{data, mutated} {
			if msg, ok := sameDecode(in); !ok {
				t.Log(msg)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// unmarshalPinned are the spellings the random generator never
// produces: escapes, surrogate pairs, invalid UTF-8, the integer
// boundary, the number forms the wire rejects, and near-miss literals.
var unmarshalPinned = []string{
	`null`, `true`, `false`, `nul`, `nulll`, `True`, ` null`, `null `, ``, ` `,
	`""`, `"a"`, `"héllo é"`, `"tab\there"`, `"quote\"d"`, `"back\\slash"`, `"é"`, `"😀"`,
	`"\ud83d"`, `"\ude00x"`, `"\u12"`, "\"raw\ttab\"", "\"nul\x00\"", "\"bad\xff\xfeutf8\"", "\"\xe2\x80\xa8\"", `"unterminated`, `"a"b"`, `"`,
	`0`, `-0`, `7`, `-7`, `00`, `01`, `-01`, `-`, `--1`, `+1`, `1e3`, `1E3`, `1.0`, `-1.5`, `.5`, `1.`, `0x10`, `1_000`,
	`999999999999999999`, `-999999999999999999`, `1000000000000000000`, `9223372036854775807`, `-9223372036854775808`,
	`9223372036854775808`, `-9223372036854775809`, `123456789012345678901234567890`,
	`[]`, `[1,"a",null]`, `{}`, `{"a":1}`, `{"$ref":"Vpc/vpc-1"}`, `{"$ref":"noslash"}`, `{"$ref":7}`, `{"$ref":"a/b","x":1}`,
	`1 2`, `"a" "b"`, `[1`, `{"a"`, `nullnull`, `truefalse`,
}

func TestUnmarshalFastPathPinnedCases(t *testing.T) {
	for _, in := range unmarshalPinned {
		if msg, ok := sameDecode([]byte(in)); !ok {
			t.Error(msg)
		}
	}
	// The error text callers see for a float on the wire is the generic
	// path's, whatever the fast path looked at first.
	var v Value
	if err := v.UnmarshalJSON([]byte(`1.5`)); err == nil || err.Error() != `cloudapi: non-integer number "1.5" on the wire` {
		t.Errorf("float on the wire: err = %v", err)
	}
	// And the fast path is actually taken for what requests carry.
	for _, in := range []string{`null`, `true`, `false`, `443`, `-1`, `"10.0.0.0/16"`, `"héllo"`} {
		if _, ok := DecodeScalar([]byte(in)); !ok {
			t.Errorf("DecodeScalar(%s) fell through to the generic path", in)
		}
	}
}

// FuzzValueUnmarshal holds the fast path to the generic decoder on
// arbitrary bytes, alone and as a parameter inside a request body the
// way encoding/json hands values to UnmarshalJSON.
func FuzzValueUnmarshal(f *testing.F) {
	for _, in := range unmarshalPinned {
		f.Add([]byte(in))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if msg, ok := sameDecode(data); !ok {
			t.Fatal(msg)
		}
		body := append(append([]byte(`{"p":`), data...), '}')
		var fast map[string]Value
		if json.Unmarshal(body, &fast) != nil {
			return
		}
		var raw map[string]json.RawMessage
		if err := json.Unmarshal(body, &raw); err != nil {
			t.Fatalf("%q decodes as request parameters but not as raw JSON: %v", body, err)
		}
		for k, msg := range raw {
			var generic Value
			if err := generic.unmarshalGeneric(msg); err != nil || generic.Kind() != fast[k].Kind() || !generic.Equal(fast[k]) {
				t.Fatalf("%q: parameter %q decoded to %v, the generic path says %v (err %v)", body, k, fast[k], generic, err)
			}
		}
	})
}

func BenchmarkValueUnmarshal(b *testing.B) {
	body := []byte(`{"groupId":"sg-00000001","ipProtocol":"tcp","fromPort":443,"toPort":443,"cidrIpv4":"0.0.0.0/0","dryRun":false}`)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var params map[string]Value
		if err := json.Unmarshal(body, &params); err != nil {
			b.Fatal(err)
		}
	}
}
