package cloudapi

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestKindAccessors(t *testing.T) {
	cases := []struct {
		v    Value
		kind Kind
	}{
		{Nil, KindNil},
		{Str("x"), KindString},
		{Int(7), KindInt},
		{Bool(true), KindBool},
		{RefVal("Vpc", "vpc-1"), KindRef},
		{List(Int(1)), KindList},
		{Map(map[string]Value{"a": Int(1)}), KindMap},
	}
	for _, tc := range cases {
		if tc.v.Kind() != tc.kind {
			t.Errorf("%v kind = %v, want %v", tc.v, tc.v.Kind(), tc.kind)
		}
	}
	if Str("hello").AsString() != "hello" {
		t.Error("AsString")
	}
	if Int(-3).AsInt() != -3 {
		t.Error("AsInt")
	}
	if !Bool(true).AsBool() {
		t.Error("AsBool")
	}
	if RefVal("A", "a-1").AsRef() != (Ref{Type: "A", ID: "a-1"}) {
		t.Error("AsRef")
	}
}

func TestTruthy(t *testing.T) {
	truthy := []Value{Str("x"), Int(1), Bool(true), RefVal("A", "1"), List(Int(1)), Map(map[string]Value{"k": Nil})}
	falsy := []Value{Nil, Str(""), Int(0), Bool(false), List(), Map(nil)}
	for _, v := range truthy {
		if !v.Truthy() {
			t.Errorf("%v should be truthy", v)
		}
	}
	for _, v := range falsy {
		if v.Truthy() {
			t.Errorf("%v should be falsy", v)
		}
	}
}

func TestEqualCrossKind(t *testing.T) {
	if Str("1").Equal(Int(1)) {
		t.Error("string and int compared equal")
	}
	if Nil.Equal(Bool(false)) {
		t.Error("nil and false compared equal")
	}
	if !Nil.Equal(Nil) {
		t.Error("nil != nil")
	}
}

func TestEqualDeep(t *testing.T) {
	a := List(Int(1), Str("x"), List(Bool(true)))
	b := List(Int(1), Str("x"), List(Bool(true)))
	c := List(Int(1), Str("x"), List(Bool(false)))
	if !a.Equal(b) {
		t.Error("deep equal lists compared unequal")
	}
	if a.Equal(c) {
		t.Error("different lists compared equal")
	}
	m1 := Map(map[string]Value{"a": Int(1), "b": Str("x")})
	m2 := Map(map[string]Value{"b": Str("x"), "a": Int(1)})
	m3 := Map(map[string]Value{"a": Int(2), "b": Str("x")})
	if !m1.Equal(m2) {
		t.Error("map equality order-sensitive")
	}
	if m1.Equal(m3) {
		t.Error("different maps compared equal")
	}
}

func TestStringRendering(t *testing.T) {
	v := Map(map[string]Value{"b": Int(2), "a": Str("x")})
	if got, want := v.String(), `{a: "x", b: 2}`; got != want {
		t.Errorf("String() = %q, want %q (keys must be sorted)", got, want)
	}
}

// randomValue builds an arbitrary Value of bounded depth.
func randomValue(r *rand.Rand, depth int) Value { return randomValueOf(r, depth, randString) }

// randomValueOf is randomValue with every string, map key and ref part
// drawn from str.
func randomValueOf(r *rand.Rand, depth int, str func(*rand.Rand) string) Value {
	k := r.Intn(7)
	if depth <= 0 && (k == 5 || k == 6) {
		k = r.Intn(5)
	}
	switch k {
	case 0:
		return Nil
	case 1:
		return Str(str(r))
	case 2:
		return Int(r.Int63() - r.Int63())
	case 3:
		return Bool(r.Intn(2) == 0)
	case 4:
		return RefVal(str(r), str(r))
	case 5:
		n := r.Intn(4)
		vs := make([]Value, n)
		for i := range vs {
			vs[i] = randomValueOf(r, depth-1, str)
		}
		return List(vs...)
	default:
		n := r.Intn(4)
		m := make(map[string]Value, n)
		for i := 0; i < n; i++ {
			m[str(r)] = randomValueOf(r, depth-1, str)
		}
		return Map(m)
	}
}

func randString(r *rand.Rand) string {
	const alphabet = "abcdefghijklmnopqrstuvwxyz0123456789-_."
	n := 1 + r.Intn(8)
	b := make([]byte, n)
	for i := range b {
		b[i] = alphabet[r.Intn(len(alphabet))]
	}
	return string(b)
}

// valueGen adapts randomValue for testing/quick.
type valueGen struct{ V Value }

// Generate implements quick.Generator.
func (valueGen) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(valueGen{V: randomValue(r, 3)})
}

func TestQuickEqualReflexive(t *testing.T) {
	f := func(g valueGen) bool { return g.V.Equal(g.V) }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickEqualSymmetric(t *testing.T) {
	f := func(a, b valueGen) bool { return a.V.Equal(b.V) == b.V.Equal(a.V) }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickWireRoundTrip(t *testing.T) {
	// Every value must survive the JSON wire encoding, except that a
	// ref whose type or ID contains '/' is ambiguous — the generator
	// avoids '/' in strings so the property is exact.
	f := func(g valueGen) bool {
		data, err := json.Marshal(g.V)
		if err != nil {
			return false
		}
		var back Value
		if err := json.Unmarshal(data, &back); err != nil {
			return false
		}
		return normalizeEmpty(g.V).Equal(normalizeEmpty(back))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// normalizeEmpty maps empty lists/maps consistently: the wire encodes
// nil-backed and empty-backed collections identically.
func normalizeEmpty(v Value) Value {
	switch v.Kind() {
	case KindList:
		l := v.AsList()
		out := make([]Value, len(l))
		for i, e := range l {
			out[i] = normalizeEmpty(e)
		}
		return List(out...)
	case KindMap:
		m := v.AsMap()
		out := make(map[string]Value, len(m))
		for k, e := range m {
			out[k] = normalizeEmpty(e)
		}
		return Map(out)
	default:
		return v
	}
}

func TestWireRefRoundTrip(t *testing.T) {
	v := RefVal("Vpc", "vpc-00000001")
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != `{"$ref":"Vpc/vpc-00000001"}` {
		t.Errorf("wire form = %s", data)
	}
	var back Value
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !back.Equal(v) {
		t.Errorf("round trip = %v", back)
	}
}

func TestWireRejectsFloats(t *testing.T) {
	var v Value
	if err := json.Unmarshal([]byte(`1.5`), &v); err == nil {
		t.Error("float accepted on the wire")
	}
}

func TestAPIError(t *testing.T) {
	e := Errf("DependencyViolation", "vpc %s has dependencies", "vpc-1")
	if e.Error() != "DependencyViolation: vpc vpc-1 has dependencies" {
		t.Errorf("Error() = %q", e.Error())
	}
	var err error = e
	ae, ok := AsAPIError(err)
	if !ok || ae.Code != "DependencyViolation" {
		t.Error("AsAPIError failed")
	}
	if _, ok := AsAPIError(json.Unmarshal([]byte("x"), &struct{}{})); ok {
		t.Error("AsAPIError matched a non-API error")
	}
}

func TestIDGenDeterminism(t *testing.T) {
	g := NewIDGen()
	a1 := g.Next("vpc")
	a2 := g.Next("vpc")
	b1 := g.Next("subnet")
	if a1 != "vpc-00000001" || a2 != "vpc-00000002" || b1 != "subnet-00000001" {
		t.Errorf("ids = %s %s %s", a1, a2, b1)
	}
	g.Reset()
	if g.Next("vpc") != "vpc-00000001" {
		t.Error("reset did not restart counters")
	}
}

func TestParamsHelpers(t *testing.T) {
	p := Params{"a": Int(1), "n": Nil}
	if !p.Has("a") || p.Has("n") || p.Has("z") {
		t.Error("Has")
	}
	if p.Get("a").AsInt() != 1 || !p.Get("z").IsNil() {
		t.Error("Get")
	}
	c := p.Clone()
	c["a"] = Int(2)
	if p.Get("a").AsInt() != 1 {
		t.Error("Clone aliases the original")
	}
	var nilP Params
	if !nilP.Get("x").IsNil() || nilP.Has("x") {
		t.Error("nil Params accessors")
	}
}
