package cloudapi

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
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

// TestValueLayout: a Value fits in 48 bytes, the zero Value is nil,
// and as the kinds share payload words, every accessor still reads its
// zero from every kind but its own.
func TestValueLayout(t *testing.T) {
	if size := unsafe.Sizeof(Value{}); size > 48 {
		t.Errorf("Value is %d bytes, budget 48", size)
	}
	var zero Value
	if !zero.IsNil() || zero.Kind() != KindNil || zero.Truthy() {
		t.Errorf("the zero Value is %v, want nil", zero)
	}
	for _, v := range []Value{Nil, Str("s"), Int(1), Bool(true), RefVal("Vpc", "vpc-1"), List(Int(1)), Map(map[string]Value{"k": Nil})} {
		k := v.Kind()
		if k != KindString && v.AsString() != "" {
			t.Errorf("%v.AsString() = %q", v, v.AsString())
		}
		if k != KindInt && v.AsInt() != 0 {
			t.Errorf("%v.AsInt() = %d", v, v.AsInt())
		}
		if k != KindBool && v.AsBool() {
			t.Errorf("%v.AsBool() = true", v)
		}
		if k != KindRef && !v.AsRef().IsZero() {
			t.Errorf("%v.AsRef() = %v", v, v.AsRef())
		}
		if k != KindList && v.AsList() != nil {
			t.Errorf("%v.AsList() = %v", v, v.AsList())
		}
		if k != KindMap && v.AsMap() != nil {
			t.Errorf("%v.AsMap() = %v", v, v.AsMap())
		}
	}
}

// oldValue is the field-per-kind layout Value had before its payloads
// shared words. reflect.DeepEqual over it is what tests compared
// Values with then; Identical must tell apart every pair it did.
type oldValue struct {
	kind Kind
	s    string
	i    int64
	b    bool
	ref  Ref
	list []oldValue
	m    map[string]oldValue
}

func toOld(v Value) oldValue {
	o := oldValue{kind: v.Kind(), s: v.AsString(), i: v.AsInt(), b: v.AsBool(), ref: v.AsRef()}
	if l := v.AsList(); l != nil {
		o.list = make([]oldValue, len(l))
		for i, e := range l {
			o.list[i] = toOld(e)
		}
	}
	if m := v.AsMap(); m != nil {
		o.m = make(map[string]oldValue, len(m))
		for k, e := range m {
			o.m[k] = toOld(e)
		}
	}
	return o
}

// rebuilt is v built again from fresh strings and collections, so no
// pointer inside it is shared with v.
func rebuilt(v Value) Value {
	switch v.Kind() {
	case KindString:
		return Str(strings.Clone(v.AsString()))
	case KindRef:
		return RefVal(strings.Clone(v.AsRef().Type), strings.Clone(v.AsRef().ID))
	case KindList:
		l := v.AsList()
		if l == nil {
			return List()
		}
		out := make([]Value, len(l))
		for i, e := range l {
			out[i] = rebuilt(e)
		}
		return List(out...)
	case KindMap:
		if v.AsMap() == nil {
			return v
		}
		out := make(map[string]Value, len(v.AsMap()))
		for k, e := range v.AsMap() {
			out[strings.Clone(k)] = rebuilt(e)
		}
		return Map(out)
	default:
		return v
	}
}

func TestIdentical(t *testing.T) {
	nested := func(leaf Value) Value {
		return List(Int(1), Map(map[string]Value{"a": List(leaf), "b": RefVal("Vpc", "vpc-1")}))
	}
	differ := []struct {
		name string
		a, b Value
	}{
		{"nil vs empty list", Nil, List()},
		{"nil vs empty map", Nil, Map(nil)},
		{"nil list vs empty list", List(), List([]Value{}...)},
		{"nil map vs empty map", Value{kind: KindMap}, Map(nil)},
		{"ref type vs ref ID", RefVal("a", "b"), RefVal("b", "a")},
		{"ref split", RefVal("ab", "c"), RefVal("a", "bc")},
		{"ref vs its ID as a string", RefVal("Vpc", "vpc-1"), Str("vpc-1")},
		{"untyped ref vs string", RefVal("", "vpc-1"), Str("vpc-1")},
		{"int vs bool", Int(1), Bool(true)},
		{"zero int vs false", Int(0), Bool(false)},
		{"false vs nil", Bool(false), Nil},
		{"int vs list of that length", Int(1), List(Int(1))},
		{"empty string vs nil", Str(""), Nil},
		{"nested leaf", nested(Str("x")), nested(Str("y"))},
		{"nested nil list vs empty list", nested(List()), nested(List([]Value{}...))},
		{"nested ref vs string", nested(RefVal("Vpc", "v")), nested(Str("v"))},
		{"map key", Map(map[string]Value{"a": Int(1)}), Map(map[string]Value{"b": Int(1)})},
		{"list length", List(Int(1)), List(Int(1), Nil)},
	}
	for _, c := range differ {
		if Identical(c.a, c.b) || Identical(c.b, c.a) {
			t.Errorf("%s: %v and %v compare identical", c.name, c.a, c.b)
		}
		if reflect.DeepEqual(toOld(c.a), toOld(c.b)) {
			t.Errorf("%s: the field-per-kind layout holds them equal too; not a distinguishing pair", c.name)
		}
		for _, v := range []Value{c.a, c.b} {
			if !Identical(v, rebuilt(v)) {
				t.Errorf("%s: %v is not identical to itself rebuilt", c.name, v)
			}
		}
	}
}

// TestQuickIdenticalMatchesFieldPerKindLayout: on random pairs, and on
// a value beside itself rebuilt, Identical agrees with reflect.DeepEqual
// over the field-per-kind layout.
func TestQuickIdenticalMatchesFieldPerKindLayout(t *testing.T) {
	f := func(a, b valueGen) bool {
		return Identical(a.V, rebuilt(a.V)) &&
			Identical(a.V, b.V) == reflect.DeepEqual(toOld(a.V), toOld(b.V))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
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
