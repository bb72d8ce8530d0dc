// Package cloudapi defines the shared surface through which every cloud
// backend in this repository is driven: a dynamically typed value model,
// the request/response shapes, the API error model, and the Backend
// interface implemented by the ground-truth cloud models, the learned
// emulator, and the baselines.
//
// Keeping this layer independent of both the spec interpreter and the
// native cloud models is what makes differential testing between them
// meaningful: the two sides share nothing but this package.
package cloudapi

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Kind enumerates the dynamic types a Value can hold.
type Kind int

// The value kinds. KindNil is the zero Value.
const (
	KindNil Kind = iota
	KindString
	KindInt
	KindBool
	KindRef
	KindList
	KindMap
)

// String returns the lower-case name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNil:
		return "nil"
	case KindString:
		return "string"
	case KindInt:
		return "int"
	case KindBool:
		return "bool"
	case KindRef:
		return "ref"
	case KindList:
		return "list"
	case KindMap:
		return "map"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Ref identifies a resource instance by resource type and ID, e.g.
// {Type: "Vpc", ID: "vpc-0a1b2c"}.
type Ref struct {
	Type string
	ID   string
}

// String renders the reference as "Type/ID".
func (r Ref) String() string { return r.Type + "/" + r.ID }

// IsZero reports whether the reference is empty.
func (r Ref) IsZero() bool { return r.Type == "" && r.ID == "" }

// Value is a dynamically typed value exchanged through cloud APIs.
// The zero Value is nil.
type Value struct {
	kind Kind
	s    string
	i    int64
	b    bool
	ref  Ref
	list []Value
	m    map[string]Value
}

// Nil is the nil value.
var Nil = Value{}

// Str returns a string value.
func Str(s string) Value { return Value{kind: KindString, s: s} }

// Int returns an integer value.
func Int(i int64) Value { return Value{kind: KindInt, i: i} }

// Bool returns a boolean value.
func Bool(b bool) Value { return Value{kind: KindBool, b: b} }

// True and False are the boolean constants.
var (
	True  = Bool(true)
	False = Bool(false)
)

// RefVal returns a resource-reference value.
func RefVal(typ, id string) Value { return Value{kind: KindRef, ref: Ref{Type: typ, ID: id}} }

// RefOf wraps an existing Ref in a Value.
func RefOf(r Ref) Value { return Value{kind: KindRef, ref: r} }

// List returns a list value holding vs. The slice is used directly.
func List(vs ...Value) Value { return Value{kind: KindList, list: vs} }

// Map returns a map value holding m. The map is used directly.
func Map(m map[string]Value) Value {
	if m == nil {
		m = map[string]Value{}
	}
	return Value{kind: KindMap, m: m}
}

// Kind returns the value's dynamic kind.
func (v Value) Kind() Kind { return v.kind }

// IsNil reports whether the value is nil.
func (v Value) IsNil() bool { return v.kind == KindNil }

// AsString returns the string payload; it is "" for non-strings.
func (v Value) AsString() string { return v.s }

// AsInt returns the integer payload; it is 0 for non-ints.
func (v Value) AsInt() int64 { return v.i }

// AsBool returns the boolean payload; it is false for non-bools.
func (v Value) AsBool() bool { return v.b }

// AsRef returns the reference payload; it is the zero Ref for non-refs.
func (v Value) AsRef() Ref { return v.ref }

// AsList returns the list payload; it is nil for non-lists.
func (v Value) AsList() []Value { return v.list }

// AsMap returns the map payload; it is nil for non-maps.
func (v Value) AsMap() map[string]Value { return v.m }

// Pointer accessors. Value is a large struct, and its value-receiver
// accessors copy the whole struct when called through a pointer — even
// inlined, the compiler does not elide the copy. Interpreter hot paths
// that already hold a *Value read through these instead.

// KindOf is Kind without copying the value.
func KindOf(v *Value) Kind { return v.kind }

// IsNilPtr is IsNil without copying the value.
func IsNilPtr(v *Value) bool { return v.kind == KindNil }

// StringOf is AsString without copying the value.
func StringOf(v *Value) string { return v.s }

// IntOf is AsInt without copying the value.
func IntOf(v *Value) int64 { return v.i }

// RefOfPtr is AsRef without copying the value.
func RefOfPtr(v *Value) Ref { return v.ref }

// ListOf is AsList without copying the value.
func ListOf(v *Value) []Value { return v.list }

// MapOf is AsMap without copying the value.
func MapOf(v *Value) map[string]Value { return v.m }

// TruthyPtr is Truthy without copying the value.
func TruthyPtr(v *Value) bool {
	switch v.kind {
	case KindNil:
		return false
	case KindBool:
		return v.b
	case KindString:
		return v.s != ""
	case KindInt:
		return v.i != 0
	case KindRef:
		return !v.ref.IsZero()
	case KindList:
		return len(v.list) > 0
	case KindMap:
		return len(v.m) > 0
	default:
		return false
	}
}

// Truthy reports whether the value counts as true in a predicate:
// booleans by their value, nil as false, everything else as non-empty.
func (v Value) Truthy() bool {
	switch v.kind {
	case KindNil:
		return false
	case KindBool:
		return v.b
	case KindString:
		return v.s != ""
	case KindInt:
		return v.i != 0
	case KindRef:
		return !v.ref.IsZero()
	case KindList:
		return len(v.list) > 0
	case KindMap:
		return len(v.m) > 0
	default:
		return false
	}
}

// Equal reports deep equality of two values. Values of different kinds
// are never equal (there is no implicit conversion).
func (v Value) Equal(o Value) bool { return EqualPtr(&v, &o) }

// EqualPtr is Equal without copying its operands. Value is a large
// struct, so interpreter hot paths (predicates, list membership)
// compare through pointers; Equal is a convenience wrapper around it.
func EqualPtr(v, o *Value) bool {
	if v.kind != o.kind {
		return false
	}
	switch v.kind {
	case KindNil:
		return true
	case KindString:
		return v.s == o.s
	case KindInt:
		return v.i == o.i
	case KindBool:
		return v.b == o.b
	case KindRef:
		return v.ref == o.ref
	case KindList:
		if len(v.list) != len(o.list) {
			return false
		}
		for i := range v.list {
			if !EqualPtr(&v.list[i], &o.list[i]) {
				return false
			}
		}
		return true
	case KindMap:
		if len(v.m) != len(o.m) {
			return false
		}
		for k, ve := range v.m {
			oe, ok := o.m[k]
			if !ok || !EqualPtr(&ve, &oe) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// String renders the value for logs and error messages.
func (v Value) String() string {
	switch v.kind {
	case KindNil:
		return "nil"
	case KindString:
		return strconv.Quote(v.s)
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindBool:
		return strconv.FormatBool(v.b)
	case KindRef:
		return v.ref.String()
	case KindList:
		parts := make([]string, len(v.list))
		for i, e := range v.list {
			parts[i] = e.String()
		}
		return "[" + strings.Join(parts, ", ") + "]"
	case KindMap:
		keys := make([]string, 0, len(v.m))
		for k := range v.m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		parts := make([]string, len(keys))
		for i, k := range keys {
			parts[i] = k + ": " + v.m[k].String()
		}
		return "{" + strings.Join(parts, ", ") + "}"
	default:
		return "?"
	}
}
