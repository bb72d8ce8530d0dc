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
	"unsafe"
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
//
// A Value is 48 bytes: every kind keeps its payload in the same five
// words, so the interpreter's frames, lists and maps move less than
// half the bytes a field per kind (104) would. A string and a ref's ID share s;
// an int and a bool (0 or 1) share n; a ref's type and a list share the
// pointer p with n as its length, read back only through
// unsafe.String and unsafe.Slice; a map keeps its own typed field, so
// the garbage collector and the map runtime see an ordinary map. A
// list read back has len == cap, so appending to it never writes into
// the array the Value holds.
type Value struct {
	kind Kind
	s    string
	p    unsafe.Pointer
	n    int64
	m    map[string]Value
}

// Nil is the nil value.
var Nil = Value{}

// Str returns a string value.
func Str(s string) Value { return Value{kind: KindString, s: s} }

// Int returns an integer value.
func Int(i int64) Value { return Value{kind: KindInt, n: i} }

// Bool returns a boolean value.
func Bool(b bool) Value {
	if b {
		return Value{kind: KindBool, n: 1}
	}
	return Value{kind: KindBool}
}

// True and False are the boolean constants.
var (
	True  = Bool(true)
	False = Bool(false)
)

// RefVal returns a resource-reference value.
func RefVal(typ, id string) Value {
	return Value{kind: KindRef, s: id, p: unsafe.Pointer(unsafe.StringData(typ)), n: int64(len(typ))}
}

// RefOf wraps an existing Ref in a Value.
func RefOf(r Ref) Value { return RefVal(r.Type, r.ID) }

// List returns a list value holding vs. The slice is used directly.
func List(vs ...Value) Value {
	return Value{kind: KindList, p: unsafe.Pointer(unsafe.SliceData(vs)), n: int64(len(vs))}
}

// Map returns a map value holding m. The map is used directly.
func Map(m map[string]Value) Value {
	if m == nil {
		m = map[string]Value{}
	}
	return Value{kind: KindMap, m: m}
}

// refType and list decode p; the caller has checked the kind.
func (v *Value) refType() string { return unsafe.String((*byte)(v.p), v.n) }
func (v *Value) list() []Value   { return unsafe.Slice((*Value)(v.p), v.n) }

// Kind returns the value's dynamic kind.
func (v Value) Kind() Kind { return v.kind }

// IsNil reports whether the value is nil.
func (v Value) IsNil() bool { return v.kind == KindNil }

// AsString returns the string payload; it is "" for non-strings.
func (v Value) AsString() string {
	if v.kind != KindString {
		return ""
	}
	return v.s
}

// AsInt returns the integer payload; it is 0 for non-ints.
func (v Value) AsInt() int64 {
	if v.kind != KindInt {
		return 0
	}
	return v.n
}

// AsBool returns the boolean payload; it is false for non-bools.
func (v Value) AsBool() bool { return v.kind == KindBool && v.n != 0 }

// AsRef returns the reference payload; it is the zero Ref for non-refs.
func (v Value) AsRef() Ref {
	if v.kind != KindRef {
		return Ref{}
	}
	return Ref{Type: v.refType(), ID: v.s}
}

// AsList returns the list payload; it is nil for non-lists.
func (v Value) AsList() []Value {
	if v.kind != KindList {
		return nil
	}
	return v.list()
}

// AsMap returns the map payload; it is nil for non-maps.
func (v Value) AsMap() map[string]Value { return v.m }

// Truthy reports whether the value counts as true in a predicate:
// booleans by their value, nil as false, everything else as non-empty.
func (v Value) Truthy() bool {
	switch v.kind {
	case KindString:
		return v.s != ""
	case KindInt, KindBool, KindList:
		return v.n != 0
	case KindRef:
		return v.n != 0 || v.s != ""
	case KindMap:
		return len(v.m) > 0
	default:
		return false
	}
}

// Equal reports deep equality of two values. Values of different kinds
// are never equal (there is no implicit conversion).
func (v Value) Equal(o Value) bool {
	if v.kind != o.kind {
		return false
	}
	switch v.kind {
	case KindNil:
		return true
	case KindString:
		return v.s == o.s
	case KindInt, KindBool:
		return v.n == o.n
	case KindRef:
		return v.s == o.s && v.refType() == o.refType()
	case KindList:
		if v.n != o.n {
			return false
		}
		vl, ol := v.list(), o.list()
		for i := range vl {
			if !vl[i].Equal(ol[i]) {
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
			if !ok || !ve.Equal(oe) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// Identical reports whether a and b are the same value in every
// observable respect: Equal, and beyond it a nil list or map is not an
// empty one, at any depth. Tests that hold two runs to the same
// results compare with it; reflect.DeepEqual cannot, as it compares
// the pointer a list or ref type is kept under by address.
func Identical(a, b Value) bool {
	if a.kind != b.kind {
		return false
	}
	switch a.kind {
	case KindList:
		if (a.p == nil) != (b.p == nil) || a.n != b.n {
			return false
		}
		al, bl := a.list(), b.list()
		for i := range al {
			if !Identical(al[i], bl[i]) {
				return false
			}
		}
		return true
	case KindMap:
		if (a.m == nil) != (b.m == nil) || len(a.m) != len(b.m) {
			return false
		}
		for k, ae := range a.m {
			be, ok := b.m[k]
			if !ok || !Identical(ae, be) {
				return false
			}
		}
		return true
	default:
		return a.Equal(b)
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
		return strconv.FormatInt(v.n, 10)
	case KindBool:
		return strconv.FormatBool(v.n != 0)
	case KindRef:
		return v.AsRef().String()
	case KindList:
		l := v.list()
		parts := make([]string, len(l))
		for i, e := range l {
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
