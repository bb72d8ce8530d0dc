// Package cloudapitest holds test support for code that compares
// structures holding cloudapi.Values.
package cloudapitest

import (
	"reflect"
	"unsafe"

	"lce/internal/cloudapi"
)

var valueType = reflect.TypeOf(cloudapi.Value{})

// DeepEqual is reflect.DeepEqual with every cloudapi.Value, at any
// depth, compared by cloudapi.Identical. reflect.DeepEqual compares
// the unsafe.Pointer a Value keeps a list or a ref's type under by
// address, so two equal results built apart compare unequal under it.
// Like reflect.DeepEqual it reads unexported fields, tells a nil slice
// or map from an empty one, and counts two funcs equal only when both
// are nil.
func DeepEqual(a, b any) bool {
	if a == nil || b == nil {
		return a == b
	}
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	if va.Type() != vb.Type() {
		return false
	}
	return deepEqual(va, vb, map[visit]bool{})
}

// visit is a pair of references already being compared; a cycle
// through them compares equal, as in reflect.DeepEqual.
type visit struct {
	a, b unsafe.Pointer
	typ  reflect.Type
}

// deepEqual compares two values of one type. Neither is ever read
// through an unexported field: struct fields are re-derived from their
// addresses (exported), so a Value found at any depth can be taken out
// with Interface.
func deepEqual(a, b reflect.Value, visited map[visit]bool) bool {
	if a.Type() == valueType {
		return cloudapi.Identical(a.Interface().(cloudapi.Value), b.Interface().(cloudapi.Value))
	}
	switch a.Kind() {
	case reflect.Map, reflect.Slice, reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		if a.Kind() == reflect.Slice && a.Len() != b.Len() {
			return false
		}
		v := visit{a.UnsafePointer(), b.UnsafePointer(), a.Type()}
		if v.a == v.b || visited[v] {
			return true
		}
		visited[v] = true
	}
	switch a.Kind() {
	case reflect.Array, reflect.Slice:
		for i := 0; i < a.Len(); i++ {
			if !deepEqual(a.Index(i), b.Index(i), visited) {
				return false
			}
		}
		return true
	case reflect.Interface:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		ea, eb := a.Elem(), b.Elem()
		return ea.Type() == eb.Type() && deepEqual(ea, eb, visited)
	case reflect.Pointer:
		return deepEqual(a.Elem(), b.Elem(), visited)
	case reflect.Struct:
		a, b = addressable(a), addressable(b)
		for i := 0; i < a.NumField(); i++ {
			if !deepEqual(exported(a.Field(i)), exported(b.Field(i)), visited) {
				return false
			}
		}
		return true
	case reflect.Map:
		if a.Len() != b.Len() {
			return false
		}
		it := a.MapRange()
		for it.Next() {
			eb := b.MapIndex(it.Key())
			if !eb.IsValid() || !deepEqual(it.Value(), eb, visited) {
				return false
			}
		}
		return true
	case reflect.Func:
		return a.IsNil() && b.IsNil()
	case reflect.Bool:
		return a.Bool() == b.Bool()
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return a.Int() == b.Int()
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return a.Uint() == b.Uint()
	case reflect.Float32, reflect.Float64:
		return a.Float() == b.Float()
	case reflect.Complex64, reflect.Complex128:
		return a.Complex() == b.Complex()
	case reflect.String:
		return a.String() == b.String()
	case reflect.Chan, reflect.UnsafePointer:
		return a.UnsafePointer() == b.UnsafePointer()
	default:
		panic("cloudapitest: unhandled kind " + a.Kind().String())
	}
}

// addressable returns v, copied to fresh memory if it has no address
// (a map element, an interface's dynamic value), so its fields do.
func addressable(v reflect.Value) reflect.Value {
	if v.CanAddr() {
		return v
	}
	c := reflect.New(v.Type()).Elem()
	c.Set(v)
	return c
}

// exported returns the field f of an addressable struct, read through
// its address so that an unexported field can be taken out with
// Interface.
func exported(f reflect.Value) reflect.Value {
	if f.CanInterface() {
		return f
	}
	return reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem()
}
