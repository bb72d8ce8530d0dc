package cloudapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"strconv"
	"unicode/utf8"
)

// The wire encoding maps Value to JSON so requests and responses can
// cross the HTTP front-end. Scalars map to JSON scalars; references are
// distinguished by a {"$ref": "Type/ID"} wrapper so they survive the
// round trip; lists and maps map recursively.

// MarshalJSON implements json.Marshaler with the AppendJSON encoding.
func (v Value) MarshalJSON() ([]byte, error) {
	if v.kind < KindNil || v.kind > KindMap {
		return nil, fmt.Errorf("cloudapi: cannot marshal kind %v", v.kind)
	}
	return AppendJSON(nil, &v), nil
}

// AppendJSON appends v's wire encoding to dst and returns the extended
// slice. The output is byte-for-byte what encoding/json produces for
// the plain Go tree of the same value — sorted map keys, HTML-escaped
// strings, the {"$ref"} wrapper — which the wire tests assert against
// encoding/json itself; the HTTP front-end's pooled success path
// (through AppendNormalizedResult, which shares this encoder) renders
// with it, and so does MarshalJSON.
func AppendJSON(dst []byte, v *Value) []byte { return appendJSON(dst, v, false) }

// AppendNormalizedJSON appends the wire encoding of NormalizeValue(*v)
// to dst without building that copy: a ref at any depth renders as the
// JSON string of its ID. The HTTP front-end encodes every success
// result with it, so a response costs one walk of the backend's result
// and no second tree.
func AppendNormalizedJSON(dst []byte, v *Value) []byte { return appendJSON(dst, v, true) }

// AppendNormalizedResult is AppendNormalizedJSON for a result map; a
// nil result encodes as {}.
func AppendNormalizedResult(dst []byte, r Result) []byte {
	v := Value{kind: KindMap, m: r}
	return appendJSON(dst, &v, true)
}

// appendJSON is the one encoder behind both forms; normalize renders
// refs as their ID strings.
func appendJSON(dst []byte, v *Value, normalize bool) []byte {
	switch v.kind {
	case KindNil:
		return append(dst, "null"...)
	case KindString:
		return appendJSONString(dst, v.s)
	case KindInt:
		return strconv.AppendInt(dst, v.n, 10)
	case KindBool:
		if v.n != 0 {
			return append(dst, "true"...)
		}
		return append(dst, "false"...)
	case KindRef:
		if normalize {
			return appendJSONString(dst, v.s)
		}
		dst = append(dst, `{"$ref":`...)
		dst = appendJSONString(dst, v.refType()+"/"+v.s)
		return append(dst, '}')
	case KindList:
		dst = append(dst, '[')
		l := v.list()
		for i := range l {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendJSON(dst, &l[i], normalize)
		}
		return append(dst, ']')
	case KindMap:
		dst = append(dst, '{')
		// Sorting in a stack array keeps maps of up to len(scratch) keys
		// — every describe payload — free of allocation.
		var scratch [16]string
		keys := scratch[:0]
		for k := range v.m {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		// e is declared outside the loop: the address of a per-iteration
		// copy passed down this recursion would move every copy to the
		// heap.
		var e Value
		for i, k := range keys {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendJSONString(dst, k)
			dst = append(dst, ':')
			e = v.m[k]
			dst = appendJSON(dst, &e, normalize)
		}
		return append(dst, '}')
	default:
		// MarshalJSON errors on an unknown kind at the top; the append
		// path renders null so the caller still emits valid JSON.
		// Unreachable for values built through this package's
		// constructors.
		return append(dst, "null"...)
	}
}

// AppendJSONString appends s as a JSON string under the same escaping
// contract as AppendJSON. The HTTP layer's envelope writer uses it for
// the non-Value fields (request IDs) it splices around the payload.
func AppendJSONString(dst []byte, s string) []byte { return appendJSONString(dst, s) }

// appendJSONString appends s as a JSON string, matching encoding/json's
// escaping exactly: quote and backslash, control characters (\n \r \t
// named, the rest \u00xx), the HTML-unsafe set (< > &), the
// line-separator pair U+2028/U+2029, and U+FFFD for invalid UTF-8.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '"':
				dst = append(dst, '\\', '"')
			case '\\':
				dst = append(dst, '\\', '\\')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				const hex = "0123456789abcdef"
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', 'f', 'f', 'f', 'd')
			i += size
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', '8'+byte(r-'\u2028'))
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// UnmarshalJSON implements json.Unmarshaler. Scalars — what almost
// every request parameter is — decode directly from the bytes; lists,
// maps, refs and any spelling DecodeScalar does not recognise go
// through the generic decoder, which also owns every error text.
func (v *Value) UnmarshalJSON(data []byte) error {
	if val, ok := DecodeScalar(data); ok {
		*v = val
		return nil
	}
	return v.unmarshalGeneric(data)
}

// DecodeScalar decodes data when it is, byte for byte, null, true,
// false, an integer of at most 18 digits in JSON's canonical spelling,
// or a string free of escapes and control characters that is valid
// UTF-8 — the forms whose generic decoding is a plain copy. Anything
// else (whitespace around the value included) reports false and is the
// generic path's to decode or reject. The HTTP front-end's request
// decoder runs every flat parameter through it too.
func DecodeScalar(data []byte) (Value, bool) {
	if len(data) == 0 {
		return Nil, false
	}
	switch c := data[0]; {
	case c == '"':
		if len(data) < 2 || data[len(data)-1] != '"' {
			return Nil, false
		}
		body := data[1 : len(data)-1]
		for _, b := range body {
			if b < 0x20 || b == '"' || b == '\\' {
				return Nil, false
			}
		}
		if !utf8.Valid(body) {
			return Nil, false
		}
		return Str(string(body)), true
	case c == '-' || (c >= '0' && c <= '9'):
		digits := data
		if c == '-' {
			digits = data[1:]
		}
		if len(digits) == 0 || len(digits) > 18 || (digits[0] == '0' && len(digits) > 1) {
			return Nil, false
		}
		var n int64
		for _, d := range digits {
			if d < '0' || d > '9' {
				return Nil, false
			}
			n = n*10 + int64(d-'0')
		}
		if c == '-' {
			n = -n
		}
		return Int(n), true
	case string(data) == "null":
		return Nil, true
	case string(data) == "true":
		return Bool(true), true
	case string(data) == "false":
		return Bool(false), true
	}
	return Nil, false
}

// unmarshalGeneric decodes any wire value through encoding/json.
func (v *Value) unmarshalGeneric(data []byte) error {
	var raw any
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	if err := dec.Decode(&raw); err != nil {
		return err
	}
	val, err := fromJSON(raw)
	if err != nil {
		return err
	}
	*v = val
	return nil
}

func fromJSON(raw any) (Value, error) {
	switch t := raw.(type) {
	case nil:
		return Nil, nil
	case string:
		return Str(t), nil
	case bool:
		return Bool(t), nil
	case json.Number:
		i, err := t.Int64()
		if err != nil {
			return Nil, fmt.Errorf("cloudapi: non-integer number %q on the wire", t.String())
		}
		return Int(i), nil
	case []any:
		list := make([]Value, len(t))
		for i, e := range t {
			v, err := fromJSON(e)
			if err != nil {
				return Nil, err
			}
			list[i] = v
		}
		return List(list...), nil
	case map[string]any:
		if ref, ok := t["$ref"]; ok && len(t) == 1 {
			s, ok := ref.(string)
			if !ok {
				return Nil, fmt.Errorf("cloudapi: $ref must be a string")
			}
			for i := 0; i < len(s); i++ {
				if s[i] == '/' {
					return RefVal(s[:i], s[i+1:]), nil
				}
			}
			return Nil, fmt.Errorf("cloudapi: malformed $ref %q", s)
		}
		m := make(map[string]Value, len(t))
		for k, e := range t {
			v, err := fromJSON(e)
			if err != nil {
				return Nil, err
			}
			m[k] = v
		}
		return Map(m), nil
	default:
		return Nil, fmt.Errorf("cloudapi: cannot unmarshal %T", raw)
	}
}
