package httpapi

import (
	"bytes"
	"encoding/json"
	"unicode/utf8"

	"lce/internal/cloudapi"
)

// decodeWireRequest decodes an invoke body; an empty or all-space body
// is the zero request. The body every client in this repository sends
// — {"action":"…","params":{"k":scalar,…}}, compact, either field
// optional — is read straight off the bytes. Anything else goes to
// encoding/json, which owns every error text, so wherever the fast
// path accepts a body its result is what encoding/json would build.
func decodeWireRequest(body []byte) (wireRequest, error) {
	if req, ok := decodeFlatRequest(body); ok {
		return req, nil
	}
	var req wireRequest
	if len(bytes.TrimSpace(body)) == 0 {
		return req, nil
	}
	err := json.Unmarshal(body, &req)
	return req, err
}

// decodeFlatRequest is the fast path: a compact object whose only keys
// are "action" (a string) and "params" (null, or an object of
// scalars), in any order and any number of times. Keys and strings must
// be free of escapes and control bytes and be valid UTF-8, and each
// parameter must be a form cloudapi.DecodeScalar takes. It mirrors
// encoding/json where a body repeats a key: the last action wins,
// params objects merge into one map, and a later null clears it.
func decodeFlatRequest(b []byte) (wireRequest, bool) {
	var req wireRequest
	if len(b) < 2 || b[0] != '{' {
		return req, false
	}
	i := 1
	if b[i] == '}' {
		return req, len(b) == 2
	}
	for {
		key, next, ok := plainString(b, i)
		if !ok || next >= len(b) || b[next] != ':' {
			return req, false
		}
		i = next + 1
		switch string(key) {
		case "action":
			s, next, ok := plainString(b, i)
			if !ok {
				return req, false
			}
			req.Action, i = string(s), next
		case "params":
			if i, ok = decodeFlatParams(b, i, &req.Params); !ok {
				return req, false
			}
		default:
			return req, false
		}
		if i >= len(b) {
			return req, false
		}
		switch b[i] {
		case ',':
			i++
		case '}':
			return req, i+1 == len(b)
		default:
			return req, false
		}
	}
}

// decodeFlatParams decodes the params value starting at b[i] into *dst
// and returns the index just past it.
func decodeFlatParams(b []byte, i int, dst *map[string]cloudapi.Value) (int, bool) {
	if bytes.HasPrefix(b[i:], []byte("null")) {
		*dst = nil
		return i + 4, true
	}
	if i >= len(b) || b[i] != '{' {
		return i, false
	}
	if *dst == nil {
		*dst = make(map[string]cloudapi.Value)
	}
	i++
	if i < len(b) && b[i] == '}' {
		return i + 1, true
	}
	for {
		key, next, ok := plainString(b, i)
		if !ok || next >= len(b) || b[next] != ':' {
			return i, false
		}
		i = next + 1
		// The scalar runs to its closing quote, or to the next delimiter;
		// DecodeScalar rejects whatever else the span holds.
		end := i
		if end < len(b) && b[end] == '"' {
			j := bytes.IndexByte(b[end+1:], '"')
			if j < 0 {
				return i, false
			}
			end += j + 2
		} else {
			for end < len(b) && b[end] != ',' && b[end] != '}' {
				end++
			}
		}
		v, ok := cloudapi.DecodeScalar(b[i:end])
		if !ok {
			return i, false
		}
		(*dst)[string(key)] = v
		if i = end; i >= len(b) {
			return i, false
		}
		switch b[i] {
		case ',':
			i++
		case '}':
			return i + 1, true
		default:
			return i, false
		}
	}
}

// plainString returns the contents of the JSON string starting at b[i]
// and the index just past its closing quote, when the string holds no
// escape or control byte and is valid UTF-8 — a string whose decoding
// is its bytes.
func plainString(b []byte, i int) ([]byte, int, bool) {
	if i >= len(b) || b[i] != '"' {
		return nil, i, false
	}
	for j := i + 1; j < len(b); j++ {
		switch c := b[j]; {
		case c == '"':
			s := b[i+1 : j]
			return s, j + 1, utf8.Valid(s)
		case c == '\\' || c < 0x20:
			return nil, i, false
		}
	}
	return nil, i, false
}
