package httpapi

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"testing/quick"

	"lce/internal/cloudapi"
	"lce/internal/cloudapi/cloudapitest"
)

// sameAsJSON holds decodeWireRequest to encoding/json on one body: the
// same request on success, the same error text on failure, and — where
// the fast path accepts the body — encoding/json accepting it too. It
// is the whole contract of the decoder.
func sameAsJSON(body []byte) (string, bool) {
	got, gerr := decodeWireRequest(body)
	var want wireRequest
	var werr error
	if strings.TrimSpace(string(body)) != "" {
		werr = json.Unmarshal(body, &want)
	}
	if fast, ok := decodeFlatRequest(body); ok {
		if werr != nil {
			return fmt.Sprintf("%q: fast path took it, encoding/json says %v", body, werr), false
		}
		if !cloudapitest.DeepEqual(fast, want) {
			return fmt.Sprintf("%q: fast path %+v, encoding/json %+v", body, fast, want), false
		}
	}
	switch {
	case (gerr == nil) != (werr == nil):
		return fmt.Sprintf("%q: decoder err %v, encoding/json err %v", body, gerr, werr), false
	case gerr != nil && gerr.Error() != werr.Error():
		return fmt.Sprintf("%q: decoder err %q, encoding/json err %q", body, gerr, werr), false
	case gerr == nil && !cloudapitest.DeepEqual(got, want):
		return fmt.Sprintf("%q: decoder %+v, encoding/json %+v", body, got, want), false
	}
	return "", true
}

// decodePinned are the spellings byte mutations rarely reach: what the
// fast path must take, and every near miss it must hand to
// encoding/json.
var decodePinned = []string{
	``, ` `, "\n", `{}`, `{"action":"DescribeVpcs"}`, `{"params":{}}`, `{"params":null}`,
	`{"action":"CreateVpc","params":{"cidrBlock":"10.0.0.0/16"}}`,
	`{"params":{"cidrBlock":"10.0.0.0/16"},"action":"CreateVpc"}`,
	`{"params":{"n":443,"neg":-7,"ok":true,"no":false,"none":null,"s":"héllo😀"}}`,
	// Case-folded and unknown keys.
	`{"Action":"X"}`, `{"ACTION":"X"}`, `{"action":"X","extra":1}`, `{"PARAMS":{"a":1}}`,
	// Whitespace anywhere.
	` {}`, `{} `, `{ "action":"X"}`, `{"action" :"X"}`, `{"action": "X"}`, `{"params":{"a": 1}}`, `{"params":{"a":1 }}`, "{\"params\":{\"a\":1}}\n",
	// Escapes and control bytes in keys and strings.
	"{\"action\":\"Describe\\u0056pcs\"}", "{\"\\u0061ction\":\"X\"}", "{\"params\":{\"k\\u0065y\":\"v\"}}", `{"params":{"k":"v\"q"}}`,
	`{"params":{"k":"a\\b"}}`, "{\"params\":{\"k\":\"\\ud83d\\ude00\"}}", "{\"params\":{\"k\":\"tab\there\"}}", "{\"action\":\"nul\x00\"}",
	// Numbers: -0, leading zeros, the 18/19-digit boundary, floats.
	`{"params":{"n":-0}}`, `{"params":{"n":0}}`, `{"params":{"n":01}}`, `{"params":{"n":-01}}`,
	`{"params":{"n":999999999999999999}}`, `{"params":{"n":1234567890123456789}}`, `{"params":{"n":9223372036854775808}}`,
	`{"params":{"n":1.5}}`, `{"params":{"n":1e3}}`, `{"params":{"n":-}}`, `{"params":{"n":+1}}`,
	// Invalid UTF-8 in keys, values and the action.
	"{\"params\":{\"k\":\"bad\xff\"}}", "{\"params\":{\"bad\xfe\":1}}", "{\"action\":\"\xed\xa0\x80\"}",
	// Nested values and refs.
	`{"params":{"l":[1,2]}}`, `{"params":{"m":{"a":1}}}`, `{"params":{"r":{"$ref":"Vpc/vpc-1"}}}`, `{"params":{"r":{"$ref":"noslash"}}}`, `{"params":[]}`,
	// Wrong types for the two fields.
	`{"action":7}`, `{"action":null}`, `{"action":true}`, `{"params":"x"}`, `{"params":7}`,
	// Duplicate keys: the last action wins, params objects merge, null clears.
	`{"action":"A","action":"B"}`, `{"params":{"a":1,"a":2}}`, `{"params":{"a":1},"params":{"b":2}}`,
	`{"params":{"a":1},"params":null}`, `{"params":null,"params":{"b":2}}`, `{"action":"A","action":null}`,
	// Truncations and trailing garbage.
	`{`, `{"action"`, `{"action":`, `{"action":"X"`, `{"action":"X",}`, `{,}`, `{"params":{"a":1,}}`, `{"params":{"a"}}`,
	`{"params":{"a":1}`, `{"action":"X"}}`, `{"action":"X"}{}`, `{"params":{"a":"x}}`, `[]`, `null`, `"x"`, `7`,
}

func TestDecodeWireRequestPinned(t *testing.T) {
	for _, in := range decodePinned {
		if msg, ok := sameAsJSON([]byte(in)); !ok {
			t.Error(msg)
		}
	}
	// The fast path is taken for what clients and the benchmark send,
	// with the shapes encoding/json gives them.
	for _, s := range CycleSteps {
		if _, ok := decodeFlatRequest([]byte(s.Body())); s.Body() != "" && !ok {
			t.Errorf("benchmark body %s fell through to encoding/json", s.Body())
		}
	}
	for _, c := range []struct {
		body string
		want wireRequest
	}{
		{`{"action":"DescribeVpcs"}`, wireRequest{Action: "DescribeVpcs"}},
		{`{"params":{}}`, wireRequest{Params: map[string]cloudapi.Value{}}},
		{`{"params":null}`, wireRequest{}},
		{`{"params":{"a":1},"params":null}`, wireRequest{}},
	} {
		got, ok := decodeFlatRequest([]byte(c.body))
		if !ok || !cloudapitest.DeepEqual(got, c.want) {
			t.Errorf("%s: fast path = %+v, %v; want %+v", c.body, got, ok, c.want)
		}
	}
}

// TestQuickDecodeWireRequestMutations holds the decoder to
// encoding/json over random byte mutations — cut, flip, insert — of
// the benchmark's 22 bodies.
func TestQuickDecodeWireRequestMutations(t *testing.T) {
	f := func(step uint8, cut, at uint16, flip, ins byte) bool {
		body := []byte(CycleSteps[int(step)%len(CycleSteps)].Body())
		for _, in := range mutations(body, cut, at, flip, ins) {
			if msg, ok := sameAsJSON(in); !ok {
				t.Log(msg)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

// mutations returns body, body cut at cut, body with one byte flipped
// and body with one byte inserted.
func mutations(body []byte, cut, at uint16, flip, ins byte) [][]byte {
	out := [][]byte{body, append([]byte(nil), body[:int(cut)%(len(body)+1)]...)}
	if len(body) > 0 {
		flipped := append([]byte(nil), body...)
		flipped[int(at)%len(body)] ^= flip
		out = append(out, flipped)
	}
	i := int(at) % (len(body) + 1)
	inserted := append(append(append([]byte(nil), body[:i]...), ins), body[i:]...)
	return append(out, inserted)
}

// FuzzDecodeWireRequest: wherever the fast path accepts a body,
// encoding/json accepts it too and builds a DeepEqual request, and on
// every body the decoder answers what encoding/json answers.
func FuzzDecodeWireRequest(f *testing.F) {
	for _, in := range decodePinned {
		f.Add([]byte(in))
	}
	for _, s := range CycleSteps {
		f.Add([]byte(s.Body()))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		if msg, ok := sameAsJSON(body); !ok {
			t.Fatal(msg)
		}
	})
}

// BenchmarkReadRequest prices readRequest over the benchmark's 21
// invoke bodies, as an un-instrumented route reads them.
func BenchmarkReadRequest(b *testing.B) {
	s := &server{}
	var bodies []string
	for _, st := range CycleSteps {
		if st.Action != "" {
			bodies = append(bodies, st.Body())
		}
	}
	rd := strings.NewReader("")
	r := httptest.NewRequest("POST", "/v2/ec2", rd)
	w := httptest.NewRecorder()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd.Reset(bodies[i%len(bodies)])
		if _, ok := s.readRequest(w, r, "r"); !ok {
			b.Fatalf("body %s did not decode", bodies[i%len(bodies)])
		}
	}
}
