package httpapi

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"lce/internal/cloudapi"
)

// TestWireResponseBytes: the pooled envelope writer must emit exactly
// what the stdlib encoder emits for the envelope with the result
// normalized — the success wire format is a compatibility surface
// (clients, smoke-test greps), and refs reach it only as ID strings,
// at any depth.
func TestWireResponseBytes(t *testing.T) {
	cases := []wireResponse{
		{},
		{RequestID: "lce-00000000075bcd15"},
		{RequestID: `tagged "<&>" id`},
		{Result: map[string]cloudapi.Value{}},
		{Result: map[string]cloudapi.Value{"vpcs": cloudapi.List()}},
		{RequestID: "r1", Result: map[string]cloudapi.Value{
			"vpcId": cloudapi.Str("vpc-00000001"),
			"tags":  cloudapi.Map(map[string]cloudapi.Value{"b": cloudapi.Int(2), "a": cloudapi.Nil}),
			"html":  cloudapi.Str("<script>&"),
			"ref":   cloudapi.RefVal("Vpc", "vpc-00000001"),
			"deep": cloudapi.List(cloudapi.Map(map[string]cloudapi.Value{
				"owner": cloudapi.RefVal("Vpc", "vpc-<&>"),
				"peers": cloudapi.List(cloudapi.RefVal("Subnet", "subnet-1"), cloudapi.Str("x")),
			})),
		}},
	}
	for _, resp := range cases {
		var want bytes.Buffer
		normalized := wireResponse{RequestID: resp.RequestID, Result: cloudapi.NormalizeResult(resp.Result)}
		if err := json.NewEncoder(&want).Encode(normalized); err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		writeWireResponse(rec, 200, resp, nil)
		if got := rec.Body.String(); got != want.String() {
			t.Errorf("envelope %+v\n got %q\nwant %q", resp, got, want.String())
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("Content-Type = %q", ct)
		}
	}
}

// nopWriter is an http.ResponseWriter that keeps nothing, so
// BenchmarkWriteWireResponse prices the encoder and not a recorder.
type nopWriter http.Header

func (w nopWriter) Header() http.Header       { return http.Header(w) }
func (nopWriter) WriteHeader(int)             {}
func (nopWriter) Write(p []byte) (int, error) { return len(p), nil }

// BenchmarkWriteWireResponse prices the success envelope of a
// DescribeSubnets over two subnets — the benchmark's largest describe —
// with its vpcId attributes still refs, as a backend may answer them.
func BenchmarkWriteWireResponse(b *testing.B) {
	subnet := func(id, cidr string) cloudapi.Value {
		return cloudapi.Map(map[string]cloudapi.Value{
			"id":               cloudapi.Str(id),
			"vpcId":            cloudapi.RefVal("Vpc", "vpc-00000001"),
			"cidrBlock":        cloudapi.Str(cidr),
			"state":            cloudapi.Str("available"),
			"availabilityZone": cloudapi.Str("us-east-1a"),
			"tags":             cloudapi.Map(nil),
		})
	}
	resp := wireResponse{RequestID: "lce-00000000075bcd15", Result: cloudapi.Result{
		"subnets": cloudapi.List(subnet("subnet-00000001", "10.0.1.0/24"), subnet("subnet-00000002", "10.0.2.0/24")),
	}}
	w := nopWriter{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		writeWireResponse(w, http.StatusOK, resp, nil)
	}
}

// TestClampRequestID: a client-tagged ID is cut to 128 bytes at a
// character boundary, never inside a character, so the header echo and
// the JSON envelope (which would spell a cut character U+FFFD) agree.
func TestClampRequestID(t *testing.T) {
	a := strings.Repeat
	for _, c := range []struct{ in, want string }{
		{"short", "short"},
		{a("a", 128), a("a", 128)},
		{a("a", 129), a("a", 128)},
		{a("a", 127) + "é", a("a", 127)},
		{a("a", 127) + "€x", a("a", 127)},
		{a("a", 126) + "😀", a("a", 126)},
		{a("a", 124) + "😀x", a("a", 124) + "😀"},
		{a("é", 70), a("é", 64)},
	} {
		if got := ClampRequestID(c.in); got != c.want {
			t.Errorf("ClampRequestID(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}
