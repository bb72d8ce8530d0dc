package h1

import (
	"bufio"
	"bytes"
	"io"
	"net/http"
	"reflect"
	"testing"
)

// acceptBytes runs the front's head check over data as one connection's
// first read would see it: up to one buffer's worth, nothing consumed.
func acceptBytes(data []byte) (*conn, *http.Request, int, verdict) {
	c := &conn{br: bufio.NewReaderSize(bytes.NewReader(data), bufSize), tmpl: &http.Request{
		Method: http.MethodPost, Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
	}}
	c.br.Peek(min(len(data), bufSize))
	r, n, v := c.accept()
	return c, r, n, v
}

// FuzzH1Request holds the fast subset to net/http's own parser. A head
// the front accepts must be one http.ReadRequest accepts, with the same
// method, target, URL, Host, headers, declared length and body, and the
// same bytes left over for the next request. A head the front refuses
// or cannot finish must leave the connection's bytes untouched for
// net/http to read. The seeds in testdata/fuzz/FuzzH1Request are the
// request shapes the benchmark's load generator and the router's
// forwarder write, plus one of each refused class.
func FuzzH1Request(f *testing.F) {
	f.Add([]byte("POST /v2/ec2?Action=DescribeVpcs HTTP/1.1\r\nHost: 127.0.0.1:4566\r\nX-LCE-Session: s00\r\nContent-Type: application/json\r\nContent-Length: 2\r\n\r\n{}"))
	f.Fuzz(func(t *testing.T, data []byte) {
		c, got, n, v := acceptBytes(data)
		if v != accepted {
			if rest, _ := io.ReadAll(c.br); !bytes.Equal(rest, data) {
				t.Fatalf("verdict %d consumed bytes: %q left of %q", v, rest, data)
			}
			return
		}
		theirs := bufio.NewReader(bytes.NewReader(data))
		want, err := http.ReadRequest(theirs)
		if err != nil {
			t.Fatalf("front accepted a head net/http refuses (%v): %q", err, data[:n])
		}
		if got.Method != want.Method || got.RequestURI != want.RequestURI || got.Host != want.Host ||
			got.Proto != want.Proto || got.ContentLength != want.ContentLength || got.Close != want.Close {
			t.Fatalf("request line or framing differ:\nfront    %s %q %q %s cl=%d close=%v\nnet/http %s %q %q %s cl=%d close=%v",
				got.Method, got.RequestURI, got.Host, got.Proto, got.ContentLength, got.Close,
				want.Method, want.RequestURI, want.Host, want.Proto, want.ContentLength, want.Close)
		}
		if !reflect.DeepEqual(got.URL, want.URL) {
			t.Fatalf("URL: front %#v, net/http %#v", got.URL, want.URL)
		}
		if !reflect.DeepEqual(got.Header, want.Header) {
			t.Fatalf("headers: front %q, net/http %q", got.Header, want.Header)
		}
		c.br.Discard(n)
		gotBody, gotErr := io.ReadAll(got.Body)
		wantBody, wantErr := io.ReadAll(want.Body)
		if !bytes.Equal(gotBody, wantBody) || (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("body: front %q (%v), net/http %q (%v)", gotBody, gotErr, wantBody, wantErr)
		}
		gotRest, _ := io.ReadAll(c.br)
		wantRest, _ := io.ReadAll(theirs)
		if !bytes.Equal(gotRest, wantRest) {
			t.Fatalf("next request: front leaves %q, net/http %q", gotRest, wantRest)
		}
	})
}
