package lce

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"lce/internal/h1"
	"lce/internal/leakcheck"
)

// TestFrontWireParity is the raw-socket differential between the two
// ways a process can listen: the HTTP/1.1 front ListenAndServe runs,
// and the plain http.Server with the same handler and timeouts that
// served before it. Identical stacks — a node, and a router over two
// nodes — are driven through each with the same request shapes in the
// same order, and every answer must match byte for byte after masking
// what differs between two runs of one server (Date, Server-Timing
// durations, the /healthz SLO latency fields). The one deliberate
// difference is framing: an answer over 2 KiB carries Content-Length
// on the front where net/http chunks it, with the same status, headers
// and body.
func TestFrontWireParity(t *testing.T) {
	leakcheck.Check(t)
	for _, routed := range []bool{false, true} {
		name := "direct"
		if routed {
			name = "routed"
		}
		t.Run(name, func(t *testing.T) {
			plain, front := paritySide(t, routed, false), paritySide(t, routed, true)
			for _, s := range wireShapes() {
				want, got := s.exchange(t, plain), s.exchange(t, front)
				if s.framing {
					want, got = normalizeFraming(t, want), normalizeFraming(t, got)
				}
				if !bytes.Equal(want, got) {
					t.Errorf("%s: answers differ\nnet/http: %q\nfront:    %q", s.name, want, got)
				}
			}
		})
	}
}

// paritySide serves one stack — a node, or a router over two nodes —
// and returns the address clients call.
func paritySide(t *testing.T, routed, front bool) string {
	node := func(name string) string {
		srv, err := NewServer(ServerConfig{Service: "ec2", Backend: "oracle", TraceSeed: 1, Node: name,
			Sessions: 64, Shards: 8, SessionTTL: 15 * time.Minute, Ops: true})
		if err != nil {
			t.Fatal(err)
		}
		return listenWith(t, srv.Handler, front)
	}
	if !routed {
		return node("")
	}
	var members []ClusterNode
	for _, name := range []string{"n1", "n2"} {
		members = append(members, ClusterNode{Name: name, URL: "http://" + node(name)})
	}
	rt, err := NewClusterRouter(ClusterConfig{Nodes: members, ProbeInterval: -1, Obs: NewObs(1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return listenWith(t, rt.Handler(), front)
}

// listenWith serves h on a loopback port through the front, or through
// the http.Server the front hands its refused connections to.
func listenWith(t *testing.T, h http.Handler, front bool) string {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var srv interface {
		Serve(net.Listener) error
		Close() error
	} = &http.Server{Handler: h, ReadHeaderTimeout: headerReadTimeout, IdleTimeout: idleConnTimeout}
	if front {
		srv = h1.New(h, headerReadTimeout, idleConnTimeout)
	}
	done := make(chan struct{})
	go func() { srv.Serve(ln); close(done) }()
	t.Cleanup(func() { srv.Close(); <-done })
	return ln.Addr().String()
}

// wireShape is one connection's worth of request bytes, written in
// chunks 20 ms apart, and what to read back: answers responses (1xx
// included), then whether the server closes the connection.
type wireShape struct {
	name    string
	chunks  []string
	answers int
	closes  bool
	head    bool // the request is a HEAD: its answers carry no body
	framing bool // an answer is over 2 KiB: compare it unframed
}

func shapePost(path, session, body string, extra ...string) string {
	s := "POST " + path + " HTTP/1.1\r\nHost: h\r\n"
	if session != "" {
		s += "X-LCE-Session: " + session + "\r\n"
	}
	for _, e := range extra {
		s += e + "\r\n"
	}
	return s + "Content-Type: application/json\r\nContent-Length: " + strconv.Itoa(len(body)) + "\r\n\r\n" + body
}

// wireShapes covers the fast path (single, pipelined, split, unread
// bodies, header spellings), every class of request the front hands to
// net/http, and malformed input. Shapes run in order and share
// sessions, so each stack's state evolves identically.
func wireShapes() []wireShape {
	const vpc = `{"params":{"cidrBlock":"10.0.0.0/16"}}`
	var twelve string
	for i := 0; i < 12; i++ {
		twelve += shapePost("/v2/ec2?Action=CreateVpc", "big", fmt.Sprintf(`{"params":{"cidrBlock":"10.%d.0.0/16"}}`, i))
	}
	const describe = "POST /v2/ec2?Action=DescribeVpcs HTTP/1.1\r\n"
	one := func(name, raw string) wireShape { return wireShape{name: name, chunks: []string{raw}, answers: 1} }
	bad := func(name, raw string) wireShape {
		return wireShape{name: name, chunks: []string{raw}, answers: 1, closes: true}
	}
	return []wireShape{
		one("create", shapePost("/v2/ec2?Action=CreateVpc", "alice", vpc)),
		one("describe", shapePost("/v2/ec2?Action=DescribeVpcs", "alice", `{}`)),
		one("action in body", shapePost("/v2/ec2", "alice", `{"action":"DescribeVpcs","params":{}}`)),
		one("reset 204", shapePost("/v2/ec2/reset", "alice", ``)),
		one("batch", shapePost("/v2/ec2/batch", "alice", `{"mode":"best-effort","requests":[{"action":"CreateVpc","params":{"cidrBlock":"10.1.0.0/16"}},{"action":"CreateVpc","params":{"cidrBlock":"10.0.0.0/8"}}]}`)),
		one("headerless", shapePost("/v2/ec2?Action=CreateVpc", "", vpc)),
		one("client request id", shapePost("/v2/ec2?Action=DescribeVpcs", "alice", `{}`, "X-LCE-Request-Id: my-id-1")),
		one("long request id", shapePost("/v2/ec2?Action=DescribeVpcs", "alice", `{}`, "X-LCE-Request-Id: "+strings.Repeat("r", 127)+"é")),
		one("unknown action", shapePost("/v2/ec2?Action=NoSuchThing", "alice", `{}`)),
		one("malformed json", shapePost("/v2/ec2?Action=CreateVpc", "alice", `{"params":`)),
		one("unknown service", shapePost("/v2/s3?Action=ListBuckets", "alice", `{}`)),
		one("no route", shapePost("/v2/ec2/nope/deeper", "alice", `{"x":1}`)),
		one("bare /v2/", "POST /v2/ HTTP/1.1\r\nHost: h\r\n\r\n"),
		one("dot segments", "POST /v2/../v2/ec2?Action=DescribeVpcs HTTP/1.1\r\nHost: h\r\nContent-Length: 2\r\n\r\n{}"),
		one("encoded query", shapePost("/v2/ec2?Action=Describe%56pcs&x=%20y", "alice", `{}`)),
		one("Content-Length 0", describe+"Host: h\r\nContent-Length: 0\r\n\r\n"),
		one("no Content-Length", describe+"Host: h\r\n\r\n"),
		one("lowercase names", describe+"host: h\r\nx-lce-session: alice\r\ncontent-length: 2\r\n\r\n{}"),
		one("padded values", describe+"Host:   h  \r\nX-LCE-Session:alice   \r\nContent-Length:  2\r\n\r\n{}"),
		one("repeated header", shapePost("/v2/ec2?Action=DescribeVpcs", "alice", `{}`, "X-Foo: 1", "X-Foo: 2")),
		one("trace header", shapePost("/v2/ec2?Action=DescribeVpcs", "alice", `{}`, "X-LCE-Trace: 00-0123456789abcdef0123456789abcdef-0123456789abcdef-01")),
		{name: "pipelined", chunks: []string{shapePost("/v2/ec2/reset", "bob", ``) + shapePost("/v2/ec2?Action=CreateVpc", "bob", vpc) + shapePost("/v2/ec2?Action=DescribeVpcs", "bob", `{}`)}, answers: 3},
		{name: "split head", chunks: []string{"POST /v2/ec2?Action=Descr", "ibeVpcs HTTP/1.1\r\nHost: h\r\nX-LCE-Session: bob\r\nContent-Le", "ngth: 2\r\n\r\n{", "}"}, answers: 1},
		{name: "12 creates", chunks: []string{twelve}, answers: 12},
		{name: "answer over 2 KiB", chunks: []string{shapePost("/v2/ec2?Action=DescribeVpcs", "big", `{}`)}, answers: 1, framing: true},
		{name: "unread body", chunks: []string{shapePost("/v2/ec2/x/y/z", "alice", strings.Repeat("a", 5000)) + shapePost("/v2/ec2?Action=DescribeVpcs", "alice", `{}`)}, answers: 2},
		{name: "unread body over 256 KiB", chunks: []string{shapePost("/v2/ec2/x/y/z", "alice", strings.Repeat("b", 300<<10)) + shapePost("/v2/ec2?Action=DescribeVpcs", "alice", `{}`)}, answers: 1, closes: true},
		one("GET /healthz", "GET /healthz HTTP/1.1\r\nHost: h\r\n\r\n"),
		one("GET /actions", "GET /actions HTTP/1.1\r\nHost: h\r\n\r\n"),
		one("GET /v2/sessions", "GET /v2/sessions HTTP/1.1\r\nHost: h\r\n\r\n"),
		{name: "HEAD", chunks: []string{"HEAD /v2/sessions HTTP/1.1\r\nHost: h\r\n\r\n"}, answers: 1, head: true},
		bad("HTTP/1.0", "POST /v2/ec2?Action=DescribeVpcs HTTP/1.0\r\nHost: h\r\nX-LCE-Session: alice\r\nContent-Length: 2\r\n\r\n{}"),
		one("chunked", describe+"Host: h\r\nX-LCE-Session: alice\r\nTransfer-Encoding: chunked\r\n\r\n2\r\n{}\r\n0\r\n\r\n"),
		{name: "Expect", chunks: []string{describe + "Host: h\r\nX-LCE-Session: alice\r\nExpect: 100-continue\r\nContent-Length: 2\r\n\r\n", "{}"}, answers: 2},
		bad("Connection: close", shapePost("/v2/ec2?Action=DescribeVpcs", "alice", `{}`, "Connection: close")),
		one("Connection: keep-alive", shapePost("/v2/ec2?Action=DescribeVpcs", "alice", `{}`, "Connection: keep-alive")),
		one("retired /invoke", shapePost("/invoke?Action=DescribeVpcs", "alice", `{}`)),
		one("Transfer-Encoding and Content-Length", describe+"Host: h\r\nTransfer-Encoding: chunked\r\nContent-Length: 2\r\n\r\n2\r\n{}\r\n0\r\n\r\n"),
		one("Pragma", shapePost("/v2/ec2?Action=DescribeVpcs", "alice", `{}`, "Pragma: no-cache")),
		one("absolute-form target", "POST http://h/v2/ec2?Action=DescribeVpcs HTTP/1.1\r\nHost: h\r\nX-LCE-Session: alice\r\nContent-Length: 2\r\n\r\n{}"),
		one("head over 4 KiB", shapePost("/v2/ec2?Action=DescribeVpcs", "alice", `{}`, "X-Pad: "+strings.Repeat("p", 5000))),
		one("body over MaxBody", "POST /v2/ec2?Action=CreateVpc HTTP/1.1\r\nHost: h\r\nContent-Length: 1048577\r\n\r\n"+strings.Repeat(" ", 1048577)),
		{name: "handoff mid-connection", chunks: []string{shapePost("/v2/ec2?Action=DescribeVpcs", "alice", `{}`) + "GET /healthz HTTP/1.1\r\nHost: h\r\n\r\n" +
			describe + "Host: h\r\nX-LCE-Session: alice\r\nTransfer-Encoding: chunked\r\n\r\n2\r\n{}\r\n0\r\n\r\n" + shapePost("/v2/ec2?Action=DescribeVpcs", "alice", `{}`)}, answers: 4},
		bad("garbage", "GARBAGE\r\n\r\n"),
		bad("missing Host", describe+"Content-Length: 2\r\n\r\n{}"),
		bad("two Hosts", describe+"Host: a\r\nHost: b\r\nContent-Length: 2\r\n\r\n{}"),
		bad("bad Host", describe+"Host: a b\r\nContent-Length: 2\r\n\r\n{}"),
		one("bare LF", "POST /v2/ec2?Action=DescribeVpcs HTTP/1.1\nHost: h\nContent-Length: 2\n\n{}"),
		bad("space before colon", describe+"Host: h\r\nX-Foo : 1\r\nContent-Length: 2\r\n\r\n{}"),
		bad("bad Content-Length", describe+"Host: h\r\nContent-Length: abc\r\n\r\n{}"),
		bad("two Content-Lengths", describe+"Host: h\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\n{}"),
		bad("control character", describe+"Host: h\r\nX-Foo: a\x01b\r\nContent-Length: 2\r\n\r\n{}"),
		bad("non-token name", describe+"Host: h\r\nX(Foo): 1\r\nContent-Length: 2\r\n\r\n{}"),
		one("tab in value", describe+"Host: h\r\nX-Foo:\tbar\r\nContent-Length: 2\r\n\r\n{}"),
		one("obs-fold", describe+"Host: h\r\nX-Foo: a\r\n  b\r\nContent-Length: 2\r\n\r\n{}"),
		bad("space in target", "POST /v2/ec2?Action=Describe Vpcs HTTP/1.1\r\nHost: h\r\nContent-Length: 2\r\n\r\n{}"),
		one("HTTP/1.2", "POST /v2/ec2?Action=DescribeVpcs HTTP/1.2\r\nHost: h\r\nContent-Length: 2\r\n\r\n{}"),
	}
}

var (
	maskDate   = regexp.MustCompile(`(?m)^Date: [^\r]*\r$`)
	maskTiming = regexp.MustCompile(`dur=[0-9.]+`)
	// The /healthz SLO section reports measured latencies and names the
	// slowest phase; its length moves with them.
	maskSLO    = regexp.MustCompile(`"(p99|burn)":\s*[0-9.e+-]+|"worst":\{[^}]*\}`)
	maskLength = regexp.MustCompile(`(?m)^Content-Length: [0-9]+\r$`)
)

// exchange runs the shape on a fresh connection and returns every byte
// the server sent, masked, ending in "<closed>" if it closed the
// connection.
func (s wireShape) exchange(t *testing.T, addr string) []byte {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	go func() {
		for i, chunk := range s.chunks {
			if i > 0 {
				time.Sleep(20 * time.Millisecond)
			}
			if _, err := io.WriteString(c, chunk); err != nil {
				return // the server may close before reading everything
			}
		}
	}()
	var raw bytes.Buffer
	br := bufio.NewReader(io.TeeReader(c, &raw))
	c.SetReadDeadline(time.Now().Add(10 * time.Second))
	req := &http.Request{Method: http.MethodPost}
	if s.head {
		req.Method = http.MethodHead
	}
	for i := 0; i < s.answers; i++ {
		resp, err := http.ReadResponse(br, req)
		if err != nil {
			t.Fatalf("%s: answer %d: %v after %q", s.name, i, err, raw.Bytes())
		}
		io.Copy(io.Discard, resp.Body)
	}
	if s.closes {
		if _, err := br.ReadByte(); err != io.EOF {
			t.Fatalf("%s: connection not closed (%v) after %q", s.name, err, raw.Bytes())
		}
		raw.WriteString("<closed>")
	}
	out := maskTiming.ReplaceAll(maskDate.ReplaceAll(raw.Bytes(), []byte("Date: -\r")), []byte("dur=-"))
	if maskSLO.Match(out) {
		out = maskLength.ReplaceAll(maskSLO.ReplaceAll(out, []byte("-")), []byte("Content-Length: -\r"))
	}
	return out
}

// normalizeFraming re-renders a run of masked answers with each body
// unframed, so chunked and Content-Length framing of one body compare
// equal.
func normalizeFraming(t *testing.T, b []byte) []byte {
	t.Helper()
	br := bufio.NewReader(bytes.NewReader(b))
	var out bytes.Buffer
	for {
		if _, err := br.Peek(1); err != nil {
			return out.Bytes()
		}
		resp, err := http.ReadResponse(br, nil)
		if err != nil {
			t.Fatalf("re-reading %q: %v", b, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Header.Del("Content-Length")
		fmt.Fprintf(&out, "%s\n", resp.Status)
		resp.Header.Write(&out)
		fmt.Fprintf(&out, "\n%s\n", body)
	}
}
