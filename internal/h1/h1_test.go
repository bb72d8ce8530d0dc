package h1

import (
	"bufio"
	"errors"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"lce/internal/httpapi"
	"lce/internal/leakcheck"
)

func TestMaxBodyIsHTTPAPIMaxBody(t *testing.T) {
	if maxBody != httpapi.MaxBody {
		t.Fatalf("maxBody = %d, httpapi.MaxBody = %d", maxBody, httpapi.MaxBody)
	}
}

// start serves h through a front on a loopback port with the given
// timeouts and returns the address; the front closes with the test.
func start(t testing.TB, h http.Handler, headerTimeout, idleTimeout time.Duration) (*Server, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := New(h, headerTimeout, idleTimeout)
	done := make(chan error, 1)
	go func() { done <- s.Serve(ln) }()
	t.Cleanup(func() {
		s.Close()
		if err := <-done; err != http.ErrServerClosed {
			t.Errorf("Serve returned %v, want http.ErrServerClosed", err)
		}
	})
	return s, ln.Addr().String()
}

// pathHandler answers every request with which server ran it ("front"
// or "net/http"), its method and path, and the body it read.
func pathHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b, _ := io.ReadAll(r.Body)
		via := "net/http"
		if _, ok := w.(*response); ok {
			via = "front"
		}
		w.Header().Set("Content-Type", "text/plain")
		io.WriteString(w, via+" "+r.Method+" "+r.URL.Path+" "+string(b))
	})
}

type client struct {
	t  testing.TB
	c  net.Conn
	br *bufio.Reader
}

func dial(t testing.TB, addr string) *client {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return &client{t: t, c: c, br: bufio.NewReader(c)}
}

func (c *client) send(s string) {
	c.t.Helper()
	if _, err := io.WriteString(c.c, s); err != nil {
		c.t.Fatal(err)
	}
}

// read returns the next answer's status, headers and body.
func (c *client) read() (*http.Response, string) {
	c.t.Helper()
	c.c.SetReadDeadline(time.Now().Add(5 * time.Second))
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		c.t.Fatal(err)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		c.t.Fatal(err)
	}
	return resp, string(b)
}

// closedWithin reports whether the server closes the connection within
// d, having sent nothing more.
func (c *client) closedWithin(d time.Duration) bool {
	c.t.Helper()
	c.c.SetReadDeadline(time.Now().Add(d))
	n, err := c.br.Read(make([]byte, 1))
	if n > 0 {
		c.t.Fatalf("unexpected byte from server")
	}
	return errors.Is(err, io.EOF)
}

func post(path, body string) string {
	return "POST " + path + " HTTP/1.1\r\nHost: h\r\nContent-Length: " + strconv.Itoa(len(body)) + "\r\n\r\n" + body
}

// TestHandoffMidConnection: a fast POST, then a GET, a chunked POST and
// another fast POST on one socket, pipelined: all four are answered in
// order, the first by the front and the rest by net/http, which keeps
// the connection once it has it.
func TestHandoffMidConnection(t *testing.T) {
	leakcheck.Check(t)
	_, addr := start(t, pathHandler(), time.Second, time.Second)
	c := dial(t, addr)
	c.send(post("/v2/a", "one") +
		"GET /metrics HTTP/1.1\r\nHost: h\r\n\r\n" +
		"POST /v2/b HTTP/1.1\r\nHost: h\r\nTransfer-Encoding: chunked\r\n\r\n3\r\ntwo\r\n0\r\n\r\n" +
		post("/v2/c", "three"))
	for _, want := range []string{
		"front POST /v2/a one",
		"net/http GET /metrics ",
		"net/http POST /v2/b two",
		"net/http POST /v2/c three",
	} {
		if _, got := c.read(); got != want {
			t.Fatalf("got %q, want %q", got, want)
		}
	}
}

// TestFastKeepAlive: fast requests, pipelined and sequential, stay on
// the front and on one connection.
func TestFastKeepAlive(t *testing.T) {
	leakcheck.Check(t)
	_, addr := start(t, pathHandler(), time.Second, time.Second)
	c := dial(t, addr)
	c.send(post("/v2/a", "1") + post("/v2/b", ""))
	for _, want := range []string{"front POST /v2/a 1", "front POST /v2/b "} {
		if _, got := c.read(); got != want {
			t.Fatalf("got %q, want %q", got, want)
		}
	}
	// A head split across writes is still taken.
	c.send("POST /v2/c HTT")
	time.Sleep(20 * time.Millisecond)
	c.send("P/1.1\r\nHost: h\r\nContent-Len")
	time.Sleep(20 * time.Millisecond)
	c.send("gth: 2\r\n\r\nxy")
	if _, got := c.read(); got != "front POST /v2/c xy" {
		t.Fatalf("split head answered %q", got)
	}
}

// TestAnswerFraming checks the answer rules the front keeps from
// net/http: Date, sniffed Content-Type, Content-Length, the 204 rules,
// the header snapshot at WriteHeader, and the one deliberate change —
// an answer over 2 KiB keeps Content-Length framing.
func TestAnswerFraming(t *testing.T) {
	leakcheck.Check(t)
	big := strings.Repeat("x", 5000)
	_, addr := start(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v2/sniff":
			io.WriteString(w, "<html>hi</html>")
		case "/v2/snapshot":
			w.Header().Set("X-Before", "1")
			w.WriteHeader(http.StatusTeapot)
			w.Header().Set("X-After", "1")
			io.WriteString(w, "{}")
		case "/v2/nocontent":
			w.Header().Set("Content-Length", "7")
			w.WriteHeader(http.StatusNoContent)
			if _, err := io.WriteString(w, "body"); err != http.ErrBodyNotAllowed {
				t.Errorf("write to a 204: %v, want ErrBodyNotAllowed", err)
			}
		case "/v2/big":
			w.Header().Set("Content-Type", "text/plain")
			io.WriteString(w, big)
		}
	}), time.Second, time.Second)
	c := dial(t, addr)

	c.send(post("/v2/sniff", ""))
	resp, body := c.read()
	if ct := resp.Header.Get("Content-Type"); ct != "text/html; charset=utf-8" || body != "<html>hi</html>" {
		t.Errorf("sniffed answer: Content-Type %q, body %q", ct, body)
	}
	if _, err := http.ParseTime(resp.Header.Get("Date")); err != nil {
		t.Errorf("Date: %v", err)
	}
	if resp.ContentLength != int64(len(body)) {
		t.Errorf("ContentLength = %d, want %d", resp.ContentLength, len(body))
	}

	c.send(post("/v2/snapshot", ""))
	resp, _ = c.read()
	if resp.StatusCode != http.StatusTeapot || resp.Header.Get("X-Before") != "1" || resp.Header.Get("X-After") != "" {
		t.Errorf("snapshot: status %d, headers %v", resp.StatusCode, resp.Header)
	}

	c.send(post("/v2/nocontent", ""))
	resp, body = c.read()
	if resp.StatusCode != http.StatusNoContent || resp.Header.Get("Content-Length") != "" || body != "" {
		t.Errorf("204: headers %v, body %q", resp.Header, body)
	}

	c.send(post("/v2/big", ""))
	resp, body = c.read()
	if resp.ContentLength != int64(len(big)) || len(resp.TransferEncoding) != 0 || body != big {
		t.Errorf("big answer: ContentLength %d, TransferEncoding %v, %d body bytes", resp.ContentLength, resp.TransferEncoding, len(body))
	}
}

// TestUnreadBody: a body the handler leaves is drained when small, so
// the connection carries on; one of 256 KiB or more closes the
// connection after an answer that says so.
func TestUnreadBody(t *testing.T) {
	leakcheck.Check(t)
	_, addr := start(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, r.URL.Path)
	}), time.Second, time.Second)
	c := dial(t, addr)
	c.send(post("/v2/small", strings.Repeat("s", 10000)) + post("/v2/next", ""))
	for _, want := range []string{"/v2/small", "/v2/next"} {
		if resp, got := c.read(); got != want || resp.Close {
			t.Fatalf("got %q (close %v), want %q on a kept connection", got, resp.Close, want)
		}
	}
	// The server does not read this body, so it may not all fit in the
	// socket buffers: write it from the side.
	go io.WriteString(c.c, post("/v2/large", strings.Repeat("l", maxDrain)))
	if resp, _ := c.read(); !resp.Close {
		t.Fatalf("a %d-byte unread body kept the connection", maxDrain)
	}
	if !c.closedWithin(2 * time.Second) {
		t.Fatal("connection open after Connection: close")
	}
}

// TestPanicClosesConnection: a panicking handler's connection closes
// without an answer, and the front keeps serving others.
func TestPanicClosesConnection(t *testing.T) {
	leakcheck.Check(t)
	_, addr := start(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v2/panic" {
			io.WriteString(w, "partial")
			panic(http.ErrAbortHandler)
		}
		io.WriteString(w, "ok")
	}), time.Second, time.Second)
	c := dial(t, addr)
	c.send(post("/v2/panic", ""))
	if !c.closedWithin(2 * time.Second) {
		t.Fatal("connection of a panicking handler stayed open")
	}
	c = dial(t, addr)
	c.send(post("/v2/fine", ""))
	if _, got := c.read(); got != "ok" {
		t.Fatalf("after a panic: %q", got)
	}
}

// TestCloseClosesEverything: Close ends fast and handed-off
// connections alike, and Serve returns http.ErrServerClosed (start's
// cleanup checks that).
func TestCloseClosesEverything(t *testing.T) {
	leakcheck.Check(t)
	s, addr := start(t, pathHandler(), time.Minute, time.Minute)
	fast, slow := dial(t, addr), dial(t, addr)
	fast.send(post("/v2/a", ""))
	fast.read()
	slow.send("GET /x HTTP/1.1\r\nHost: h\r\n\r\n")
	slow.read()
	s.Close()
	for name, c := range map[string]*client{"fast": fast, "handed off": slow} {
		if !c.closedWithin(2 * time.Second) {
			t.Errorf("%s connection open after Close", name)
		}
	}
	if _, err := net.Dial("tcp", addr); err == nil {
		t.Error("listener still accepts after Close")
	}
}

// TestBodyRead: the body yields exactly the declared bytes, the last
// ones with io.EOF, and reads after Close fail as net/http's do.
func TestBodyRead(t *testing.T) {
	b := &body{br: bufio.NewReader(strings.NewReader("hello, next request")), n: 5}
	p := make([]byte, 16)
	n, err := b.Read(p)
	if string(p[:n]) != "hello" || err != io.EOF {
		t.Fatalf("Read = %q, %v", p[:n], err)
	}
	b.Close()
	if _, err := b.Read(p); err != http.ErrBodyReadAfterClose {
		t.Fatalf("Read after Close: %v", err)
	}
	short := &body{br: bufio.NewReader(strings.NewReader("hi")), n: 5}
	if got, err := io.ReadAll(short); string(got) != "hi" || err != io.ErrUnexpectedEOF {
		t.Fatalf("short body: %q, %v", got, err)
	}
}
