package lce

import (
	"bufio"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"lce/internal/h1"
	"lce/internal/leakcheck"
)

// Shrunken stand-ins for headerReadTimeout and idleConnTimeout, so each
// listener behaviour below is observed in about a second. The idle
// timeout is the longer one, as in production, and far enough apart
// that a busy machine cannot make one look like the other.
const (
	testHeaderTimeout = 100 * time.Millisecond
	testIdleTimeout   = time.Second
)

// startListener serves a full node stack (ops plane on, so
// /debug/events exists) through the front ListenAndServe runs, with
// the shrunken timeouts.
func startListener(t *testing.T) string {
	t.Helper()
	srv, err := NewServer(ServerConfig{Service: "ec2", Backend: "oracle", TraceSeed: 1, Ops: true})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	front := h1.New(srv.Handler, testHeaderTimeout, testIdleTimeout)
	done := make(chan struct{})
	go func() { front.Serve(ln); close(done) }()
	t.Cleanup(func() { front.Close(); <-done })
	return ln.Addr().String()
}

type peer struct {
	t  *testing.T
	c  net.Conn
	br *bufio.Reader
}

func connect(t *testing.T, addr string) *peer {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return &peer{t: t, c: c, br: bufio.NewReader(c)}
}

func (p *peer) send(s string) {
	p.t.Helper()
	if _, err := io.WriteString(p.c, s); err != nil {
		p.t.Fatal(err)
	}
}

func (p *peer) answer() int {
	p.t.Helper()
	p.c.SetReadDeadline(time.Now().Add(5 * time.Second))
	resp, err := http.ReadResponse(p.br, nil)
	if err != nil {
		p.t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode
}

// closedAfter waits for the server to close the connection and returns
// how long that took and what it sent before closing, failing if it
// stays open for 3 s.
func (p *peer) closedAfter() (time.Duration, string) {
	p.t.Helper()
	start := time.Now()
	p.c.SetReadDeadline(start.Add(3 * time.Second))
	last, err := io.ReadAll(p.br)
	if err != nil {
		p.t.Fatalf("read %v, want the server to close the connection", err)
	}
	return time.Since(start), string(last)
}

const fastCall = "POST /v2/ec2?Action=DescribeVpcs HTTP/1.1\r\nHost: h\r\nContent-Length: 2\r\n\r\n{}"

// TestListenerTimeouts: every listener bounds how long a peer may take
// over a head and how long an idle connection is kept, and never bounds
// a whole request or response — the SSE stream and the pprof profile
// routes are long-lived by design. Each rule is observed on the wire,
// on the front and after a handoff to net/http.
func TestListenerTimeouts(t *testing.T) {
	leakcheck.Check(t)
	addr := startListener(t)
	t.Run("header", func(t *testing.T) { checkHeaderTimeout(t, addr) })
	t.Run("idle", func(t *testing.T) { checkIdleTimeout(t, addr) })
	t.Run("stream", func(t *testing.T) { checkStreamOutlivesTimeouts(t, addr) })
}

// checkHeaderTimeout: a peer that starts a head and stalls is closed
// once the header timeout has passed, whether the head is one the front
// would serve or one it hands to net/http, and whether it is a
// connection's first head or a later one. The last word is net/http's
// own for a head cut short, a 400.
func checkHeaderTimeout(t *testing.T, addr string) {
	for name, prefix := range map[string]string{
		"fast head":            "POST /v2/ec2?Action=Descr",
		"handed-off head":      "GET /heal",
		"head after an answer": fastCall,
	} {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			p := connect(t, addr)
			head := prefix
			if prefix == fastCall {
				p.send(fastCall)
				if code := p.answer(); code != http.StatusOK {
					t.Fatalf("first call answered %d", code)
				}
				head = "POST /v2/ec2?Action=Descr"
			}
			p.send(head)
			d, last := p.closedAfter()
			if d < testHeaderTimeout*3/4 || d > testIdleTimeout*3/4 {
				t.Errorf("closed %v after a stalled head; header timeout is %v", d, testHeaderTimeout)
			}
			if !strings.HasPrefix(last, "HTTP/1.1 400 Bad Request\r\n") {
				t.Errorf("stalled head answered %q, want net/http's 400", last)
			}
		})
	}
}

// checkIdleTimeout: an idle keep-alive connection outlives the header
// timeout and is closed at the idle timeout, on the front and after a
// handoff to net/http alike.
func checkIdleTimeout(t *testing.T, addr string) {
	for name, call := range map[string]string{
		"fast":        fastCall,
		"handed off":  "GET /healthz HTTP/1.1\r\nHost: h\r\n\r\n",
		"after a mix": fastCall + "GET /healthz HTTP/1.1\r\nHost: h\r\n\r\n",
	} {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			p := connect(t, addr)
			p.send(call)
			for range strings.Count(call, "HTTP/1.1\r\n") {
				if code := p.answer(); code != http.StatusOK {
					t.Fatalf("answered %d", code)
				}
			}
			d, last := p.closedAfter()
			if d < testIdleTimeout*3/4 || d > 2*testIdleTimeout || last != "" {
				t.Errorf("idle connection closed after %v with %q; idle timeout is %v", d, last, testIdleTimeout)
			}
		})
	}
}

// checkStreamOutlivesTimeouts: a /debug/events stream is cut by
// neither timeout — it stays open well past both and still delivers
// the events a later call publishes.
func checkStreamOutlivesTimeouts(t *testing.T, addr string) {
	sse := connect(t, addr)
	sse.send("GET /debug/events HTTP/1.1\r\nHost: h\r\n\r\n")
	sse.c.SetReadDeadline(time.Now().Add(5 * time.Second))
	resp, err := http.ReadResponse(sse.br, nil)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("subscribe: %v %v", resp, err)
	}
	time.Sleep(2*testIdleTimeout + testHeaderTimeout)

	caller := connect(t, addr)
	caller.send(fastCall)
	caller.answer()
	sc := bufio.NewScanner(resp.Body)
	sse.c.SetReadDeadline(time.Now().Add(3 * time.Second))
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "data: ") {
			return
		}
	}
	t.Fatalf("stream ended without an event: %v", sc.Err())
}
