package cluster

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"lce/internal/httpapi"
	"lce/internal/obsv"
)

// The data-plane forwarder. The handler goroutine does a forward's
// whole HTTP/1.1 exchange itself, over a keep-alive connection from
// the owning node's pool: write the request head, stream the body,
// flush once, read the answer with http.ReadResponse, copy it out.
// That spares every forward the http.Client round trip — a Request,
// a context, a header map, and two hand-offs to the transport's
// per-connection goroutines. Two rules keep it as safe as the client
// was:
//
//   - Liveness at checkout. A pooled connection the node closed while
//     it sat idle (a restart on the same address, the node's idle
//     timeout) is detected by a non-blocking peek before any byte is
//     written, and replaced with a fresh dial.
//   - No resend. Once a request's bytes reached a socket, a failure is
//     the answer: the node may have applied the call, so it is never
//     retried.
//
// Probes, migration, aggregation and SSE still use the router's
// http.Client.

const (
	// exchangeTimeout bounds one forward's dial and its whole exchange
	// on the connection — the per-request timeout the http.Client
	// carried when it did forwards.
	exchangeTimeout = 30 * time.Second
	// maxIdleConns caps each node's pool of idle connections. A pool
	// only grows to the peak number of concurrent forwards to its node;
	// the cap bounds what a burst leaves open afterwards.
	maxIdleConns = 32
	// maxBufferedBody bounds the request body the router forwards. A
	// body of unknown length is buffered up to it (the router must send
	// a Content-Length), a declared one is cut at it. The node reads at
	// most httpapi.MaxBody bytes of any data-plane body, so one byte
	// beyond keeps an over-long body over-long and the node's answer
	// unchanged; the rest would only sit unread until the node closed
	// the connection under the router's unfinished write.
	maxBufferedBody = httpapi.MaxBody + 1
)

// Header keys as http.Header stores them, so the per-request path
// indexes maps instead of canonicalizing on every Get and Set.
var (
	sessionKey    = http.CanonicalHeaderKey(httpapi.SessionHeader)
	requestIDKey  = http.CanonicalHeaderKey(httpapi.RequestIDHeader)
	traceKey      = http.CanonicalHeaderKey(obsv.TraceHeader)
	apiVersionKey = http.CanonicalHeaderKey(httpapi.APIVersionHeader)
)

const serverTimingKey = "Server-Timing"

// headerValue is h.Get for a key in canonical form.
func headerValue(h http.Header, key string) string {
	if vs := h[key]; len(vs) > 0 {
		return vs[0]
	}
	return ""
}

// hopHeader reports the hop-by-hop headers, which are not forwarded in
// either direction (keys are canonical: the server and ReadResponse
// canonicalize them).
func hopHeader(k string) bool {
	switch k {
	case "Connection", "Keep-Alive", "Transfer-Encoding", "Upgrade":
		return true
	}
	return false
}

// ownRequestHeader reports the request headers the forwarder writes
// itself or must not pass on: the framing ones, and Expect, which the
// router's own server already answered for its client.
func ownRequestHeader(k string) bool {
	switch k {
	case "Host", "Content-Length", "Trailer", "Expect":
		return true
	}
	return hopHeader(k)
}

// upstreamConn is one pooled keep-alive connection to a node.
type upstreamConn struct {
	net.Conn
	br    *bufio.Reader
	bw    *bufio.Writer
	probe *idleProbe
}

// upstream is a node's forwarding endpoint: where to dial, what to
// send as Host, and the pool of idle connections (LIFO, so the warmest
// connection goes out first and surplus ones age out at the bottom).
type upstream struct {
	addr   string // host:port to dial
	host   string // Host header
	prefix string // the node URL's path, prepended to every request URI

	mu      sync.Mutex
	idle    []*upstreamConn
	retired bool // the node left: connections close instead of pooling
}

// parse sets the endpoint from a node's base URL. Nodes serve plain
// HTTP/1.1.
func (up *upstream) parse(rawurl string) error {
	u, err := url.Parse(rawurl)
	if err != nil {
		return err
	}
	if u.Scheme != "http" || u.Host == "" {
		return fmt.Errorf("want http://host[:port], got %q", rawurl)
	}
	port := u.Port()
	if port == "" {
		port = "80"
	}
	up.addr = net.JoinHostPort(u.Hostname(), port)
	up.host = u.Host
	up.prefix = strings.TrimRight(u.EscapedPath(), "/")
	return nil
}

// checkout hands out a live connection with the exchange deadline
// armed: the most recently pooled one that passes the liveness peek,
// else a fresh dial.
func (up *upstream) checkout() (*upstreamConn, error) {
	deadline := time.Now().Add(exchangeTimeout)
	for {
		up.mu.Lock()
		n := len(up.idle)
		if n == 0 {
			up.mu.Unlock()
			break
		}
		uc := up.idle[n-1]
		up.idle[n-1] = nil
		up.idle = up.idle[:n-1]
		up.mu.Unlock()
		// The deadline goes on first: the peek is a read, and a read
		// past an expired deadline fails without asking the socket.
		if uc.SetDeadline(deadline) == nil && uc.probe.ok() {
			return uc, nil
		}
		uc.Close()
	}
	c, err := net.DialTimeout("tcp", up.addr, exchangeTimeout)
	if err != nil {
		return nil, err
	}
	if err := c.SetDeadline(deadline); err != nil {
		c.Close()
		return nil, err
	}
	return &upstreamConn{Conn: c, br: bufio.NewReader(c), bw: bufio.NewWriter(c), probe: newIdleProbe(c)}, nil
}

// checkin returns a connection whose last answer was read to its end.
func (up *upstream) checkin(uc *upstreamConn) {
	up.mu.Lock()
	if !up.retired && len(up.idle) < maxIdleConns {
		up.idle = append(up.idle, uc)
		up.mu.Unlock()
		return
	}
	up.mu.Unlock()
	uc.Close()
}

// retire closes the idle connections and stops pooling new ones.
func (up *upstream) retire() {
	up.mu.Lock()
	idle := up.idle
	up.idle, up.retired = nil, true
	up.mu.Unlock()
	for _, uc := range idle {
		uc.Close()
	}
}

// clientBodyError is a failure to read the client's request body — it
// hung up, or sent fewer bytes than it declared. It is the client's
// fault, so it never counts against the node.
type clientBodyError struct{ err error }

func (e *clientBodyError) Error() string { return "cannot read request body: " + e.err.Error() }

// exchange sends r to the node and reads the answer's head. The caller
// owns uc until it has consumed resp.Body, then checks it back in or
// closes it (resp.Close says close). Every failure after checkout
// closes the connection; none is retried.
func (up *upstream) exchange(r *http.Request, reqID string, fsp *obsv.Span) (*upstreamConn, *http.Response, error) {
	body, n := io.Reader(r.Body), min(r.ContentLength, maxBufferedBody)
	if n < 0 {
		b, err := io.ReadAll(io.LimitReader(r.Body, maxBufferedBody))
		if err != nil {
			return nil, nil, &clientBodyError{err}
		}
		body, n = bytes.NewReader(b), int64(len(b))
	}
	uc, err := up.checkout()
	if err != nil {
		return nil, nil, err
	}
	up.writeHead(uc.bw, r, n, reqID, fsp)
	werr := copyBody(uc.bw, body, n)
	if cbe, ok := werr.(*clientBodyError); ok {
		// The node still waits for the rest of the body: there is no
		// answer to read.
		uc.Close()
		return nil, nil, cbe
	}
	if werr == nil {
		werr = uc.bw.Flush()
	}
	// A node may answer before it has read the whole body and close the
	// connection under the write. Its answer is then the exchange's
	// outcome, as it would be for a client talking to it directly; only
	// when there is none is the write failure.
	resp, err := http.ReadResponse(uc.br, r)
	if err != nil {
		uc.Close()
		if werr != nil {
			err = werr
		}
		return nil, nil, err
	}
	if werr != nil {
		resp.Close = true
	}
	return uc, resp, nil
}

// writeHead writes the request line and headers: Host and
// Content-Length of its own, then the client's headers minus the
// hop-by-hop and framing ones, then the request ID (unless the client
// sent one) and, when the hop is traced, X-LCE-Trace in place of any
// client-sent value — the node must parent under this hop. Write
// errors stick in bw and surface at its flush.
func (up *upstream) writeHead(bw *bufio.Writer, r *http.Request, n int64, reqID string, fsp *obsv.Span) {
	bw.WriteString(r.Method)
	bw.WriteByte(' ')
	bw.WriteString(up.prefix)
	bw.WriteString(r.URL.EscapedPath())
	if r.URL.ForceQuery || r.URL.RawQuery != "" {
		bw.WriteByte('?')
		bw.WriteString(r.URL.RawQuery)
	}
	bw.WriteString(" HTTP/1.1\r\nHost: ")
	bw.WriteString(up.host)
	bw.WriteString("\r\nContent-Length: ")
	bw.Write(strconv.AppendInt(bw.AvailableBuffer(), n, 10))
	bw.WriteString("\r\n")
	mintedID := headerValue(r.Header, requestIDKey) == ""
	for k, vs := range r.Header {
		if ownRequestHeader(k) || (k == requestIDKey && mintedID) || (k == traceKey && fsp != nil) {
			continue
		}
		for _, v := range vs {
			writeField(bw, k, v)
		}
	}
	if mintedID {
		writeField(bw, requestIDKey, reqID)
	}
	if fsp != nil {
		writeField(bw, traceKey, fsp.SpanContext().String())
	}
	bw.WriteString("\r\n")
}

func writeField(bw *bufio.Writer, k, v string) {
	bw.WriteString(k)
	bw.WriteString(": ")
	bw.WriteString(v)
	bw.WriteString("\r\n")
}

// copyBody streams exactly n bytes of the client's body into bw's own
// buffer, flushing as it fills. A read failure comes back as a
// clientBodyError; a write failure is the node connection's.
func copyBody(bw *bufio.Writer, body io.Reader, n int64) error {
	for n > 0 {
		if bw.Available() == 0 {
			if err := bw.Flush(); err != nil {
				return err
			}
		}
		buf := bw.AvailableBuffer()
		buf = buf[:min(int64(cap(buf)), n)]
		k, err := body.Read(buf)
		bw.Write(buf[:k])
		n -= int64(k)
		if err != nil && (err != io.EOF || n > 0) {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return &clientBodyError{err}
		}
	}
	return nil
}

// copyBufPool holds the buffers answers are copied to clients through.
var copyBufPool = sync.Pool{New: func() any {
	b := make([]byte, 8<<10)
	return &b
}}

// copyAnswer streams the node's body to the client and reports whether
// it was read to its end — the condition for pooling the connection. A
// client that stopped reading leaves it unread.
func copyAnswer(w io.Writer, body io.Reader) bool {
	bufp := copyBufPool.Get().(*[]byte)
	defer copyBufPool.Put(bufp)
	buf := *bufp
	for {
		n, err := body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return false
			}
		}
		if err == io.EOF {
			return true
		}
		if err != nil {
			return false
		}
	}
}
