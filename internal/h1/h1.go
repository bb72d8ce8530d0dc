// Package h1 is the HTTP/1.1 front every server in this repository
// listens through (lce.ListenAndServe): lce-server, lce-router and the
// debug side listener alike.
//
// The front serves the data plane's request shape itself and hands
// every other connection to an http.Server built with the same handler
// and timeouts, on the same socket. A connection's request heads are
// peeked, never consumed, until one is accepted; the first head the
// front refuses goes to net/http with every byte still unread, so
// net/http sees exactly the stream it would have seen alone, and serves
// the rest of that connection.
//
// The fast subset is strict (accept.go has the whole rule): a POST to an
// origin-form target under /v2/ over HTTP/1.1, exactly one Host, at
// most one all-digit Content-Length no larger than httpapi.MaxBody, no
// header that changes framing or connection handling, token header
// names, values without control characters, CRLF line ends, and a head
// that fits in one 4 KiB read buffer. That is every request the
// benchmark's clients and the router's forwarder send, and nothing a
// browser, curl's GETs, an SSE or pprof client, or a chunked or
// Expect: 100-continue upload needs.
//
// On that path the front keeps what net/http does for a handler: a
// fresh *http.Request (URL from url.ParseRequestURI) under a
// per-connection context; response headers snapshotted at WriteHeader;
// Date, Content-Type sniffing and the 204/304 header rules; an unread
// body drained up to 256 KiB after the handler, or else the connection
// closed; a panicking handler logged and its connection closed. It
// differs in one place, on purpose: the whole answer is buffered and
// written at once — head and body in one write — so an answer over
// 2 KiB carries Content-Length where net/http would switch to chunked
// framing. The body bytes are the same.
//
// Timeouts are net/http's: a peer has the header timeout to deliver a
// head (the first from accept, later ones from their first byte), an
// idle connection is closed after the idle timeout, and nothing bounds
// a whole request or response. A connection handed off keeps the
// header deadline the front gave its head — net/http's first read
// deadline is held to it — so no peer gets a second header window. A
// timeout or read error before any byte of a head closes the
// connection; one in the middle of a head hands the bytes to net/http
// with the deadline spent, and net/http answers them at once exactly as
// it would have alone (usually 400 Bad Request) and closes.
package h1

import (
	"bufio"
	"context"
	"errors"
	"log"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

const (
	// bufSize is a connection's read buffer. A head must fit in it to
	// take the fast path.
	bufSize = 4 << 10
	// maxBody bounds the declared body of a fast-path request. It is
	// httpapi.MaxBody (a test pins the two together), declared here so
	// the front does not import the handler package. A longer body, such
	// as a migration import, goes to net/http.
	maxBody = 1 << 20
	// maxDrain is how much unread request body the front reads past
	// after a handler to keep the connection, net/http's
	// maxPostHandlerReadBytes.
	maxDrain = 256 << 10
	// lingerDelay is net/http's rstAvoidanceDelay: after an answer that
	// leaves a large body unread, the write side is shut and the close
	// waits, so the peer reads the answer before any reset.
	lingerDelay = 500 * time.Millisecond
)

// Server serves one handler through the front. Serve it once; Close
// closes the listener and every live connection, fast or handed off.
type Server struct {
	handler       http.Handler
	headerTimeout time.Duration
	idleTimeout   time.Duration

	fallback *http.Server
	handoff  *handoffListener

	mu     sync.Mutex
	ln     net.Listener
	conns  map[*conn]struct{}
	closed bool
}

// New builds a front for h with net/http's ReadHeaderTimeout and
// IdleTimeout semantics. The fallback http.Server is configured with
// exactly these and nothing else.
func New(h http.Handler, headerTimeout, idleTimeout time.Duration) *Server {
	return &Server{
		handler:       h,
		headerTimeout: headerTimeout,
		idleTimeout:   idleTimeout,
		fallback:      &http.Server{Handler: h, ReadHeaderTimeout: headerTimeout, IdleTimeout: idleTimeout},
		handoff:       &handoffListener{conns: make(chan net.Conn), done: make(chan struct{})},
		conns:         make(map[*conn]struct{}),
	}
}

// Serve accepts connections on ln until Close, like http.Server.Serve,
// and returns http.ErrServerClosed once closed.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed || s.ln != nil {
		s.mu.Unlock()
		ln.Close()
		return http.ErrServerClosed
	}
	s.ln = ln
	s.handoff.addr = ln.Addr()
	s.mu.Unlock()
	go s.fallback.Serve(s.handoff)

	var delay time.Duration
	for {
		rwc, err := ln.Accept()
		if err != nil {
			if s.isClosed() {
				return http.ErrServerClosed
			}
			// Back off on a temporary failure (out of descriptors), as
			// net/http does.
			if ne, ok := err.(interface{ Temporary() bool }); ok && ne.Temporary() {
				delay = min(max(2*delay, 5*time.Millisecond), time.Second)
				time.Sleep(delay)
				continue
			}
			return err
		}
		delay = 0
		if c := s.track(rwc); c != nil {
			go c.serve()
		}
	}
}

// Close closes the listener and every connection, like
// http.Server.Close.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	for c := range s.conns {
		c.rwc.Close()
	}
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	s.handoff.Close()
	if ferr := s.fallback.Close(); err == nil {
		err = ferr
	}
	return err
}

func (s *Server) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// track registers a new connection, or closes it if the server is
// closed.
func (s *Server) track(rwc net.Conn) *conn {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		rwc.Close()
		return nil
	}
	c := newConn(s, rwc)
	s.conns[c] = struct{}{}
	return c
}

func (s *Server) untrack(c *conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}

// conn is one accepted connection while the front serves it.
type conn struct {
	s      *Server
	rwc    net.Conn
	br     *bufio.Reader
	cancel context.CancelFunc
	// tmpl carries the per-connection fields and context every request
	// on the connection starts from.
	tmpl *http.Request
	w    response
	// Scratch reused across requests: the header fields of the head
	// being accepted, and the per-second Date value.
	fields  []field
	date    []byte
	dateSec int64
}

func newConn(s *Server, rwc net.Conn) *conn {
	ctx, cancel := context.WithCancel(context.Background())
	c := &conn{s: s, rwc: rwc, br: bufio.NewReaderSize(rwc, bufSize), cancel: cancel}
	c.tmpl = (&http.Request{
		Method:     http.MethodPost,
		Proto:      "HTTP/1.1",
		ProtoMajor: 1,
		ProtoMinor: 1,
		RemoteAddr: rwc.RemoteAddr().String(),
	}).WithContext(ctx)
	c.w.c = c
	c.w.header = make(http.Header)
	return c
}

// serve runs the keep-alive loop until the peer leaves, a timeout or
// error ends the connection, or a head is refused and the connection
// goes to net/http.
func (c *conn) serve() {
	handedOff := false
	defer func() {
		c.cancel()
		c.s.untrack(c)
		if !handedOff {
			c.rwc.Close()
		}
	}()
	// The first head must be complete within the header timeout of
	// accept, as under net/http; later ones within it of their first
	// byte, after at most the idle timeout of waiting.
	hdrDeadline := deadline(c.s.headerTimeout)
	c.rwc.SetReadDeadline(hdrDeadline)
	for first := true; ; first = false {
		if !first && c.br.Buffered() == 0 {
			c.rwc.SetReadDeadline(deadline(c.s.idleTimeout))
			if _, err := c.br.Peek(1); err != nil {
				return
			}
			hdrDeadline = time.Time{}
		}
		req, n, v := c.accept()
		for v == incomplete {
			if hdrDeadline.IsZero() {
				hdrDeadline = deadline(c.s.headerTimeout)
				c.rwc.SetReadDeadline(hdrDeadline)
			}
			if _, err := c.br.Peek(c.br.Buffered() + 1); err != nil {
				if c.br.Buffered() > 0 {
					// net/http answers a head cut short by a timeout or an
					// error from the bytes it got (often a 400). Hand those
					// bytes over with the deadline already spent, and it
					// does so at once, as it would have alone.
					handedOff = c.s.handoff.push(newHandedConn(c.rwc, c.br, hdrDeadline))
				}
				return
			}
			req, n, v = c.accept()
		}
		if v == refused {
			if hdrDeadline.IsZero() {
				hdrDeadline = deadline(c.s.headerTimeout)
			}
			handedOff = c.s.handoff.push(newHandedConn(c.rwc, c.br, hdrDeadline))
			return
		}
		// No whole-request read timeout: as under net/http, nothing
		// bounds the body.
		c.rwc.SetReadDeadline(time.Time{})
		c.br.Discard(n)
		if !c.serveOne(req) {
			return
		}
		hdrDeadline = time.Time{}
	}
}

// deadline is now+d, or no deadline for d <= 0.
func deadline(d time.Duration) time.Time {
	if d <= 0 {
		return time.Time{}
	}
	return time.Now().Add(d)
}

// serveOne runs the handler for one accepted request and writes its
// answer. It reports whether the connection stays open.
func (c *conn) serveOne(req *http.Request) (keep bool) {
	w := &c.w
	w.reset(req)
	defer func() {
		if v := recover(); v != nil {
			keep = false
			if v != http.ErrAbortHandler {
				const size = 64 << 10
				buf := make([]byte, size)
				buf = buf[:runtime.Stack(buf, false)]
				log.Printf("http: panic serving %v: %v\n%s", req.RemoteAddr, v, buf)
			}
		}
	}()
	c.s.handler.ServeHTTP(w, req)
	return w.finish()
}

// handoffListener is the fallback http.Server's listener: it yields the
// connections the front refused a head on.
type handoffListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
	addr  net.Addr
}

func (l *handoffListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *handoffListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *handoffListener) Addr() net.Addr { return l.addr }

// push hands c to net/http, or reports false once the server is
// closed.
func (l *handoffListener) push(c net.Conn) bool {
	select {
	case l.conns <- c:
		return true
	case <-l.done:
		return false
	}
}

// handedConn is a connection net/http serves after the front refused a
// head on it: reads drain the front's buffer first, so not a byte is
// lost, and net/http's first read deadline — its header timeout — is
// held to the one the front already gave the head.
type handedConn struct {
	net.Conn
	br          *bufio.Reader
	hdrDeadline time.Time
	clamped     atomic.Bool
}

func newHandedConn(rwc net.Conn, br *bufio.Reader, hdrDeadline time.Time) *handedConn {
	return &handedConn{Conn: rwc, br: br, hdrDeadline: hdrDeadline}
}

func (h *handedConn) Read(p []byte) (int, error) {
	if h.br.Buffered() > 0 {
		return h.br.Read(p)
	}
	return h.Conn.Read(p)
}

func (h *handedConn) SetReadDeadline(t time.Time) error {
	if h.clamped.CompareAndSwap(false, true) && !h.hdrDeadline.IsZero() && (t.IsZero() || t.After(h.hdrDeadline)) {
		t = h.hdrDeadline
	}
	return h.Conn.SetReadDeadline(t)
}

// CloseWrite keeps net/http's lingering close (it half-closes a
// connection it is about to drop with a body unread) working through
// the wrapper.
func (h *handedConn) CloseWrite() error {
	if cw, ok := h.Conn.(interface{ CloseWrite() error }); ok {
		return cw.CloseWrite()
	}
	return errors.ErrUnsupported
}
