package h1

import (
	"bytes"
	"net/http"
	"net/url"
)

// The fast subset. A head is accepted only if every line of it fits
// this rule; anything else is refused and goes to net/http unread:
//
//	request line   "POST /v2/<target> HTTP/1.1" — target bytes printable
//	               ASCII without spaces, and url.ParseRequestURI takes it
//	header line    <token>":" SP* <value> SP*, value bytes 0x20–0x7e or
//	               >= 0x80 (no tab, no control character)
//	line end       CRLF, and the blank line ends the head
//	Host           exactly one, non-empty, of [A-Za-z0-9.:_[]-]
//	Content-Length at most one, all digits, <= maxBody
//	refused names  Transfer-Encoding, Expect, Connection, Upgrade,
//	               Trailer, TE, and Pragma (net/http rewrites
//	               Pragma: no-cache into a Cache-Control header)
//	size           the whole head within one bufSize buffer
//
// FuzzH1Request holds every accepted head to http.ReadRequest.

// verdict is what the front decided about the head at the front of a
// connection's buffer.
type verdict uint8

const (
	incomplete verdict = iota // no blank line yet, and room to read on
	accepted
	refused
)

// field is one header line of an accepted head: offsets of its name
// and of its trimmed value.
type field struct{ k0, k1, v0, v1 int }

// accept looks at the buffered bytes without consuming any. On
// accepted it returns the request and the head's length.
func (c *conn) accept() (*http.Request, int, verdict) {
	buf, _ := c.br.Peek(c.br.Buffered())
	n, cl, host, v := c.scan(buf)
	switch {
	case v == incomplete && len(buf) >= bufSize:
		return nil, 0, refused
	case v != accepted:
		return nil, 0, v
	}
	// One string holds the whole head; the target, names and values are
	// slices of it.
	head := string(buf[:n])
	target := head[len("POST ") : len("POST ")+bytes.IndexByte(buf[len("POST "):], ' ')]
	u, err := url.ParseRequestURI(target)
	if err != nil {
		return nil, 0, refused
	}
	r := new(http.Request)
	*r = *c.tmpl
	r.URL = u
	r.RequestURI = target
	r.Host = head[host.v0:host.v1]
	r.Header = make(http.Header, len(c.fields))
	vals := make([]string, len(c.fields))
	for i, f := range c.fields {
		k := http.CanonicalHeaderKey(head[f.k0:f.k1])
		vals[i] = head[f.v0:f.v1]
		if vs, ok := r.Header[k]; ok {
			r.Header[k] = append(vs, vals[i])
		} else {
			r.Header[k] = vals[i : i+1 : i+1]
		}
	}
	r.ContentLength = cl
	c.w.body = body{br: c.br, n: cl}
	r.Body = http.NoBody
	if cl > 0 {
		r.Body = &c.w.body
	}
	return r, n, accepted
}

// scan checks buf against the fast subset. It records the header
// fields other than Host in c.fields and returns the head's length,
// the declared body length and the Host field.
func (c *conn) scan(buf []byte) (n int, cl int64, host field, v verdict) {
	const prefix = "POST /v2/"
	c.fields = c.fields[:0]
	line, rest, ok := cutLine(buf)
	if !ok {
		// A request line still arriving is refused as soon as it cannot
		// be a fast one.
		if k := min(len(buf), len(prefix)); string(buf[:k]) != prefix[:k] {
			return 0, 0, host, refused
		}
		return 0, 0, host, incomplete
	}
	if !fastRequestLine(line) {
		return 0, 0, host, refused
	}
	hosts, cls := 0, 0
	cl = 0
	for {
		start := len(buf) - len(rest)
		line, rest, ok = cutLine(rest)
		if !ok {
			return 0, 0, host, incomplete
		}
		if line == nil {
			return 0, 0, host, refused // a bare LF
		}
		if len(line) == 0 {
			break
		}
		f, ok := parseField(line, start)
		if !ok {
			return 0, 0, host, refused
		}
		switch name := buf[f.k0:f.k1]; {
		case bytes.EqualFold(name, []byte("Host")):
			hosts++
			if hosts > 1 || !validHost(buf[f.v0:f.v1]) {
				return 0, 0, host, refused
			}
			host = f
			continue
		case bytes.EqualFold(name, []byte("Content-Length")):
			cls++
			if cls > 1 {
				return 0, 0, host, refused
			}
			if cl, ok = parseLength(buf[f.v0:f.v1]); !ok {
				return 0, 0, host, refused
			}
		case refusedName(name):
			return 0, 0, host, refused
		}
		c.fields = append(c.fields, f)
	}
	if hosts != 1 {
		return 0, 0, host, refused
	}
	return len(buf) - len(rest), cl, host, accepted
}

// cutLine splits off buf's first line. ok is false while the line's LF
// has not arrived. line excludes the CRLF; it is nil (not merely empty)
// when the line ends in a bare LF.
func cutLine(buf []byte) (line, rest []byte, ok bool) {
	i := bytes.IndexByte(buf, '\n')
	if i < 0 {
		return nil, nil, false
	}
	if i == 0 || buf[i-1] != '\r' {
		return nil, buf[i+1:], true
	}
	return buf[: i-1 : i-1], buf[i+1:], true
}

// fastRequestLine: "POST /v2/<target> HTTP/1.1".
func fastRequestLine(line []byte) bool {
	const prefix, proto = "POST /v2/", " HTTP/1.1"
	if len(line) < len(prefix)+len(proto) || string(line[:len(prefix)]) != prefix || string(line[len(line)-len(proto):]) != proto {
		return false
	}
	for _, b := range line[len("POST ") : len(line)-len(proto)] {
		if b <= ' ' || b >= 0x7f {
			return false
		}
	}
	return true
}

// parseField splits a header line that starts at offset start of the
// buffer into a token name and a value without surrounding spaces.
func parseField(line []byte, start int) (field, bool) {
	colon := bytes.IndexByte(line, ':')
	if colon <= 0 {
		return field{}, false
	}
	for _, b := range line[:colon] {
		if !isToken(b) {
			return field{}, false
		}
	}
	v0, v1 := colon+1, len(line)
	for v0 < v1 && line[v0] == ' ' {
		v0++
	}
	for v1 > v0 && line[v1-1] == ' ' {
		v1--
	}
	for _, b := range line[v0:v1] {
		if b < ' ' || b == 0x7f {
			return field{}, false
		}
	}
	return field{start, start + colon, start + v0, start + v1}, true
}

// refusedName reports the headers that change how net/http frames,
// continues or rewrites a request.
func refusedName(name []byte) bool {
	var r string
	switch len(name) {
	case len("TE"):
		r = "TE"
	case len("Expect"):
		if bytes.EqualFold(name, []byte("Pragma")) {
			return true
		}
		r = "Expect"
	case len("Upgrade"):
		if bytes.EqualFold(name, []byte("Trailer")) {
			return true
		}
		r = "Upgrade"
	case len("Connection"):
		r = "Connection"
	case len("Transfer-Encoding"):
		r = "Transfer-Encoding"
	default:
		return false
	}
	return bytes.EqualFold(name, []byte(r))
}

// parseLength reads an all-digit Content-Length no larger than maxBody.
func parseLength(v []byte) (int64, bool) {
	if len(v) == 0 {
		return 0, false
	}
	var n int64
	for _, b := range v {
		if b < '0' || b > '9' {
			return 0, false
		}
		if n = n*10 + int64(b-'0'); n > maxBody {
			return 0, false
		}
	}
	return n, true
}

// validHost is a conservative subset of what net/http accepts as a
// Host value: names, IPv4 and bracketed IPv6 literals, and ports.
func validHost(v []byte) bool {
	if len(v) == 0 {
		return false
	}
	for _, b := range v {
		switch {
		case 'a' <= b && b <= 'z', 'A' <= b && b <= 'Z', '0' <= b && b <= '9':
		case b == '.', b == ':', b == '-', b == '_', b == '[', b == ']':
		default:
			return false
		}
	}
	return true
}

// isToken reports an RFC 9110 tchar.
func isToken(b byte) bool {
	switch {
	case 'a' <= b && b <= 'z', 'A' <= b && b <= 'Z', '0' <= b && b <= '9':
		return true
	}
	switch b {
	case '!', '#', '$', '%', '&', '\'', '*', '+', '-', '.', '^', '_', '`', '|', '~':
		return true
	}
	return false
}
