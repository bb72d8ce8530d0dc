package h1

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"log"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// body is a fast-path request body: exactly the declared bytes off the
// connection's reader, with net/http's server-side Close.
type body struct {
	br         *bufio.Reader
	n          int64 // bytes not yet read
	err        error // a read failure, returned from then on
	sawEOF     bool
	closed     bool
	earlyClose bool // closed with more than maxDrain left unread
}

func (b *body) Read(p []byte) (int, error) {
	switch {
	case b.closed:
		return 0, http.ErrBodyReadAfterClose
	case b.err != nil:
		return 0, b.err
	case b.n == 0:
		b.sawEOF = true
		return 0, io.EOF
	}
	if int64(len(p)) > b.n {
		p = p[:b.n]
	}
	n, err := b.br.Read(p)
	b.n -= int64(n)
	if b.n == 0 {
		// The last bytes come with EOF, as net/http's body returns them.
		b.sawEOF = true
		return n, io.EOF
	}
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		b.err = err
	}
	return n, err
}

// Close reads past what the handler left, up to maxDrain, so the
// connection can carry the next request; with more than that left it
// gives up, and the connection closes after the answer.
func (b *body) Close() error {
	if b.closed {
		return nil
	}
	var err error
	switch {
	case b.sawEOF:
	case b.n > maxDrain:
		b.earlyClose = true
	default:
		var n int64
		n, err = io.CopyN(io.Discard, b, maxDrain)
		if err == io.EOF {
			err = nil
		}
		if n == maxDrain {
			b.earlyClose = true
		}
	}
	b.closed = true
	return err
}

// response is the fast path's http.ResponseWriter. The head is
// rendered when the status is committed — the header snapshot — and
// the body is buffered; finish adds the framing headers and writes
// both in one call.
type response struct {
	c      *conn
	req    *http.Request
	body   body
	header http.Header

	wroteHeader bool
	status      int
	clen        int64 // declared Content-Length, -1 when none
	written     int64

	head []byte // status line and the snapshot of the handler's headers
	out  []byte // the body, then the whole answer

	// What finish needs of the snapshot.
	te          string
	connection  string
	keys        keySet // which of the framing headers it holds
	hasType     bool
	hasEncoding bool
	hasDate     bool
}

// keySet records which of the headers finish may leave out the
// snapshot holds, so the common answer skips dropFields.
type keySet uint8

const (
	keyContentLength keySet = 1 << iota
	keyTransferEncoding
	keyConnection
	keyContentType
)

var keyNames = [...]string{"Content-Length", "Transfer-Encoding", "Connection", "Content-Type"}

func (w *response) reset(req *http.Request) {
	clear(w.header)
	w.req = req
	w.wroteHeader, w.status, w.clen, w.written = false, 0, -1, 0
	w.head, w.out = w.head[:0], w.out[:0]
}

func (w *response) Header() http.Header { return w.header }

func (w *response) WriteHeader(code int) {
	if w.wroteHeader {
		log.Printf("http: superfluous response.WriteHeader call")
		return
	}
	if code < 100 || code > 999 {
		panic(fmt.Sprintf("invalid WriteHeader code %v", code))
	}
	w.wroteHeader, w.status = true, code
	h := w.header
	if cl := get(h, "Content-Length"); cl != "" {
		if v, err := strconv.ParseInt(cl, 10, 64); err == nil && v >= 0 {
			w.clen = v
		} else {
			log.Printf("http: invalid Content-Length of %q", cl)
		}
	}
	w.keys = 0
	for i, k := range keyNames {
		if _, ok := h[k]; ok {
			w.keys |= 1 << i
		}
	}
	w.hasType = w.keys&keyContentType != 0
	_, w.hasDate = h["Date"]
	w.hasEncoding = h.Get("Content-Encoding") != ""
	w.te, w.connection = get(h, "Transfer-Encoding"), get(h, "Connection")
	w.head = appendStatusLine(w.head[:0], code)
	h.WriteSubset((*appender)(&w.head), nil)
}

func (w *response) Write(p []byte) (int, error) {
	if !w.wroteHeader {
		w.WriteHeader(http.StatusOK)
	}
	if len(p) == 0 {
		return 0, nil
	}
	if !bodyAllowed(w.status) {
		return 0, http.ErrBodyNotAllowed
	}
	w.written += int64(len(p))
	if w.clen != -1 && w.written > w.clen {
		return 0, http.ErrContentLength
	}
	w.out = append(w.out, p...)
	return len(p), nil
}

// finish frames the answer the way net/http's chunkWriter.writeHeader
// would for a handler that returned with everything it wrote still
// buffered, writes it, and reports whether the connection can carry
// another request. It follows that function's order, so each rule
// below is one of its rules.
func (w *response) finish() bool {
	if !w.wroteHeader {
		w.WriteHeader(http.StatusOK)
	}
	status, bodyLen := w.status, len(w.out)
	hasTE := w.te != ""
	var drop keySet // snapshot headers to leave out
	var setCL, setType, setConn, setTE string

	if !hasTE && bodyAllowed(status) && w.keys&keyContentLength == 0 {
		w.clen = int64(bodyLen)
		setCL = strconv.Itoa(bodyLen)
	}
	hasCL := w.clen != -1
	closeAfter := w.connection == "close"

	// An unread body: drain what is cheap to drain, else close.
	tooBig := false
	if w.req.ContentLength != 0 && !closeAfter {
		b := &w.body
		switch {
		case b.closed:
			closeAfter = closeAfter || !b.sawEOF
		case b.n >= maxDrain:
			tooBig = true
		default:
			switch _, err := io.CopyN(io.Discard, b, maxDrain+1); err {
			case nil:
				tooBig = true
			case io.EOF:
				b.Close()
			default:
				closeAfter = true
			}
		}
		if tooBig {
			closeAfter = true
			drop |= keyConnection
			setConn = "close"
		}
	}

	if bodyAllowed(status) {
		if !w.hasEncoding && !w.hasType && !hasTE && bodyLen > 0 {
			setType = http.DetectContentType(w.out)
		}
	} else if status == http.StatusNotModified {
		drop |= keyContentType | keyContentLength | keyTransferEncoding
	} else {
		drop |= keyContentLength | keyTransferEncoding
	}
	if hasCL && hasTE && w.te != "identity" {
		log.Printf("http: WriteHeader called with both Transfer-Encoding of %q and a Content-Length of %d", w.te, w.clen)
		drop |= keyContentLength
		hasCL = false
	}
	chunking := false
	switch {
	case !bodyAllowed(status) || hasCL:
		drop |= keyTransferEncoding
	case hasTE && w.te == "identity":
		closeAfter = true
		drop |= keyTransferEncoding
	default:
		chunking = true
		setTE = "chunked"
		if w.te == "chunked" {
			drop |= keyTransferEncoding
		}
		drop |= keyContentLength
	}
	if closeAfter && !hasToken(w.connection, "close") {
		drop |= keyConnection
		setConn = "close"
	}

	// The answer: head with the framing headers, then the body — one
	// write.
	c := w.c
	out := w.head
	if drop &= w.keys; drop != 0 {
		out = dropFields(out, drop)
	}
	if !w.hasDate {
		now := time.Now()
		if sec := now.Unix(); sec != c.dateSec || c.date == nil {
			c.date, c.dateSec = now.UTC().AppendFormat(c.date[:0], http.TimeFormat), sec
		}
		out = append(append(append(out, "Date: "...), c.date...), "\r\n"...)
	}
	out = appendField(out, "Content-Length", setCL)
	out = appendField(out, "Content-Type", setType)
	out = appendField(out, "Connection", setConn)
	out = appendField(out, "Transfer-Encoding", setTE)
	out = append(out, "\r\n"...)
	switch {
	case chunking:
		if bodyLen > 0 {
			out = strconv.AppendInt(out, int64(bodyLen), 16)
			out = append(append(append(out, "\r\n"...), w.out...), "\r\n"...)
		}
		out = append(out, "0\r\n\r\n"...)
	case bodyAllowed(status):
		out = append(out, w.out...)
	}
	w.head = out
	_, err := c.rwc.Write(out)
	w.trim()

	if w.body.earlyClose || tooBig {
		// net/http's lingering close: let the peer read the answer
		// before the unread body makes the close a reset.
		if cw, ok := c.rwc.(interface{ CloseWrite() error }); ok {
			cw.CloseWrite()
		}
		time.Sleep(lingerDelay)
		return false
	}
	return err == nil && !closeAfter && (!bodyAllowed(status) || w.clen == -1 || w.clen == w.written)
}

// trim lets go of buffers a large answer grew, so an idle connection
// holds at most a few KiB.
func (w *response) trim() {
	const keep = 64 << 10
	if cap(w.head) > keep {
		w.head = nil
	}
	if cap(w.out) > keep {
		w.out = nil
	}
}

// bodyAllowed reports whether a status may carry a body.
func bodyAllowed(status int) bool {
	return !(status >= 100 && status <= 199 || status == http.StatusNoContent || status == http.StatusNotModified)
}

func get(h http.Header, key string) string {
	if vs := h[key]; len(vs) > 0 {
		return vs[0]
	}
	return ""
}

// hasToken reports whether v lists token, ASCII case-insensitively.
func hasToken(v, token string) bool {
	for _, f := range strings.FieldsFunc(v, func(r rune) bool { return r == ',' || r == ' ' || r == '\t' }) {
		if strings.EqualFold(f, token) {
			return true
		}
	}
	return false
}

func appendStatusLine(b []byte, code int) []byte {
	b = append(b, "HTTP/1.1 "...)
	if text := http.StatusText(code); text != "" {
		b = strconv.AppendInt(b, int64(code), 10)
		b = append(b, ' ')
		b = append(b, text...)
		return append(b, "\r\n"...)
	}
	return fmt.Appendf(b, "%03d status code %d\r\n", code, code)
}

func appendField(b []byte, k, v string) []byte {
	if v == "" {
		return b
	}
	return append(append(append(append(b, k...), ": "...), v...), "\r\n"...)
}

// dropFields removes, in place, the snapshot lines of the headers in
// keys. Header lines are "Key: value\r\n" with the map's own key, one
// per value; the status line never matches.
func dropFields(head []byte, keys keySet) []byte {
	out := head[:0]
	for rest := head; len(rest) > 0; {
		i := bytes.IndexByte(rest, '\n') + 1
		line := rest[:i]
		rest = rest[i:]
		drop := false
		for j, k := range keyNames {
			if keys&(1<<j) != 0 && len(line) > len(k) && string(line[:len(k)]) == k && line[len(k)] == ':' {
				drop = true
				break
			}
		}
		if !drop {
			out = append(out, line...)
		}
	}
	return out
}

// appender is an io.Writer and io.StringWriter over a byte slice, for
// http.Header.WriteSubset.
type appender []byte

func (a *appender) Write(p []byte) (int, error) {
	*a = append(*a, p...)
	return len(p), nil
}

func (a *appender) WriteString(s string) (int, error) {
	*a = append(*a, s...)
	return len(s), nil
}
