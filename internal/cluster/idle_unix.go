//go:build unix && !aix

package cluster

import (
	"net"
	"syscall"
)

// idleProbe answers, without blocking, whether a pooled connection the
// node may have closed while it sat idle is still usable. It is built
// once per connection, so a checkout's probe allocates nothing.
type idleProbe struct {
	raw   syscall.RawConn
	peek  func(fd uintptr) bool
	alive bool
	buf   [1]byte
}

func newIdleProbe(c net.Conn) *idleProbe {
	sc, ok := c.(syscall.Conn)
	if !ok {
		return nil
	}
	raw, err := sc.SyscallConn()
	if err != nil {
		return nil
	}
	p := &idleProbe{raw: raw}
	// MSG_PEEK|MSG_DONTWAIT: an idle keep-alive connection has nothing
	// to read, so only EAGAIN means alive. A FIN (the node restarted or
	// timed the connection out) reads as 0 bytes, an RST as an error,
	// and unsolicited bytes would desynchronize the next exchange.
	p.peek = func(fd uintptr) bool {
		_, _, err := syscall.Recvfrom(int(fd), p.buf[:], syscall.MSG_PEEK|syscall.MSG_DONTWAIT)
		p.alive = err == syscall.EAGAIN || err == syscall.EWOULDBLOCK
		return true
	}
	return p
}

// ok reports whether the connection can carry another request. A nil
// probe (a connection without a file descriptor) cannot tell, and says
// yes.
func (p *idleProbe) ok() bool {
	if p == nil {
		return true
	}
	p.alive = false
	return p.raw.Read(p.peek) == nil && p.alive
}
