//go:build !unix || aix

package cluster

import "net"

// idleProbe is the liveness check of idle_unix.go. Windows, AIX and
// the other platforms without a non-blocking socket peek cannot ask,
// so a pooled connection is never trusted: every forward dials afresh.
// That costs a dial per forward, where reusing blindly would turn each
// connection a restarted node closed into a BadGateway counted toward
// its death.
type idleProbe struct{}

func newIdleProbe(net.Conn) *idleProbe { return nil }

func (*idleProbe) ok() bool { return false }
