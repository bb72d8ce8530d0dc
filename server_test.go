package lce

import (
	"net/http"
	"testing"
)

// TestListenerTimeouts: every listener bounds how long a peer may take
// over its headers and how long an idle connection is kept, and never
// bounds a whole request or response — the SSE stream and the pprof
// profile routes are long-lived by design.
func TestListenerTimeouts(t *testing.T) {
	srv := newHTTPServer("127.0.0.1:0", http.NotFoundHandler())
	if srv.ReadHeaderTimeout <= 0 || srv.IdleTimeout <= 0 {
		t.Errorf("ReadHeaderTimeout = %v, IdleTimeout = %v; both must be set", srv.ReadHeaderTimeout, srv.IdleTimeout)
	}
	if srv.ReadTimeout != 0 || srv.WriteTimeout != 0 {
		t.Errorf("ReadTimeout = %v, WriteTimeout = %v; either would cut /debug/events and pprof streams", srv.ReadTimeout, srv.WriteTimeout)
	}
}
