package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lce/internal/cloudapi"
	"lce/internal/h1"
	"lce/internal/httpapi"
	"lce/internal/obsv"
)

// member returns a node's runtime state.
func member(rt *Router, name string) *nodeState {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return rt.nodes[name]
}

// idleConns counts a node's pooled forward connections.
func idleConns(rt *Router, name string) int {
	st := member(rt, name)
	st.upstream.mu.Lock()
	defer st.upstream.mu.Unlock()
	return len(st.idle)
}

// do issues the step like run, returning failures instead of ending
// the test: safe off the test goroutine.
func (s wireStep) do(base string) (int, string, error) {
	req, err := http.NewRequest(s.method, base+s.path, strings.NewReader(s.body))
	if err != nil {
		return 0, "", err
	}
	req.Header.Set(httpapi.SessionHeader, s.session)
	if s.reqID != "" {
		req.Header.Set(httpapi.RequestIDHeader, s.reqID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, string(b), err
}

// errorCode decodes the unified envelope's Code ("" if not one).
func errorCode(body string) string {
	var we struct {
		IsError bool   `json:"__error"`
		Code    string `json:"Code"`
	}
	if json.Unmarshal([]byte(body), &we) != nil || !we.IsError {
		return ""
	}
	return we.Code
}

// sessionMovingTo finds a session the ring owns on from alone and on
// to once to joins.
func sessionMovingTo(from, to string) string {
	ring := NewRing(0)
	ring.Add(from)
	ring.Add(to)
	for i := 0; ; i++ {
		if sid := fmt.Sprintf("straggler-%d", i); ring.Owner(sid) == to {
			return sid
		}
	}
}

// TestStragglerKeepsMigratedPlacement: a forward that began before a
// migration answers after the placement flipped. It must not point the
// placement back at the old node — otherwise a later leave of the new
// owner sees the session "at home" on the old node, migrates nothing,
// and the session's state is dropped with the leaver.
func TestStragglerKeepsMigratedPlacement(t *testing.T) {
	held, release := make(chan struct{}), make(chan struct{})
	inner := toyHandler(t, "n1", "")
	// n1 runs a call tagged "held" to completion, then holds its answer:
	// the call's effect is in n1's world before anything migrates, and
	// the router's forward stays in flight across the join.
	n1 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get(httpapi.RequestIDHeader) != "held" {
			inner.ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		inner.ServeHTTP(rec, r)
		close(held)
		<-release
		for k, vs := range rec.Header() {
			w.Header()[k] = vs
		}
		w.WriteHeader(rec.Code)
		w.Write(rec.Body.Bytes())
	}))
	t.Cleanup(n1.Close)
	n2 := newToyNode(t, "n2", "")
	control := newToyNode(t, "control", "")
	rt, rsrv := newRouter(t, 2, map[string]*httptest.Server{"n1": n1})
	sid := sessionMovingTo("n1", "n2")

	step := func(i int, reqID string) wireStep {
		s := toyStep(i)
		s.session, s.reqID = sid, reqID
		return s
	}
	for i := 0; i < 2; i++ {
		s := step(i, fmt.Sprintf("pre-%d", i))
		s.run(t, rsrv.URL)
		s.run(t, control.URL)
	}

	type answer struct {
		status int
		body   string
		err    error
	}
	done := make(chan answer, 1)
	heldStep := step(3, "held")
	go func() {
		status, body, err := heldStep.do(rsrv.URL)
		done <- answer{status, body, err}
	}()
	<-held

	resp, err := http.Post(rsrv.URL+"/v2/cluster/join?name=n2&url="+n2.URL, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var joined struct{ Migrated int }
	json.NewDecoder(resp.Body).Decode(&joined)
	resp.Body.Close()
	if joined.Migrated != 1 {
		t.Fatalf("join migrated %d sessions, want 1 (%s)", joined.Migrated, sid)
	}

	close(release)
	got := <-done
	if got.err != nil {
		t.Fatal(got.err)
	}
	heldStep.run(t, control.URL) // keep the control in lockstep
	if got.status != http.StatusOK {
		t.Fatalf("held call answered %d %s", got.status, got.body)
	}
	rt.mu.RLock()
	placed := rt.placements[sid]
	rt.mu.RUnlock()
	if placed != "n2" {
		t.Fatalf("placement of %s is %q after the straggler answered, want n2", sid, placed)
	}

	resp, err = http.Post(rsrv.URL+"/v2/cluster/leave?name=n2", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var left struct{ Migrated int }
	json.NewDecoder(resp.Body).Decode(&left)
	resp.Body.Close()
	if left.Migrated != 1 {
		t.Fatalf("leave of n2 migrated %d sessions, want 1: %s was dropped with n2", left.Migrated, sid)
	}
	for i := 4; i < 7; i++ {
		s := step(i, fmt.Sprintf("post-%d", i))
		rStatus, rBody, _, _ := s.run(t, rsrv.URL)
		cStatus, cBody, _, _ := s.run(t, control.URL)
		if rStatus != cStatus || rBody != cBody {
			t.Fatalf("call %d after the round trip diverged:\nrouter : %d %q\ncontrol: %d %q", i, rStatus, rBody, cStatus, cBody)
		}
	}
}

// TestClientHangupIsNotANodeFailure: a client that declares a body
// and hangs up partway is the client's fault. Two of them must not
// count toward the node's death threshold (2) and empty the ring.
func TestClientHangupIsNotANodeFailure(t *testing.T) {
	n1 := newToyNode(t, "n1", "")
	rt, err := NewRouter(Config{Nodes: []Node{{Name: "n1", URL: n1.URL}}, FailThreshold: 2, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	closed := make(chan struct{}, 8)
	rsrv := httptest.NewUnstartedServer(rt.Handler())
	// A connection closes only after its handler returned: the event
	// that says the router has finished with each hung-up request.
	rsrv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateClosed {
			select {
			case closed <- struct{}{}:
			default:
			}
		}
	}
	rsrv.Start()
	t.Cleanup(rsrv.Close)

	for i := 0; i < 2; i++ {
		c, err := net.Dial("tcp", rsrv.Listener.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(c, "POST /v2/toy?Action=CreatePublicIp HTTP/1.1\r\nHost: router\r\n"+
			"X-LCE-Session: hangup\r\nContent-Length: 100\r\n\r\nhello")
		c.Close()
		<-closed
	}
	st := member(rt, "n1")
	if f := st.fails.Load(); f != 0 || !st.alive.Load() {
		t.Fatalf("client hang-ups counted against the node: fails=%d alive=%v", f, st.alive.Load())
	}
	s := toyStep(0)
	s.session = "after-hangups"
	if status, body, _, _ := s.run(t, rsrv.URL); status != http.StatusOK {
		t.Fatalf("call after the hang-ups: %d %s", status, body)
	}
}

// TestForwardSurvivesNodeRestart: a node restarts on the same address
// while the router holds a pooled connection to its old process. The
// liveness check at checkout must discard that connection before
// writing to it, so no call fails and nothing counts toward death.
func TestForwardSurvivesNodeRestart(t *testing.T) {
	old := httptest.NewServer(toyHandler(t, "n1", ""))
	t.Cleanup(old.Close)
	rt, rsrv := newRouter(t, 2, map[string]*httptest.Server{"n1": old})
	s := toyStep(0)
	s.session = "restart"
	if status, body, _, _ := s.run(t, rsrv.URL); status != http.StatusOK {
		t.Fatalf("first call: %d %s", status, body)
	}
	if n := idleConns(rt, "n1"); n != 1 {
		t.Fatalf("%d pooled connections after one call, want 1", n)
	}

	addr := old.Listener.Addr().String()
	old.Close()
	l, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	restarted := httptest.NewUnstartedServer(toyHandler(t, "n1", ""))
	restarted.Listener.Close()
	restarted.Listener = l
	restarted.Start()
	t.Cleanup(restarted.Close)

	for i := 0; i < 3; i++ {
		if status, body, _, _ := s.run(t, rsrv.URL); status != http.StatusOK {
			t.Fatalf("call %d after the restart: %d %s", i, status, body)
		}
	}
	if f := member(rt, "n1").fails.Load(); f != 0 {
		t.Fatalf("restart counted %d transport failures", f)
	}
}

// TestForwardNeverResends: a node that reads a request and dies
// without answering gets it exactly once — the router answers a
// transient BadGateway rather than replaying a call the node may
// have applied — and each such death counts toward the threshold.
func TestForwardNeverResends(t *testing.T) {
	var applied atomic.Int32
	node := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		if r.URL.Query().Get("Action") != "Die" {
			w.Write([]byte(`{}`))
			return
		}
		applied.Add(1)
		c, _, err := w.(http.Hijacker).Hijack()
		if err == nil {
			c.Close()
		}
	}))
	t.Cleanup(node.Close)
	rt, rsrv := newRouter(t, 2, map[string]*httptest.Server{"n1": node})

	call := func(action string) wireStep {
		return wireStep{method: "POST", path: "/v2/toy?Action=" + action, session: "s", body: `{"params":{}}`}
	}
	if status, _, err := call("Live").do(rsrv.URL); err != nil || status != http.StatusOK {
		t.Fatalf("warm-up call: %d %v", status, err)
	}
	for i := 1; i <= 2; i++ {
		status, body, err := call("Die").do(rsrv.URL)
		if err != nil {
			t.Fatal(err)
		}
		if status != http.StatusBadGateway || errorCode(body) != cloudapi.CodeBadGateway {
			t.Fatalf("node died mid-exchange: %d %s, want 502 BadGateway", status, body)
		}
		if n := applied.Load(); n != int32(i) {
			t.Fatalf("after %d dying calls the node saw %d: a request was resent", i, n)
		}
	}
	if st := member(rt, "n1"); st.alive.Load() {
		t.Fatalf("two mid-exchange deaths did not reach the threshold (fails=%d)", st.fails.Load())
	}
}

// TestForwardBodyFraming: request bodies arrive byte-identical whether
// the client declared their length (streamed, here across several
// buffer flushes) or not (chunked, buffered by the router); an answer
// that says Connection: close is not pooled, and its successor still
// answers; a body far past what the node reads, or one the node
// answers without reading, gets the node's own answer and costs the
// node nothing.
func TestForwardBodyFraming(t *testing.T) {
	node := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Query().Get("Action") {
		case "Close":
			w.Header().Set("Connection", "close")
		case "Bounded": // reads as the node's invoke path does
			got, _ := io.ReadAll(io.LimitReader(r.Body, httpapi.MaxBody))
			w.WriteHeader(http.StatusBadRequest)
			fmt.Fprintf(w, "read %d", len(got))
			return
		case "Reject": // answers unread, then closes: the unread body makes it a reset
			c, _, err := w.(http.Hijacker).Hijack()
			if err == nil {
				c.Write([]byte("HTTP/1.1 400 Bad Request\r\nContent-Length: 8\r\nConnection: close\r\n\r\nrejected"))
				c.Close()
			}
			return
		}
		got, _ := io.ReadAll(r.Body)
		w.Header().Set("X-Got-Length", fmt.Sprint(r.ContentLength))
		w.Write(got)
	}))
	t.Cleanup(node.Close)
	rt, rsrv := newRouter(t, 2, map[string]*httptest.Server{"n1": node})

	payload := make([]byte, 100<<10)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	for _, tc := range []struct {
		name string
		body io.Reader
	}{
		{"sized", bytes.NewReader(payload)},
		{"chunked", io.MultiReader(bytes.NewReader(payload))}, // hides the length
	} {
		req, _ := http.NewRequest("POST", rsrv.URL+"/v2/echo?Action=Echo", tc.body)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("%s body: %d bytes back (err %v), want the %d sent", tc.name, len(got), err, len(payload))
		}
		if n := resp.Header.Get("X-Got-Length"); n != fmt.Sprint(len(payload)) {
			t.Fatalf("%s body reached the node with Content-Length %s", tc.name, n)
		}
	}
	if n := idleConns(rt, "n1"); n != 1 {
		t.Fatalf("%d pooled connections after sequential calls, want 1", n)
	}

	for i := 0; i < 2; i++ {
		status, body, err := wireStep{method: "POST", path: "/v2/echo?Action=Close", body: "bye"}.do(rsrv.URL)
		if err != nil || status != http.StatusOK || body != "bye" {
			t.Fatalf("Connection: close answer %d: %d %q %v", i, status, body, err)
		}
		if n := idleConns(rt, "n1"); n != 0 {
			t.Fatalf("a Connection: close answer left %d pooled connections", n)
		}
	}

	// Each twice: with a death threshold of 2, a second misattributed
	// failure would take the node off the ring.
	postZeros := func(action string, size int, want string) {
		t.Helper()
		for i := 0; i < 2; i++ {
			req, _ := http.NewRequest("POST", rsrv.URL+"/v2/echo?Action="+action, bytes.NewReader(make([]byte, size)))
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			got, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest || string(got) != want {
				t.Fatalf("%s with a %d-byte body: %d %q, want the node's 400 %q", action, size, resp.StatusCode, got, want)
			}
		}
		if st := member(rt, "n1"); st.fails.Load() != 0 || !st.alive.Load() {
			t.Fatalf("%s bodies counted against the node: fails=%d alive=%v", action, st.fails.Load(), st.alive.Load())
		}
	}
	// A declared body far past what the node reads is cut one byte past
	// it: the node reads what it would have, answers as it would have,
	// and the connection stays in step for the next call.
	postZeros("Bounded", 8<<20, fmt.Sprintf("read %d", httpapi.MaxBody))
	if n := idleConns(rt, "n1"); n != 1 {
		t.Fatalf("%d pooled connections after cut bodies, want 1", n)
	}
	// A node that answers before reading and closes under the router's
	// write — what a node's server does with a large unread body once
	// the network's buffers fill — still has its answer relayed.
	postZeros("Reject", httpapi.MaxBody, "rejected")
}

// TestForwardRaceHammer: concurrent sessions over two nodes while a
// third joins and leaves — pooled connections, placement write-backs
// and migrations all at once, for the race detector. No call may see a
// BadGateway: no node dies.
func TestForwardRaceHammer(t *testing.T) {
	n1 := newToyNode(t, "n1", "")
	n2 := newToyNode(t, "n2", "")
	n3 := newToyNode(t, "n3", "")
	rt, rsrv := newTracedRouter(t, 1, map[string]*httptest.Server{"n1": n1, "n2": n2})
	defer rt.Close()

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				s := toyStep(i)
				s.session = fmt.Sprintf("hammer-%d", g)
				status, body, err := s.do(rsrv.URL)
				if err != nil {
					t.Error(err)
					return
				}
				switch {
				case status == http.StatusOK, errorCode(body) == cloudapi.CodeInvalidParameter:
				case errorCode(body) == cloudapi.CodeServiceUnavailable: // mid-migration
				default:
					t.Errorf("hammer-%d call %d: %d %s", g, i, status, body)
					return
				}
			}
		}(g)
	}
	for _, op := range []string{"join?name=n3&url=" + n3.URL, "leave?name=n3"} {
		resp, err := http.Post(rsrv.URL+"/v2/cluster/"+op, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d", op, resp.StatusCode)
		}
	}
	wg.Wait()
}

// BenchmarkRouterForward prices one data-plane forward through the
// router's handler, traced as lce-router ships, over a loopback
// upstream that answers a fixed 200 through the front a node listens
// through. ns/op and allocs/op include the in-process upstream server
// and the benchmark's own request and recorder, which are the same
// whatever the router does.
func BenchmarkRouterForward(b *testing.B) {
	answer := []byte(`{"result":{"vpcs":[]},"RequestId":"bench"}`)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	up := h1.New(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		w.Write(answer)
	}), time.Minute, time.Minute)
	go up.Serve(ln)
	defer up.Close()
	rt, err := NewRouter(Config{Nodes: []Node{{Name: "n1", URL: "http://" + ln.Addr().String()}}, ProbeInterval: -1, Obs: obsv.New(1, 0)})
	if err != nil {
		b.Fatal(err)
	}
	defer rt.Close()
	h := rt.Handler()
	const body = `{"params":{"cidrBlock":"10.0.0.0/16"}}`
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest("POST", "/v2/ec2?Action=CreateVpc", strings.NewReader(body))
		req.Header.Set(httpapi.SessionHeader, "bench")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
}
