package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"lce/internal/cloud/aws/ec2"
	"lce/internal/cloudapi"
	"lce/internal/durable"
	"lce/internal/h1"
	"lce/internal/httpapi"
	"lce/internal/interp"
	"lce/internal/obsv"
	"lce/internal/opsplane"
	"lce/internal/spec"
	"lce/internal/tenant"
)

// --- fleet scaffolding -------------------------------------------------

// newEC2Node serves an EC2 oracle behind a tenant pool, named as a
// cluster member.
func newEC2Node(t *testing.T, name string, opts ...httpapi.Option) *httptest.Server {
	t.Helper()
	pool, err := tenant.New(ec2.Factory(), tenant.Config{})
	if err != nil {
		t.Fatal(err)
	}
	all := append([]httpapi.Option{httpapi.WithPool(pool), httpapi.WithNode(name)}, opts...)
	srv := httptest.NewServer(httpapi.New(ec2.New(), all...))
	t.Cleanup(srv.Close)
	return srv
}

// toyFactory stamps out fresh learned toy emulators — the
// snapshottable backend migration needs. They are forks of one
// compiled emulator, as the tenant pool makes them: compiling
// re-indexes the shared spec, which must not race sessions created
// concurrently.
func toyFactory(t *testing.T) func() cloudapi.Backend {
	t.Helper()
	svc, err := spec.Parse(spec.ToySource)
	if err != nil {
		t.Fatal(err)
	}
	base, err := interp.New(svc)
	if err != nil {
		t.Fatal(err)
	}
	return base.Fork
}

// newToyNode serves the learned toy emulator behind a pool; a
// non-empty dir mounts a durable store over it (shared dirs model the
// cluster's shared -data-dir deployment).
func newToyNode(t *testing.T, name, dir string) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(toyHandler(t, name, dir))
	t.Cleanup(srv.Close)
	return srv
}

// toyHandler is newToyNode's handler, for tests that serve it their
// own way.
func toyHandler(t *testing.T, name, dir string) http.Handler {
	t.Helper()
	factory := toyFactory(t)
	tcfg := tenant.Config{}
	if dir != "" {
		store, err := durable.Open(durable.Config{Dir: dir, Fsync: durable.FsyncOff})
		if err != nil {
			t.Fatal(err)
		}
		tcfg.Spill = store
	}
	pool, err := tenant.New(cloudapi.BackendFactory(factory), tcfg)
	if err != nil {
		t.Fatal(err)
	}
	return httpapi.New(factory(), httpapi.WithPool(pool), httpapi.WithNode(name))
}

// serveFront serves h through the HTTP/1.1 front lce-server and
// lce-router listen through (lce.ListenAndServe) and returns its base
// URL; the front closes with the test.
func serveFront(t *testing.T, h http.Handler) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	front := h1.New(h, time.Minute, time.Minute)
	go front.Serve(ln)
	t.Cleanup(func() { front.Close() })
	return "http://" + ln.Addr().String()
}

// frontFleet serves an EC2 node per name and a router over them, all
// through the front, and returns the router's base URL.
func frontFleet(t *testing.T, names ...string) string {
	t.Helper()
	var nodes []Node
	for _, name := range names {
		pool, err := tenant.New(ec2.Factory(), tenant.Config{})
		if err != nil {
			t.Fatal(err)
		}
		url := serveFront(t, httpapi.New(ec2.New(), httpapi.WithPool(pool), httpapi.WithNode(name)))
		nodes = append(nodes, Node{Name: name, URL: url})
	}
	rt, err := NewRouter(Config{Nodes: nodes, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return serveFront(t, rt.Handler())
}

// newRouter fronts the given servers; probing stays manual (CheckNow)
// so membership transitions are deterministic.
func newRouter(t *testing.T, threshold int, servers map[string]*httptest.Server) (*Router, *httptest.Server) {
	t.Helper()
	var nodes []Node
	for name, srv := range servers {
		nodes = append(nodes, Node{Name: name, URL: srv.URL})
	}
	rt, err := NewRouter(Config{Nodes: nodes, FailThreshold: threshold, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	rsrv := httptest.NewServer(rt.Handler())
	t.Cleanup(rsrv.Close)
	return rt, rsrv
}

// wireStep is one scripted exchange.
type wireStep struct {
	name    string
	method  string
	path    string // path + query, appended to the base URL
	session string
	reqID   string
	body    string
}

// run issues the step against base and captures the comparable
// surface: status, body bytes, content type, echoed request ID.
func (s wireStep) run(t *testing.T, base string) (int, string, string, string) {
	t.Helper()
	req, err := http.NewRequest(s.method, base+s.path, strings.NewReader(s.body))
	if err != nil {
		t.Fatal(err)
	}
	if s.session != "" {
		req.Header.Set(httpapi.SessionHeader, s.session)
	}
	if s.reqID != "" {
		req.Header.Set(httpapi.RequestIDHeader, s.reqID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s: %v", s.name, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("%s: read: %v", s.name, err)
	}
	return resp.StatusCode, string(body), resp.Header.Get("Content-Type"), resp.Header.Get(httpapi.RequestIDHeader)
}

// --- byte parity -------------------------------------------------------

// TestRouterByteParity drives one scripted request sequence — success
// paths and every error class the wire surface produces — against a
// single node and against a 3-node fleet behind the router, and
// requires byte-identical responses at every step. This is the
// redesign's core contract: the router is invisible on the wire. Node
// and router both listen through the front the binaries run.
func TestRouterByteParity(t *testing.T) {
	pool, err := tenant.New(ec2.Factory(), tenant.Config{})
	if err != nil {
		t.Fatal(err)
	}
	direct := serveFront(t, httpapi.New(ec2.New(), httpapi.WithPool(pool)))
	router := frontFleet(t, "n1", "n2", "n3")

	script := []wireStep{
		{name: "create", method: "POST", path: "/v2/ec2?Action=CreateVpc", session: "s1", reqID: "r01",
			body: `{"params":{"cidrBlock":"10.0.0.0/16"}}`},
		{name: "describe", method: "POST", path: "/v2/ec2?Action=DescribeVpcs", session: "s1", reqID: "r02"},
		{name: "invalid-action", method: "POST", path: "/v2/ec2?Action=NoSuchAction", session: "s1", reqID: "r03"},
		{name: "invalid-param", method: "POST", path: "/v2/ec2?Action=CreateVpc", session: "s1", reqID: "r04",
			body: `{"params":{"cidrBlock":"not-a-cidr"}}`},
		{name: "malformed-json", method: "POST", path: "/v2/ec2?Action=CreateVpc", session: "s1", reqID: "r05",
			body: `{"params":`},
		{name: "missing-action", method: "POST", path: "/v2/ec2", session: "s1", reqID: "r06"},
		{name: "invalid-service", method: "POST", path: "/v2/nosuch?Action=CreateVpc", session: "s1", reqID: "r07"},
		{name: "invalid-session", method: "POST", path: "/v2/ec2?Action=DescribeVpcs", session: "no spaces allowed", reqID: "r08"},
		{name: "batch-stop", method: "POST", path: "/v2/ec2/batch", session: "s1", reqID: "r09",
			body: `{"requests":[{"action":"CreateVpc","params":{"cidrBlock":"10.1.0.0/16"}},{"action":"NoSuchAction"},{"action":"CreateVpc","params":{"cidrBlock":"10.2.0.0/16"}}]}`},
		{name: "batch-best-effort", method: "POST", path: "/v2/ec2/batch?mode=best-effort", session: "s1", reqID: "r10",
			body: `{"requests":[{"action":"CreateVpc","params":{"cidrBlock":"10.3.0.0/16"}},{"action":"NoSuchAction"},{"action":"CreateVpc","params":{"cidrBlock":"10.4.0.0/16"}}]}`},
		{name: "batch-empty", method: "POST", path: "/v2/ec2/batch", session: "s1", reqID: "r11", body: `{"requests":[]}`},
		{name: "reset", method: "POST", path: "/v2/ec2/reset", session: "s1", reqID: "r12"},
		{name: "describe-after-reset", method: "POST", path: "/v2/ec2?Action=DescribeVpcs", session: "s1", reqID: "r13"},
		{name: "default-session", method: "POST", path: "/v2/ec2", reqID: "r14",
			body: `{"action":"CreateVpc","params":{"cidrBlock":"10.9.0.0/16"}}`},
		{name: "actions", method: "GET", path: "/actions", reqID: "r15"},
		{name: "not-found", method: "GET", path: "/nope", reqID: "r16"},
		{name: "retired-invoke", method: "POST", path: "/invoke", session: "s2", reqID: "r17",
			body: `{"action":"CreateVpc","params":{"cidrBlock":"10.9.0.0/16"}}`},
		{name: "retired-reset", method: "POST", path: "/reset", reqID: "r18"},
	}

	for _, s := range script {
		dStatus, dBody, dCT, dID := s.run(t, direct)
		rStatus, rBody, rCT, rID := s.run(t, router)
		if dStatus != rStatus {
			t.Errorf("%s: status direct=%d router=%d", s.name, dStatus, rStatus)
		}
		if dBody != rBody {
			t.Errorf("%s: body diverged\ndirect: %q\nrouter: %q", s.name, dBody, rBody)
		}
		if dCT != rCT {
			t.Errorf("%s: content-type direct=%q router=%q", s.name, dCT, rCT)
		}
		if dID != rID {
			t.Errorf("%s: request-id direct=%q router=%q", s.name, dID, rID)
		}
		if strings.HasPrefix(s.path, "/v2/") && dID != s.reqID {
			t.Errorf("%s: answered request ID %q, want the client's %q echoed", s.name, dID, s.reqID)
		}
		if strings.HasPrefix(s.name, "retired-") && (dStatus != http.StatusNotFound || !strings.Contains(dBody, `"Code":"NotFound"`)) {
			t.Errorf("%s: a retired route answered %d %s, want the 404 NotFound envelope", s.name, dStatus, dBody)
		}
	}
}

// TestRequestIDClampAgrees: a client-tagged request ID longer than
// node and router keep is cut at a character boundary, so the echoed
// header and the envelope's RequestId carry the same ID — on a node
// directly and through the router.
func TestRequestIDClampAgrees(t *testing.T) {
	pool, err := tenant.New(ec2.Factory(), tenant.Config{})
	if err != nil {
		t.Fatal(err)
	}
	direct := serveFront(t, httpapi.New(ec2.New(), httpapi.WithPool(pool)))
	router := frontFleet(t, "n1", "n2")
	id := strings.Repeat("a", 127) + "é" // the é straddles byte 128
	for _, c := range []struct{ name, base, path string }{
		{"direct", direct, "/v2/ec2?Action=DescribeVpcs"},
		{"routed", router, "/v2/ec2?Action=DescribeVpcs"},
		{"direct error", direct, "/v2/ec2?Action=NoSuchAction"},
		{"routed error", router, "/v2/ec2?Action=NoSuchAction"},
	} {
		step := wireStep{name: c.name, method: "POST", path: c.path, session: "clamp", reqID: id}
		_, body, _, header := step.run(t, c.base)
		var env struct{ RequestId string }
		if err := json.Unmarshal([]byte(body), &env); err != nil {
			t.Fatalf("%s: %v in %q", c.name, err, body)
		}
		if header != env.RequestId || header != strings.Repeat("a", 127) {
			t.Errorf("%s: header echoes %q, envelope says %q; want both the 127 bytes before the cut character", c.name, header, env.RequestId)
		}
	}
}

// TestRouterAPIVersion: a node stamps 2.1, the router stamps
// 2.1+cluster over it, and the client's cluster detection reads it.
func TestRouterAPIVersion(t *testing.T) {
	direct := newEC2Node(t, "")
	_, rsrv := newRouter(t, 2, map[string]*httptest.Server{"n1": newEC2Node(t, "n1")})

	step := wireStep{name: "v", method: "POST", path: "/v2/ec2?Action=DescribeVpcs", session: "v1", reqID: "rv"}
	get := func(base string) string {
		req, _ := http.NewRequest(step.method, base+step.path, nil)
		req.Header.Set(httpapi.SessionHeader, step.session)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		return resp.Header.Get(httpapi.APIVersionHeader)
	}
	if v := get(direct.URL); v != httpapi.APIVersion {
		t.Fatalf("direct API version = %q, want %q", v, httpapi.APIVersion)
	}
	if v := get(rsrv.URL); v != httpapi.APIVersionCluster {
		t.Fatalf("router API version = %q, want %q", v, httpapi.APIVersionCluster)
	}

	cl := httpapi.NewClient(rsrv.URL).WithSession("v2s")
	if _, err := cl.Invoke(cloudapi.Request{Action: "DescribeVpcs"}); err != nil {
		t.Fatal(err)
	}
	if !cl.ClusterAware() {
		t.Fatalf("client APIVersion=%q: cluster endpoint not detected", cl.APIVersion())
	}
	dl := httpapi.NewClient(direct.URL).WithSession("v2s")
	if _, err := dl.Invoke(cloudapi.Request{Action: "DescribeVpcs"}); err != nil {
		t.Fatal(err)
	}
	if dl.ClusterAware() {
		t.Fatal("single node misdetected as cluster")
	}
}

// TestRouterSessionAffinity: a session's calls always land on one
// node — its state accumulates coherently through the router — and
// many sessions spread over the fleet.
func TestRouterSessionAffinity(t *testing.T) {
	rt, rsrv := newRouter(t, 2, map[string]*httptest.Server{
		"n1": newEC2Node(t, "n1"),
		"n2": newEC2Node(t, "n2"),
		"n3": newEC2Node(t, "n3"),
	})
	for i := 0; i < 24; i++ {
		sid := fmt.Sprintf("tenant-%02d", i)
		cl := httpapi.NewClient(rsrv.URL).WithSession(sid)
		for j := 0; j <= i%3; j++ {
			if _, err := cl.Invoke(cloudapi.Request{Action: "CreateVpc",
				Params: cloudapi.Params{"cidrBlock": cloudapi.Str(fmt.Sprintf("10.%d.0.0/16", j))}}); err != nil {
				t.Fatalf("%s create %d: %v", sid, j, err)
			}
		}
		res, err := cl.Invoke(cloudapi.Request{Action: "DescribeVpcs"})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := len(res.Get("vpcs").AsList()), i%3+1; got != want {
			t.Fatalf("%s sees %d vpcs, want %d: session state smeared across nodes", sid, got, want)
		}
	}
	rt.mu.RLock()
	byNode := map[string]int{}
	for _, node := range rt.placements {
		byNode[node]++
	}
	rt.mu.RUnlock()
	if len(byNode) < 2 {
		t.Fatalf("24 sessions all landed on one node: %v", byNode)
	}
}

// --- migration and failover --------------------------------------------

// toyScript drives the same deterministic call sequence the durable
// tests use, over the wire.
func toyStep(i int) wireStep {
	var action, body string
	switch i % 3 {
	case 0:
		action, body = "CreatePublicIp", `{"params":{"region":"us-east"}}`
	case 1:
		action, body = "CreateNic", `{"params":{"zone":"us-west"}}`
	default:
		action, body = "CreatePublicIp", `{"params":{"region":"mars"}}` // InvalidParameterValue
	}
	return wireStep{name: fmt.Sprintf("toy-%d", i), method: "POST",
		path: "/v2/toy?Action=" + action, body: body}
}

// TestRouterMigrationOnJoin: sessions live on n1; n2 joins; the
// sessions the ring reassigns are live-migrated (export → import) and
// keep answering byte-identically to a control fleet that never
// changed.
func TestRouterMigrationOnJoin(t *testing.T) {
	n1 := newToyNode(t, "n1", "")
	n2 := newToyNode(t, "n2", "")
	rt, rsrv := newRouter(t, 2, map[string]*httptest.Server{"n1": n1})
	control := newToyNode(t, "control", "")

	const sessions = 12
	const preCalls = 4
	sid := func(i int) string { return fmt.Sprintf("mig-%02d", i) }

	for i := 0; i < sessions; i++ {
		for c := 0; c < preCalls; c++ {
			s := toyStep(c)
			s.session, s.reqID = sid(i), fmt.Sprintf("pre-%02d-%d", i, c)
			s.run(t, rsrv.URL)
			s.run(t, control.URL)
		}
	}

	// n2 joins; the router migrates every session whose ring owner
	// moved.
	resp, err := http.Post(rsrv.URL+"/v2/cluster/join?name=n2&url="+n2.URL, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var joined struct {
		Joined   string `json:"joined"`
		Migrated int    `json:"migrated"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&joined); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if joined.Migrated == 0 {
		t.Fatal("join migrated no sessions: ring reassignment never happened")
	}
	t.Logf("join migrated %d/%d sessions", joined.Migrated, sessions)

	// Every session — moved or not — continues byte-identically.
	for i := 0; i < sessions; i++ {
		for c := preCalls; c < preCalls+3; c++ {
			s := toyStep(c)
			s.session, s.reqID = sid(i), fmt.Sprintf("post-%02d-%d", i, c)
			rStatus, rBody, _, _ := s.run(t, rsrv.URL)
			cStatus, cBody, _, _ := s.run(t, control.URL)
			if rStatus != cStatus || rBody != cBody {
				t.Fatalf("session %s call %d diverged after migration:\nrouter : %d %q\ncontrol: %d %q",
					sid(i), c, rStatus, rBody, cStatus, cBody)
			}
		}
	}

	// The fleet map reflects the new placement split.
	rt.mu.RLock()
	onN2 := 0
	for _, node := range rt.placements {
		if node == "n2" {
			onN2++
		}
	}
	rt.mu.RUnlock()
	if onN2 != joined.Migrated {
		t.Fatalf("placements report %d sessions on n2, join reported %d migrated", onN2, joined.Migrated)
	}
}

// TestRouterNodeDeathFailover: two nodes over one shared data
// directory (the cluster deployment shape); one is killed with
// traffic in flight. The first request to a dead-owned session
// answers a transient BadGateway envelope; after the ring rebalances,
// the surviving node adopts the session from disk and every response
// is byte-identical to an unkilled control.
func TestRouterNodeDeathFailover(t *testing.T) {
	dir := t.TempDir()
	n1 := newToyNode(t, "n1", dir)
	n2 := newToyNode(t, "n2", dir)
	rt, rsrv := newRouter(t, 1, map[string]*httptest.Server{"n1": n1, "n2": n2})
	control := newToyNode(t, "control", "")

	const sessions = 10
	const preCalls = 4
	sid := func(i int) string { return fmt.Sprintf("kill-%02d", i) }
	for i := 0; i < sessions; i++ {
		for c := 0; c < preCalls; c++ {
			s := toyStep(c)
			s.session, s.reqID = sid(i), fmt.Sprintf("pre-%02d-%d", i, c)
			s.run(t, rsrv.URL)
			s.run(t, control.URL)
		}
	}

	rt.mu.RLock()
	killedOwned := 0
	for _, node := range rt.placements {
		if node == "n1" {
			killedOwned++
		}
	}
	rt.mu.RUnlock()
	if killedOwned == 0 {
		t.Fatal("no session landed on n1; test cannot exercise failover")
	}
	n1.Close() // kill

	for i := 0; i < sessions; i++ {
		for c := preCalls; c < preCalls+3; c++ {
			s := toyStep(c)
			s.session, s.reqID = sid(i), fmt.Sprintf("post-%02d-%d", i, c)

			var rStatus int
			var rBody string
			for attempt := 0; attempt < 5; attempt++ {
				rStatus, rBody, _, _ = s.run(t, rsrv.URL)
				if rStatus != http.StatusBadGateway && rStatus != http.StatusServiceUnavailable {
					break
				}
				// The envelope must be the unified shape with a
				// transient code — the contract that lets retry
				// clients ride through the death.
				var we struct {
					IsError bool   `json:"__error"`
					Code    string `json:"Code"`
					ReqID   string `json:"RequestId"`
				}
				if err := json.Unmarshal([]byte(rBody), &we); err != nil || !we.IsError {
					t.Fatalf("router 5xx is not the unified envelope: %q", rBody)
				}
				if !cloudapi.IsTransientCode(we.Code) {
					t.Fatalf("router failure code %q is not transient", we.Code)
				}
				if we.ReqID == "" {
					t.Fatal("router failure envelope lacks a RequestId")
				}
				rt.rebalance() // deterministic stand-in for the async prober
			}
			cStatus, cBody, _, _ := s.run(t, control.URL)
			if rStatus != cStatus || rBody != cBody {
				t.Fatalf("session %s call %d diverged after node death:\nrouter : %d %q\ncontrol: %d %q",
					sid(i), c, rStatus, rBody, cStatus, cBody)
			}
		}
	}
}

// TestRouterAllNodesDead: with an empty ring the router answers the
// transient ServiceUnavailable envelope with a derived request ID.
func TestRouterAllNodesDead(t *testing.T) {
	n1 := newToyNode(t, "n1", "")
	rt, rsrv := newRouter(t, 1, map[string]*httptest.Server{"n1": n1})
	n1.Close()
	rt.CheckNow() // probe fails once; threshold 1 removes the node

	resp, err := http.Post(rsrv.URL+"/v2/toy?Action=CreatePublicIp", "application/json",
		strings.NewReader(`{"params":{"region":"us-east"}}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	var we struct {
		IsError bool   `json:"__error"`
		Code    string `json:"Code"`
		ReqID   string `json:"RequestId"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&we); err != nil {
		t.Fatal(err)
	}
	if !we.IsError || we.Code != cloudapi.CodeServiceUnavailable || !cloudapi.IsTransientCode(we.Code) {
		t.Fatalf("envelope = %+v, want transient ServiceUnavailable", we)
	}
	if !strings.HasPrefix(we.ReqID, "lce-r-") {
		t.Fatalf("derived router request ID %q lacks the lce-r- marker", we.ReqID)
	}
}

// --- fleet views -------------------------------------------------------

// TestRouterClusterView: GET /v2/cluster reports membership, health
// and placements; it is served by the router itself, never forwarded.
func TestRouterClusterView(t *testing.T) {
	n1 := newToyNode(t, "n1", "")
	n2 := newToyNode(t, "n2", "")
	rt, rsrv := newRouter(t, 1, map[string]*httptest.Server{"n1": n1, "n2": n2})

	for i := 0; i < 8; i++ {
		s := toyStep(0)
		s.session = fmt.Sprintf("view-%d", i)
		s.run(t, rsrv.URL)
	}
	n2.Close()
	rt.CheckNow()

	resp, err := http.Get(rsrv.URL + "/v2/cluster")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v := resp.Header.Get(httpapi.APIVersionHeader); v != httpapi.APIVersionCluster {
		t.Fatalf("cluster view version %q", v)
	}
	var view struct {
		APIVersion string `json:"apiVersion"`
		VNodes     int    `json:"vnodes"`
		Placements int    `json:"placements"`
		Nodes      []struct {
			Name     string `json:"name"`
			Healthy  bool   `json:"healthy"`
			InRing   bool   `json:"inRing"`
			Sessions int    `json:"sessions"`
		} `json:"nodes"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	if view.VNodes != DefaultVNodes || view.APIVersion != httpapi.APIVersionCluster {
		t.Fatalf("view meta: %+v", view)
	}
	if len(view.Nodes) != 2 {
		t.Fatalf("view lists %d nodes, want 2", len(view.Nodes))
	}
	total := 0
	for _, n := range view.Nodes {
		total += n.Sessions
		switch n.Name {
		case "n1":
			if !n.Healthy || !n.InRing {
				t.Fatalf("n1 should be healthy and in the ring: %+v", n)
			}
		case "n2":
			if n.Healthy || n.InRing {
				t.Fatalf("dead n2 still healthy/in-ring: %+v", n)
			}
		}
	}
	if total != view.Placements || total != 8 {
		t.Fatalf("placement counts: nodes sum %d, placements %d, want 8", total, view.Placements)
	}
}

// TestRouterSessionsAggregation: GET /v2/sessions through the router
// sums the fleet and carries each node's own answer (with its node
// field) in the breakdown.
func TestRouterSessionsAggregation(t *testing.T) {
	_, rsrv := newRouter(t, 2, map[string]*httptest.Server{
		"n1": newEC2Node(t, "n1"),
		"n2": newEC2Node(t, "n2"),
	})
	for i := 0; i < 10; i++ {
		cl := httpapi.NewClient(rsrv.URL).WithSession(fmt.Sprintf("agg-%d", i))
		if _, err := cl.Invoke(cloudapi.Request{Action: "DescribeVpcs"}); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Get(rsrv.URL + "/v2/sessions")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var agg struct {
		Cluster  bool    `json:"cluster"`
		Sessions float64 `json:"sessions"`
		Nodes    []struct {
			Node     string  `json:"node"`
			Sessions float64 `json:"sessions"`
		} `json:"nodes"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&agg); err != nil {
		t.Fatal(err)
	}
	if !agg.Cluster || len(agg.Nodes) != 2 {
		t.Fatalf("aggregation shape: %+v", agg)
	}
	var sum float64
	names := map[string]bool{}
	for _, n := range agg.Nodes {
		sum += n.Sessions
		names[n.Node] = true
	}
	if sum != agg.Sessions {
		t.Fatalf("summed sessions %v != fleet total %v", sum, agg.Sessions)
	}
	if !names["n1"] || !names["n2"] {
		t.Fatalf("per-node rows lack node names: %+v", agg.Nodes)
	}
}

// TestRouterMetricsAggregation: the merged exposition carries every
// node's samples with injected node labels and exactly one TYPE line
// per family, and lints — one label schema per family included. The
// nodes carry what lce.NewServer mounts: registry, operations plane,
// and a pool reporting into the registry.
func TestRouterMetricsAggregation(t *testing.T) {
	observed := func(name string, seed int64) *httptest.Server {
		ob := obsv.New(seed, 0)
		ops := opsplane.New(opsplane.Config{Service: "ec2", Obs: ob, Objectives: opsplane.DefaultObjectives()})
		pool, err := tenant.New(ec2.Factory(), tenant.Config{Registry: ob.Registry, OnEvict: ops.OnEvict()})
		if err != nil {
			t.Fatal(err)
		}
		return newEC2Node(t, name, httpapi.WithPool(pool), httpapi.WithObs(ob), httpapi.WithOps(ops))
	}
	_, rsrv := newRouter(t, 2, map[string]*httptest.Server{
		"n1": observed("n1", 1),
		"n2": observed("n2", 2),
	})
	for i := 0; i < 12; i++ {
		cl := httpapi.NewClient(rsrv.URL).WithSession(fmt.Sprintf("m-%d", i))
		if _, err := cl.Invoke(cloudapi.Request{Action: "DescribeVpcs"}); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Get(rsrv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	text := string(body)
	if !strings.Contains(text, `node="n1"`) || !strings.Contains(text, `node="n2"`) {
		t.Fatalf("merged exposition lacks node labels:\n%s", text[:min(len(text), 800)])
	}
	seenType := map[string]bool{}
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			if seenType[line] {
				t.Fatalf("duplicate %q in merged exposition", line)
			}
			seenType[line] = true
		}
	}
	if len(seenType) == 0 {
		t.Fatal("merged exposition has no TYPE lines")
	}
	if _, err := obsv.LintExposition(strings.NewReader(text)); err != nil {
		t.Errorf("merged exposition does not lint: %v", err)
	}
}

// TestInjectLabel covers the three sample shapes of the exposition
// format.
func TestInjectLabel(t *testing.T) {
	cases := [][2]string{
		{`m_total 5`, `m_total{node="n1"} 5`},
		{`m_total{route="invoke"} 5`, `m_total{node="n1",route="invoke"} 5`},
		{`m_bucket{le="0.1"} 2`, `m_bucket{node="n1",le="0.1"} 2`},
	}
	for _, c := range cases {
		if got := injectLabel(c[0], "n1"); got != c[1] {
			t.Errorf("injectLabel(%q) = %q, want %q", c[0], got, c[1])
		}
	}
}

// TestRouterLeaveDrains: a graceful leave migrates the leaver's
// sessions while it can still export them.
func TestRouterLeaveDrains(t *testing.T) {
	n1 := newToyNode(t, "n1", "")
	n2 := newToyNode(t, "n2", "")
	rt, rsrv := newRouter(t, 2, map[string]*httptest.Server{"n1": n1, "n2": n2})

	const sessions = 10
	for i := 0; i < sessions; i++ {
		for c := 0; c < 3; c++ {
			s := toyStep(c)
			s.session = fmt.Sprintf("leave-%d", i)
			s.run(t, rsrv.URL)
		}
	}
	resp, err := http.Post(rsrv.URL+"/v2/cluster/leave?name=n1", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	rt.mu.RLock()
	_, stillKnown := rt.nodes["n1"]
	for sid, node := range rt.placements {
		if node != "n2" {
			t.Errorf("session %s still placed on %s after leave", sid, node)
		}
	}
	rt.mu.RUnlock()
	if stillKnown {
		t.Fatal("left node still in membership")
	}

	// State survived the drain: sessions keep their ID streams.
	for i := 0; i < sessions; i++ {
		s := toyStep(3)
		s.session = fmt.Sprintf("leave-%d", i)
		status, body, _, _ := s.run(t, rsrv.URL)
		if status != http.StatusOK {
			t.Fatalf("post-leave call for %s failed: %d %s", s.session, status, body)
		}
		// The 4th create on this session must mint the 4th ID, not
		// restart from 1 — proof the world moved, not respawned.
		if !strings.Contains(body, "eipalloc-") {
			t.Fatalf("unexpected body %q", body)
		}
	}
}
