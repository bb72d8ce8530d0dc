package cluster

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"lce/internal/cloudapi"
	"lce/internal/httpapi"
	"lce/internal/obsv"
	"lce/internal/opsplane"
	"lce/internal/tenant"
)

// stitchSkew is the clock-skew allowance for in-process fleets: all
// spans share one host clock, but a node's ingress span ends after its
// handler returns — concurrent with the router finishing the forward
// span — so child windows can trail their parents by scheduling delay.
const stitchSkew = 2 * time.Second

// newTracedRouter fronts the servers with tracing mounted, probing
// manual, and deterministic IDs from seed.
func newTracedRouter(t *testing.T, seed int64, servers map[string]*httptest.Server) (*Router, *httptest.Server) {
	t.Helper()
	var nodes []Node
	for name, srv := range servers {
		nodes = append(nodes, Node{Name: name, URL: srv.URL})
	}
	rt, err := NewRouter(Config{Nodes: nodes, FailThreshold: 2, ProbeInterval: -1, Obs: obsv.New(seed, 0)})
	if err != nil {
		t.Fatal(err)
	}
	rsrv := httptest.NewServer(rt.Handler())
	t.Cleanup(rsrv.Close)
	return rt, rsrv
}

// nodeObs builds a fleet member's tracer the way lce-server does:
// seeded (seed 1 is the production default everywhere) and salted
// with the node name, so same-seed processes mint disjoint root IDs.
func nodeObs(name string, seed int64) *obsv.Obs {
	ob := obsv.New(seed, 0)
	ob.Tracer.SetIdentity(name)
	return ob
}

// newTracedToyNode is newToyNode with a tracer mounted.
func newTracedToyNode(t *testing.T, name string, seed int64) *httptest.Server {
	t.Helper()
	factory := toyFactory(t)
	pool, err := tenant.New(cloudapi.BackendFactory(factory), tenant.Config{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(httpapi.New(factory(),
		httpapi.WithPool(pool), httpapi.WithNode(name), httpapi.WithObs(nodeObs(name, seed))))
	t.Cleanup(srv.Close)
	return srv
}

// pullFleetSpans polls the router's merged trace dump until pred is
// satisfied (node span End runs after the handler returns, so the last
// request's spans can lag the response by a beat).
func pullFleetSpans(t *testing.T, base string, pred func([]obsv.SpanData) bool) []obsv.SpanData {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(base + "/debug/traces?format=jsonl")
		if err != nil {
			t.Fatal(err)
		}
		spans, err := obsv.ReadJSONL(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if pred(spans) || time.Now().After(deadline) {
			return spans
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// spansByName indexes a span set by name, keeping every instance.
func spansByName(spans []obsv.SpanData) map[string][]obsv.SpanData {
	out := map[string][]obsv.SpanData{}
	for _, sp := range spans {
		out[sp.Name] = append(out[sp.Name], sp)
	}
	return out
}

// TestRouterTracePropagation: one traced request from an instrumented
// client becomes ONE trace across three processes — client root,
// router ingress (remote child of the client span), route.decide and
// forward.<service> children, and the node's ingress as a remote child
// of the forward hop — and the merged fleet dump passes the stitch
// validator.
func TestRouterTracePropagation(t *testing.T) {
	// Every process seeds 1 — the production default — so this test
	// also proves identity salting keeps same-seed root IDs disjoint.
	_, rsrv := newTracedRouter(t, 1, map[string]*httptest.Server{
		"n1": newEC2Node(t, "n1", httpapi.WithObs(nodeObs("n1", 1))),
		"n2": newEC2Node(t, "n2", httpapi.WithObs(nodeObs("n2", 1))),
		"n3": newEC2Node(t, "n3", httpapi.WithObs(nodeObs("n3", 1))),
	})

	// The "client tier": a tracer whose span context rides X-LCE-Trace.
	ct := obsv.NewTracer(99, 0)
	_, csp := ct.StartRoot(context.Background(), "client.invoke")
	req, err := http.NewRequest("POST", rsrv.URL+"/v2/ec2?Action=CreateVpc",
		strings.NewReader(`{"params":{"cidrBlock":"10.0.0.0/16"}}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(httpapi.SessionHeader, "trace-1")
	obsv.Inject(req.Header, csp)
	wantTrace := csp.SpanContext().TraceID
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	csp.End()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("traced create = %d", resp.StatusCode)
	}

	// An untraced client too: the router must mint a fresh root.
	req2, _ := http.NewRequest("POST", rsrv.URL+"/v2/ec2?Action=DescribeVpcs", nil)
	req2.Header.Set(httpapi.SessionHeader, "trace-1")
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()

	fleet := pullFleetSpans(t, rsrv.URL, func(spans []obsv.SpanData) bool {
		n := 0
		for _, sp := range spans {
			if sp.TraceID == wantTrace {
				n++
			}
		}
		return n >= 3 // router ingress + decide + forward + node spans
	})
	merged := append(fleet, ct.Snapshot()...)

	st, err := obsv.ValidateStitch(merged, stitchSkew)
	if err != nil {
		t.Fatalf("stitch over merged fleet dump: %v", err)
	}
	if st.Remote < 2 || st.Stitched != st.Remote {
		t.Fatalf("stitch stats %+v: want ≥2 remote spans, all stitched", st)
	}
	if st.Nodes < 2 { // router plus at least the serving node
		t.Fatalf("stitch stats %+v: node attribution missing", st)
	}

	// Walk the propagated trace: client → router → node, one trace ID.
	var inTrace []obsv.SpanData
	for _, sp := range merged {
		if sp.TraceID == wantTrace {
			inTrace = append(inTrace, sp)
		}
	}
	byName := spansByName(inTrace)
	ingress := byName["http.v2.invoke"]
	if len(ingress) != 2 {
		t.Fatalf("trace %s has %d http.v2.invoke spans, want 2 (router + node): %+v", wantTrace, len(ingress), byName)
	}
	var routerIngress, nodeIngress obsv.SpanData
	for _, sp := range ingress {
		if sp.Attrs["node"] == routerNode {
			routerIngress = sp
		} else {
			nodeIngress = sp
		}
	}
	if !routerIngress.Remote || routerIngress.ParentID != csp.SpanContext().SpanID {
		t.Fatalf("router ingress not stitched under client span: %+v", routerIngress)
	}
	forwards := byName["forward.ec2"]
	if len(forwards) != 1 || forwards[0].Attrs["target"] == "" {
		t.Fatalf("trace lacks a forward.ec2 hop: %+v", byName)
	}
	if len(byName["route.decide"]) != 1 {
		t.Fatalf("trace lacks route.decide: %+v", byName)
	}
	if !nodeIngress.Remote || nodeIngress.ParentID != forwards[0].SpanID {
		t.Fatalf("node ingress not parented under forward hop: node=%+v forward=%+v", nodeIngress, forwards[0])
	}
	if nodeIngress.Attrs["node"] != forwards[0].Attrs["target"] {
		t.Fatalf("node span attributed to %q, forward targeted %q", nodeIngress.Attrs["node"], forwards[0].Attrs["target"])
	}

	// The untraced client's request is its own trace, rooted at the
	// router (no remote flag), with the same downstream shape.
	var freshRoot *obsv.SpanData
	for i, sp := range fleet {
		if sp.Name == "http.v2.invoke" && sp.Attrs["node"] == routerNode && sp.TraceID != wantTrace {
			freshRoot = &fleet[i]
		}
	}
	if freshRoot == nil || freshRoot.Remote || freshRoot.ParentID != "" {
		t.Fatalf("untraced client's router ingress should be a fresh root: %+v", freshRoot)
	}
}

// TestRouterTraceDeterminism: two same-seed fleets serving the same
// request sequence mint identical span IDs end to end, regardless of
// process count — the property that makes fleet traces diffable
// across runs.
func TestRouterTraceDeterminism(t *testing.T) {
	run := func() []obsv.SpanData {
		_, rsrv := newTracedRouter(t, 1, map[string]*httptest.Server{
			"n1": newEC2Node(t, "n1", httpapi.WithObs(nodeObs("n1", 1))),
			"n2": newEC2Node(t, "n2", httpapi.WithObs(nodeObs("n2", 1))),
		})
		for i := 0; i < 4; i++ {
			s := wireStep{method: "POST", path: "/v2/ec2?Action=DescribeVpcs",
				session: fmt.Sprintf("det-%d", i), reqID: fmt.Sprintf("d%02d", i)}
			s.run(t, rsrv.URL)
		}
		return pullFleetSpans(t, rsrv.URL, func(spans []obsv.SpanData) bool {
			ingress := 0
			for _, sp := range spans {
				if sp.Remote {
					ingress++
				}
			}
			return ingress >= 4
		})
	}
	a, b := run(), run()
	idsOf := func(spans []obsv.SpanData) map[string]string {
		out := map[string]string{}
		for _, sp := range spans {
			out[sp.TraceID+"/"+sp.SpanID] = sp.Name
		}
		return out
	}
	ia, ib := idsOf(a), idsOf(b)
	for k, name := range ia {
		if ib[k] != name {
			t.Fatalf("span %s (%s) from run A missing or renamed in run B (%q)", k, name, ib[k])
		}
	}
	if len(ia) != len(ib) {
		t.Fatalf("run A minted %d distinct spans, run B %d", len(ia), len(ib))
	}
}

// TestRouterRequestIDForwarding: the router hands its derived request
// ID to the node when the client sent none, so the ID the client sees
// is the ID in the node's flight records — and a client-chosen ID
// passes through untouched.
func TestRouterRequestIDForwarding(t *testing.T) {
	_, rsrv := newRouter(t, 2, map[string]*httptest.Server{"n1": newEC2Node(t, "n1")})

	s := wireStep{method: "POST", path: "/v2/ec2?Action=DescribeVpcs", session: "rid-1", reqID: "chosen-by-client"}
	_, _, _, echoed := s.run(t, rsrv.URL)
	if echoed != "chosen-by-client" {
		t.Fatalf("client-chosen request ID came back as %q", echoed)
	}

	s.reqID = ""
	_, _, _, derived := s.run(t, rsrv.URL)
	if !strings.HasPrefix(derived, "lce-r-") {
		t.Fatalf("router-derived request ID %q should carry the lce-r- marker (node minted its own instead)", derived)
	}
}

// TestRouterSSEReconnect: when a node drops its event stream (restart,
// kill -9), the router's multiplexer announces the gap, reconnects
// with backoff, and resumes relaying — the merged stream outlives any
// one node's lifetime.
func TestRouterSSEReconnect(t *testing.T) {
	var conns atomic.Int64
	node := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/debug/events" {
			http.NotFound(w, r)
			return
		}
		n := conns.Add(1)
		w.Header().Set("Content-Type", "text/event-stream")
		w.WriteHeader(http.StatusOK)
		fmt.Fprintf(w, "data: hello-%d\n\n", n)
		w.(http.Flusher).Flush()
		if n == 1 {
			return // simulate the node dying mid-stream
		}
		<-r.Context().Done() // restarted node: stream stays up
	}))
	t.Cleanup(node.Close)

	rt, err := NewRouter(Config{
		Nodes:         []Node{{Name: "n1", URL: node.URL}},
		FailThreshold: 5,
		ProbeInterval: -1,
		SSERetryMax:   80 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	rsrv := httptest.NewServer(rt.Handler())
	t.Cleanup(rsrv.Close)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, "GET", rsrv.URL+"/debug/events", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	want := []string{"data: hello-1", ": node n1 disconnected", ": node n1 reconnected", "data: hello-2"}
	next := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() && next < len(want) {
		if strings.TrimSpace(sc.Text()) == want[next] {
			next++
		}
	}
	if next < len(want) {
		t.Fatalf("merged stream never reached %q (saw %d/%d markers; %d node connections)",
			want[next], next, len(want), conns.Load())
	}
	if conns.Load() < 2 {
		t.Fatalf("router never reconnected: %d connections", conns.Load())
	}
}

// TestMigrationTraceContinuity: a 3-node fleet under traffic gains a
// node mid-stream; migrated sessions' next requests trace through the
// NEW owner under the same router span taxonomy, migrate spans bracket
// the placement flip, and the combined dump passes -stitch.
func TestMigrationTraceContinuity(t *testing.T) {
	n1 := newTracedToyNode(t, "n1", 1)
	n2 := newTracedToyNode(t, "n2", 1)
	n3 := newTracedToyNode(t, "n3", 1)
	rt, rsrv := newTracedRouter(t, 1, map[string]*httptest.Server{"n1": n1, "n2": n2})

	const sessions = 10
	sid := func(i int) string { return fmt.Sprintf("cont-%02d", i) }
	for i := 0; i < sessions; i++ {
		for c := 0; c < 3; c++ {
			s := toyStep(c)
			s.session, s.reqID = sid(i), fmt.Sprintf("pre-%02d-%d", i, c)
			s.run(t, rsrv.URL)
		}
	}

	// n3 joins mid-traffic; the ring reassigns some sessions to it.
	resp, err := http.Post(rsrv.URL+"/v2/cluster/join?name=n3&url="+n3.URL, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var joined struct {
		Migrated int `json:"migrated"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&joined); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if joined.Migrated == 0 {
		t.Fatal("join migrated nothing; cannot exercise trace continuity")
	}

	// Post-join traffic: every session keeps answering, and the
	// migrated ones now trace through n3.
	for i := 0; i < sessions; i++ {
		s := toyStep(3)
		s.session, s.reqID = sid(i), fmt.Sprintf("post-%02d", i)
		if status, body, _, _ := s.run(t, rsrv.URL); status != http.StatusOK {
			t.Fatalf("post-join call for %s: %d %s", sid(i), status, body)
		}
	}

	rt.mu.RLock()
	movedTo3 := 0
	for _, node := range rt.placements {
		if node == "n3" {
			movedTo3++
		}
	}
	rt.mu.RUnlock()
	if movedTo3 == 0 {
		t.Fatal("no placement flipped to n3")
	}

	spans := pullFleetSpans(t, rsrv.URL, func(spans []obsv.SpanData) bool {
		seen := 0
		for _, sp := range spans {
			if sp.Name == "forward.toy" && sp.Attrs["target"] == "n3" {
				seen++
			}
		}
		return seen >= movedTo3
	})
	st, err := obsv.ValidateStitch(spans, stitchSkew)
	if err != nil {
		t.Fatalf("stitch over post-migration dump: %v", err)
	}
	if st.Migrations < joined.Migrated {
		t.Fatalf("stitch saw %d migrations, join reported %d", st.Migrations, joined.Migrated)
	}

	// Each migrate trace carries the full bracket: export and import
	// (live moves) before the flip.
	byTrace := map[string][]obsv.SpanData{}
	for _, sp := range spans {
		byTrace[sp.TraceID] = append(byTrace[sp.TraceID], sp)
	}
	liveMoves := 0
	for _, tr := range byTrace {
		names := spansByName(tr)
		if len(names[obsv.SpanMigrate]) == 0 {
			continue
		}
		if len(names[obsv.SpanMigrateFlip]) != 1 {
			t.Fatalf("migrate trace lacks exactly one flip: %+v", names)
		}
		if names[obsv.SpanMigrate][0].Attrs["mode"] == "live" {
			liveMoves++
			if len(names[obsv.SpanMigrateExport]) != 1 || len(names[obsv.SpanMigrateImport]) != 1 {
				t.Fatalf("live migrate trace lacks export/import pair: %+v", names)
			}
		}
	}
	if liveMoves == 0 {
		t.Fatal("no live migration trace found (all adopted?)")
	}

	// A migrated session's next request is stitched through n3.
	found := false
	for _, sp := range spans {
		if sp.Remote && sp.Attrs["node"] == "n3" && strings.HasPrefix(sp.Name, "http.") {
			found = true
		}
	}
	if !found {
		t.Fatal("no post-migration request stitched through the new owner")
	}
}

// TestRouterTracingByteParity: two identical 3-node fleets — one fully
// traced (router and nodes), one with tracing off — answer the scripted
// wire sequence byte-identically: tracing is invisible on the wire
// (the additive Server-Timing header excepted, per the node contract).
func TestRouterTracingByteParity(t *testing.T) {
	_, plain := newRouter(t, 2, map[string]*httptest.Server{
		"n1": newEC2Node(t, "n1"),
		"n2": newEC2Node(t, "n2"),
		"n3": newEC2Node(t, "n3"),
	})
	_, traced := newTracedRouter(t, 1, map[string]*httptest.Server{
		"n1": newEC2Node(t, "n1", httpapi.WithObs(nodeObs("n1", 1))),
		"n2": newEC2Node(t, "n2", httpapi.WithObs(nodeObs("n2", 1))),
		"n3": newEC2Node(t, "n3", httpapi.WithObs(nodeObs("n3", 1))),
	})

	script := []wireStep{
		{name: "create", method: "POST", path: "/v2/ec2?Action=CreateVpc", session: "p1", reqID: "t01",
			body: `{"params":{"cidrBlock":"10.0.0.0/16"}}`},
		{name: "describe", method: "POST", path: "/v2/ec2?Action=DescribeVpcs", session: "p1", reqID: "t02"},
		{name: "invalid-action", method: "POST", path: "/v2/ec2?Action=NoSuchAction", session: "p1", reqID: "t03"},
		{name: "batch", method: "POST", path: "/v2/ec2/batch", session: "p2", reqID: "t04",
			body: `{"requests":[{"action":"CreateVpc","params":{"cidrBlock":"10.1.0.0/16"}},{"action":"DescribeVpcs"}]}`},
		{name: "default-session", method: "POST", path: "/v2/ec2", reqID: "t05",
			body: `{"action":"CreateVpc","params":{"cidrBlock":"10.2.0.0/16"}}`},
		{name: "reset", method: "POST", path: "/v2/ec2/reset", session: "p1", reqID: "t06"},
		{name: "actions", method: "GET", path: "/actions", reqID: "t07"},
	}
	for _, s := range script {
		pStatus, pBody, pCT, pID := s.run(t, plain.URL)
		tStatus, tBody, tCT, tID := s.run(t, traced.URL)
		if pStatus != tStatus || pBody != tBody || pCT != tCT || pID != tID {
			t.Errorf("%s: traced fleet diverged from untraced\nplain : %d %q %q %q\ntraced: %d %q %q %q",
				s.name, pStatus, pCT, pID, pBody, tStatus, tCT, tID, tBody)
		}
	}
}

// TestRouterFleetHealthz: the router's /healthz runs the multi-window
// burn-rate engine over per-node forward counters and names the
// worst-offending node — while the status code stays a liveness
// verdict (200 while any member answers, burning SLO or not).
func TestRouterFleetHealthz(t *testing.T) {
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"__error":true,"Code":"InternalFailure"}`, http.StatusInternalServerError)
	}))
	t.Cleanup(bad.Close)
	_, rsrv := newTracedRouter(t, 1, map[string]*httptest.Server{
		"good": newEC2Node(t, "good"),
		"bad":  bad,
	})

	sawBad := false
	for i := 0; i < 24; i++ {
		s := wireStep{method: "POST", path: "/v2/ec2?Action=DescribeVpcs",
			session: fmt.Sprintf("slo-%02d", i), reqID: fmt.Sprintf("s%02d", i)}
		status, _, _, _ := s.run(t, rsrv.URL)
		if status == http.StatusInternalServerError {
			sawBad = true
		}
	}
	if !sawBad {
		t.Fatal("no session hashed onto the failing node; cannot exercise attribution")
	}

	resp, err := http.Get(rsrv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz = %d: SLO burn must not flip liveness", resp.StatusCode)
	}
	var hz struct {
		SLO struct {
			Verdict string                            `json:"verdict"`
			Nodes   map[string][]opsplane.CheckResult `json:"nodes"`
			Worst   struct {
				Node  string  `json:"node"`
				SLO   string  `json:"slo"`
				Burn  float64 `json:"burn"`
				Phase string  `json:"phase"`
			} `json:"worst"`
		} `json:"slo"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	if hz.SLO.Verdict != "breach" {
		t.Fatalf("fleet verdict %q with a node serving pure 500s", hz.SLO.Verdict)
	}
	if hz.SLO.Worst.Node != "bad" {
		t.Fatalf("worst offender %q, want the failing node", hz.SLO.Worst.Node)
	}
	if hz.SLO.Worst.Burn <= 1 {
		t.Fatalf("worst burn %v should exceed 1", hz.SLO.Worst.Burn)
	}
	if len(hz.SLO.Nodes) != 2 {
		t.Fatalf("per-node checks for %d nodes, want 2", len(hz.SLO.Nodes))
	}
}
