package eval

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"lce/internal/cloud/aws/ec2"
	"lce/internal/cloudapi"
	"lce/internal/cloudapi/cloudapitest"
	"lce/internal/cluster"
	"lce/internal/httpapi"
	"lce/internal/interp"
	"lce/internal/obsv"
	"lce/internal/spec"
	"lce/internal/tenant"
)

// countingBackend counts the calls that reach one node's backends.
type countingBackend struct {
	cloudapi.Backend
	calls *atomic.Int64
}

func (b countingBackend) Invoke(req cloudapi.Request) (cloudapi.Result, error) {
	b.calls.Add(1)
	return b.Backend.Invoke(req)
}

// startNode boots an in-process lce-server node: a pooled factory
// behind the full HTTP surface, named as a cluster member.
func startNode(t *testing.T, name string, factory cloudapi.BackendFactory, meta cloudapi.Backend, opts ...httpapi.Option) *httptest.Server {
	t.Helper()
	pool, err := tenant.New(factory, tenant.Config{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(httpapi.New(meta, append([]httpapi.Option{httpapi.WithPool(pool), httpapi.WithNode(name)}, opts...)...))
	t.Cleanup(srv.Close)
	return srv
}

// startRouter fronts nodes with manual probing; a non-nil obs mounts
// the router's span taxonomy.
func startRouter(t *testing.T, nodes []cluster.Node, ob *obsv.Obs) *httptest.Server {
	t.Helper()
	rt, err := cluster.NewRouter(cluster.Config{Nodes: nodes, ProbeInterval: -1, Obs: ob})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(rt.Handler())
	t.Cleanup(func() { srv.Close(); rt.Close() })
	return srv
}

// toyCall issues one deterministic learned-emulator call and returns
// the raw wire answer, so continuity can be checked byte for byte.
func toyCall(t *testing.T, base, session string, i int) (int, string) {
	t.Helper()
	req, err := http.NewRequest("POST", base+"/v2/toy?Action=CreatePublicIp",
		strings.NewReader(`{"params":{"region":"us-east"}}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(httpapi.SessionHeader, session)
	req.Header.Set(httpapi.RequestIDHeader, fmt.Sprintf("%s-%d", session, i))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := httpapi.ReadBounded(resp.Body, httpapi.MaxBody)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// TestClusterBench runs the three scale-out scenarios at smoke size on
// the real node and router stack. Direct, routed and routed-traced
// calls answer alike; a 2-node fleet splits the sessions across both
// nodes; and a join migrates sessions without breaking byte
// continuity.
func TestClusterBench(t *testing.T) {
	// Routing overhead modes: the same calls, direct and through a
	// one-node router with and without tracing, answer alike.
	node := startNode(t, "n1", ec2.Factory(), ec2.New())
	tnode := startNode(t, "n1", ec2.Factory(), ec2.New(), httpapi.WithObs(obsv.New(1, 0)))
	modes := []struct {
		name string
		url  string
	}{
		{"direct", node.URL},
		{"routed", startRouter(t, []cluster.Node{{Name: "n1", URL: node.URL}}, nil).URL},
		{"routed-traced", startRouter(t, []cluster.Node{{Name: "n1", URL: tnode.URL}}, obsv.New(1, 0)).URL},
	}
	var want []cloudapi.Result
	for _, m := range modes {
		cl := httpapi.NewClient(m.url).WithSession("overhead-" + m.name)
		var got []cloudapi.Result
		for _, req := range []cloudapi.Request{
			{Action: "CreateVpc", Params: cloudapi.Params{"cidrBlock": cloudapi.Str("10.0.0.0/16")}},
			{Action: "DescribeVpcs"},
		} {
			r, err := cl.Invoke(req)
			if err != nil {
				t.Fatalf("%s: %s: %v", m.name, req.Action, err)
			}
			got = append(got, r)
		}
		if want == nil {
			want = got
		} else if !cloudapitest.DeepEqual(got, want) {
			t.Fatalf("%s answered %v, direct answered %v", m.name, got, want)
		}
	}

	// Fleet sweep: 8 sessions x 4 calls through routers fronting 1
	// and 2 nodes. Every call succeeds, and the 2-node fleet sends
	// work to both nodes.
	const goroutines, opsPerG = 8, 4
	for _, n := range []int{1, 2} {
		var nodes []cluster.Node
		served := make([]*atomic.Int64, n)
		for i := range served {
			c := &atomic.Int64{}
			served[i] = c
			name := fmt.Sprintf("n%d", i+1)
			srv := startNode(t, name, func() cloudapi.Backend { return countingBackend{ec2.New(), c} }, ec2.New())
			nodes = append(nodes, cluster.Node{Name: name, URL: srv.URL})
		}
		rsrv := startRouter(t, nodes, nil)
		var wg sync.WaitGroup
		errs := make(chan error, goroutines)
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				cl := httpapi.NewClient(rsrv.URL).WithSession(fmt.Sprintf("fleet-%02d", g))
				for i := 0; i < opsPerG; i++ {
					if _, err := cl.Invoke(cloudapi.Request{Action: "DescribeVpcs"}); err != nil {
						errs <- err
						return
					}
				}
			}(g)
		}
		wg.Wait()
		close(errs)
		if err := <-errs; err != nil {
			t.Fatalf("fleet sweep (%d nodes): %v", n, err)
		}
		var total int64
		for i, c := range served {
			if c.Load() == 0 {
				t.Errorf("%d-node fleet: node n%d served no calls", n, i+1)
			}
			total += c.Load()
		}
		if total != goroutines*opsPerG {
			t.Errorf("%d-node fleet: nodes served %d calls, want %d", n, total, goroutines*opsPerG)
		}
	}

	// Live migration on join: 6 toy sessions take 3 calls each on a
	// one-node fleet, a second node joins, and 2 more calls per
	// session must match a control node byte for byte.
	svc, err := spec.Parse(spec.ToySource)
	if err != nil {
		t.Fatal(err)
	}
	toy, err := interp.New(svc)
	if err != nil {
		t.Fatal(err)
	}
	toyFactory := cloudapi.FactoryOf(toy)
	m1 := startNode(t, "m1", toyFactory, toyFactory())
	m2 := startNode(t, "m2", toyFactory, toyFactory())
	control := startNode(t, "control", toyFactory, toyFactory())
	msrv := startRouter(t, []cluster.Node{{Name: "m1", URL: m1.URL}}, nil)

	const sessions, preCalls, postCalls = 6, 3, 2
	sid := func(i int) string { return fmt.Sprintf("mig-%03d", i) }
	for i := 0; i < sessions; i++ {
		for c := 0; c < preCalls; c++ {
			toyCall(t, msrv.URL, sid(i), c)
			toyCall(t, control.URL, sid(i), c)
		}
	}
	resp, err := http.Post(msrv.URL+"/v2/cluster/join?name=m2&url="+m2.URL, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var joined struct {
		Migrated int `json:"migrated"`
	}
	err = json.NewDecoder(resp.Body).Decode(&joined)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("cluster join: %v", err)
	}
	if joined.Migrated == 0 {
		t.Fatal("join migrated no sessions")
	}
	for i := 0; i < sessions; i++ {
		for c := preCalls; c < preCalls+postCalls; c++ {
			rStatus, rBody := toyCall(t, msrv.URL, sid(i), c)
			cStatus, cBody := toyCall(t, control.URL, sid(i), c)
			if rStatus != cStatus || rBody != cBody {
				t.Fatalf("migration broke byte continuity: session %s call %d:\nrouter : %d %q\ncontrol: %d %q",
					sid(i), c, rStatus, rBody, cStatus, cBody)
			}
		}
	}
}
