package eval

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"time"

	"lce/internal/cloud/aws/ec2"
	"lce/internal/cloudapi"
	"lce/internal/cluster"
	"lce/internal/httpapi"
	"lce/internal/interp"
	"lce/internal/obsv"
	"lce/internal/spec"
	"lce/internal/tenant"
)

// This file benches the scale-out tier: what the lce-router costs per
// hop, what a bigger fleet buys when the bottleneck is per-node, and
// what a live session migration costs when membership changes.

// ClusterResult is the -cluster bench block.
type ClusterResult struct {
	Overhead  []ClusterOverheadRow
	Sweep     []ClusterSweepRow
	Migration ClusterMigrationRow
}

// ClusterOverheadRow times the same call stream against one node:
// reached directly, through an untraced router (the routing hop's
// per-call tax), and through a fully traced router+node pair (the
// distributed-tracing tax on top of the hop — ingress, decide, and
// forward spans plus X-LCE-Trace propagation and the node's remote
// parenting).
type ClusterOverheadRow struct {
	Mode    string // "direct", "routed", or "routed-traced"
	Calls   int
	Elapsed time.Duration
}

// PerCall returns the mean per-call latency.
func (r ClusterOverheadRow) PerCall() time.Duration {
	if r.Calls <= 0 {
		return 0
	}
	return r.Elapsed / time.Duration(r.Calls)
}

// ClusterSweepRow is one fleet-size cell: the same total load pushed
// through a router fronting `Nodes` nodes, each node serializing its
// own calls (the per-node bottleneck consistent hashing shards
// around).
type ClusterSweepRow struct {
	Nodes      int
	Goroutines int
	Ops        int
	PerCall    time.Duration
	Elapsed    time.Duration
}

// Throughput returns calls per second.
func (r ClusterSweepRow) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Ops) / r.Elapsed.Seconds()
}

// ClusterMigrationRow is the join-triggered live-migration run:
// `Sessions` sessions accumulate `PreCalls` calls each on a one-node
// fleet, a second node joins, and the router export→import migrates
// every session the ring reassigned. Verified means every session —
// moved or not — kept answering byte-identically to a control fleet
// that never changed.
type ClusterMigrationRow struct {
	Sessions  int
	PreCalls  int
	Migrated  int
	PostCalls int
	Elapsed   time.Duration // the join call, including all migrations
	Verified  bool
}

// PerSession returns the mean migration cost per moved session.
func (r ClusterMigrationRow) PerSession() time.Duration {
	if r.Migrated <= 0 {
		return 0
	}
	return r.Elapsed / time.Duration(r.Migrated)
}

// nodeSerialized models a node-wide bottleneck: every session on the
// node contends for one lock held for the simulated service time.
// Unlike serializedLatency (per-session), this is the profile the
// scale-out tier exists to shard around — more sessions on one node
// still queue; more nodes split the queue.
type nodeSerialized struct {
	gate    *sync.Mutex
	inner   cloudapi.Backend
	perCall time.Duration
}

func (n *nodeSerialized) Service() string   { return n.inner.Service() }
func (n *nodeSerialized) Actions() []string { return n.inner.Actions() }
func (n *nodeSerialized) Reset() {
	n.gate.Lock()
	defer n.gate.Unlock()
	n.inner.Reset()
}
func (n *nodeSerialized) Invoke(req cloudapi.Request) (cloudapi.Result, error) {
	n.gate.Lock()
	defer n.gate.Unlock()
	time.Sleep(n.perCall)
	return n.inner.Invoke(req)
}

// startClusterNode boots an in-process lce-server node: a pooled
// factory behind the full HTTP surface, named as a cluster member.
// Extra options (e.g. httpapi.WithObs for a traced node) apply on top.
func startClusterNode(name string, factory cloudapi.BackendFactory, meta cloudapi.Backend, opts ...httpapi.Option) (*httptest.Server, error) {
	pool, err := tenant.New(factory, tenant.Config{})
	if err != nil {
		return nil, err
	}
	all := append([]httpapi.Option{httpapi.WithPool(pool), httpapi.WithNode(name)}, opts...)
	return httptest.NewServer(httpapi.New(meta, all...)), nil
}

// startClusterRouter fronts the given nodes with manual probing, so
// bench timings never race the prober. A non-nil obs mounts the
// router's span taxonomy and fleet SLO engines.
func startClusterRouter(nodes []cluster.Node, ob *obsv.Obs) (*cluster.Router, *httptest.Server, error) {
	rt, err := cluster.NewRouter(cluster.Config{Nodes: nodes, ProbeInterval: -1, Obs: ob})
	if err != nil {
		return nil, nil, err
	}
	return rt, httptest.NewServer(rt.Handler()), nil
}

// toyClusterCall issues one deterministic learned-emulator call and
// returns the raw wire answer, so migration continuity can be checked
// byte for byte.
func toyClusterCall(base, session string, i int) (int, string, error) {
	req, err := http.NewRequest("POST", base+"/v2/toy?Action=CreatePublicIp",
		strings.NewReader(`{"params":{"region":"us-east"}}`))
	if err != nil {
		return 0, "", err
	}
	req.Header.Set(httpapi.SessionHeader, session)
	req.Header.Set(httpapi.RequestIDHeader, fmt.Sprintf("%s-%d", session, i))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	body, err := httpapi.ReadBounded(resp.Body, httpapi.MaxBody)
	if err != nil {
		return 0, "", err
	}
	return resp.StatusCode, string(body), nil
}

// ClusterBench runs the three scale-out scenarios.
//
// Routing overhead: overheadCalls DescribeVpcs against one unloaded
// EC2 node, direct and through a one-node router — the difference is
// the hop (an extra HTTP round trip plus header rewriting).
//
// Fleet sweep: for each n in fleets, goroutines workers push opsPerG
// calls each (worker g on session g) through a router fronting n
// nodes whose backends serialize node-wide for perCall. Rows come
// back in fleets order; fleets[0] == 1 makes row 0 the baseline.
//
// Migration: migSessions toy-emulator sessions accumulate migPreCalls
// calls each on a one-node fleet, a second node joins (timed), and
// two more calls per session are byte-compared against a control node
// that never rebalanced.
func ClusterBench(overheadCalls int, fleets []int, goroutines, opsPerG int, perCall time.Duration, migSessions, migPreCalls int) (*ClusterResult, error) {
	res := &ClusterResult{}

	// --- routing overhead ---
	node, err := startClusterNode("n1", ec2.Factory(), ec2.New())
	if err != nil {
		return nil, err
	}
	defer node.Close()
	rt, rsrv, err := startClusterRouter([]cluster.Node{{Name: "n1", URL: node.URL}}, nil)
	if err != nil {
		return nil, err
	}
	defer rsrv.Close()
	defer rt.Close()
	// The traced pair: same topology, full span taxonomy on both hops.
	// Both processes seed 1 like a real fleet; the node salts its root
	// IDs with its name (the router constructor salts its own).
	tob := obsv.New(1, 0)
	tob.Tracer.SetIdentity("n1")
	tnode, err := startClusterNode("n1", ec2.Factory(), ec2.New(), httpapi.WithObs(tob))
	if err != nil {
		return nil, err
	}
	defer tnode.Close()
	trt, trsrv, err := startClusterRouter([]cluster.Node{{Name: "n1", URL: tnode.URL}}, obsv.New(1, 0))
	if err != nil {
		return nil, err
	}
	defer trsrv.Close()
	defer trt.Close()
	// The hop and tracing taxes get gated as RATIOS against a
	// committed baseline, so the three modes must see the same machine:
	// reps are interleaved (direct, routed, traced, direct, ...) and
	// each mode keeps its best pass — a load spike during one rep then
	// taxes every mode equally instead of skewing whichever mode it
	// happened to land on.
	modes := []struct {
		name string
		cl   *httpapi.Client
		best time.Duration
	}{
		{name: "direct", cl: httpapi.NewClient(node.URL).WithSession("overhead")},
		{name: "routed", cl: httpapi.NewClient(rsrv.URL).WithSession("overhead")},
		{name: "routed-traced", cl: httpapi.NewClient(trsrv.URL).WithSession("overhead")},
	}
	for i := range modes {
		if _, err := modes[i].cl.Invoke(cloudapi.Request{Action: "DescribeVpcs"}); err != nil {
			return nil, fmt.Errorf("eval: cluster overhead warmup (%s): %w", modes[i].name, err)
		}
	}
	for rep := 0; rep < 3; rep++ {
		for i := range modes {
			start := time.Now()
			for c := 0; c < overheadCalls; c++ {
				if _, err := modes[i].cl.Invoke(cloudapi.Request{Action: "DescribeVpcs"}); err != nil {
					return nil, fmt.Errorf("eval: cluster overhead (%s): %w", modes[i].name, err)
				}
			}
			if elapsed := time.Since(start); modes[i].best == 0 || elapsed < modes[i].best {
				modes[i].best = elapsed
			}
		}
	}
	for _, m := range modes {
		res.Overhead = append(res.Overhead, ClusterOverheadRow{
			Mode: m.name, Calls: overheadCalls, Elapsed: m.best,
		})
	}

	// --- fleet sweep ---
	for _, n := range fleets {
		if n < 1 {
			return nil, fmt.Errorf("eval: fleet size %d < 1", n)
		}
		var nodes []cluster.Node
		var servers []*httptest.Server
		for i := 0; i < n; i++ {
			gate := &sync.Mutex{}
			factory := func() cloudapi.Backend {
				return &nodeSerialized{gate: gate, inner: ec2.New(), perCall: perCall}
			}
			srv, err := startClusterNode(fmt.Sprintf("n%d", i+1), factory, ec2.New())
			if err != nil {
				return nil, err
			}
			servers = append(servers, srv)
			nodes = append(nodes, cluster.Node{Name: fmt.Sprintf("n%d", i+1), URL: srv.URL})
		}
		frt, frsrv, err := startClusterRouter(nodes, nil)
		if err != nil {
			return nil, err
		}
		var wg sync.WaitGroup
		errs := make(chan error, goroutines)
		start := time.Now()
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				cl := httpapi.NewClient(frsrv.URL).WithSession(fmt.Sprintf("fleet-%02d", g))
				for i := 0; i < opsPerG; i++ {
					if _, err := cl.Invoke(cloudapi.Request{Action: "DescribeVpcs"}); err != nil {
						errs <- err
						return
					}
				}
			}(g)
		}
		wg.Wait()
		elapsed := time.Since(start)
		close(errs)
		err = <-errs
		frsrv.Close()
		frt.Close()
		for _, srv := range servers {
			srv.Close()
		}
		if err != nil {
			return nil, fmt.Errorf("eval: fleet sweep (%d nodes): %w", n, err)
		}
		res.Sweep = append(res.Sweep, ClusterSweepRow{
			Nodes: n, Goroutines: goroutines, Ops: goroutines * opsPerG,
			PerCall: perCall, Elapsed: elapsed,
		})
	}

	// --- live migration on join ---
	svc, err := spec.Parse(spec.ToySource)
	if err != nil {
		return nil, err
	}
	toy, err := interp.New(svc)
	if err != nil {
		return nil, err
	}
	toyFactory := cloudapi.FactoryOf(toy)
	mkToyNode := func(name string) (*httptest.Server, error) {
		return startClusterNode(name, toyFactory, toyFactory())
	}
	m1, err := mkToyNode("m1")
	if err != nil {
		return nil, err
	}
	defer m1.Close()
	m2, err := mkToyNode("m2")
	if err != nil {
		return nil, err
	}
	defer m2.Close()
	control, err := mkToyNode("control")
	if err != nil {
		return nil, err
	}
	defer control.Close()
	mrt, mrsrv, err := startClusterRouter([]cluster.Node{{Name: "m1", URL: m1.URL}}, nil)
	if err != nil {
		return nil, err
	}
	defer mrsrv.Close()
	defer mrt.Close()

	sid := func(i int) string { return fmt.Sprintf("mig-%03d", i) }
	for i := 0; i < migSessions; i++ {
		for c := 0; c < migPreCalls; c++ {
			if _, _, err := toyClusterCall(mrsrv.URL, sid(i), c); err != nil {
				return nil, err
			}
			if _, _, err := toyClusterCall(control.URL, sid(i), c); err != nil {
				return nil, err
			}
		}
	}
	start := time.Now()
	resp, err := http.Post(mrsrv.URL+"/v2/cluster/join?name=m2&url="+m2.URL, "", nil)
	if err != nil {
		return nil, err
	}
	var joined struct {
		Migrated int `json:"migrated"`
	}
	err = json.NewDecoder(resp.Body).Decode(&joined)
	resp.Body.Close()
	if err != nil {
		return nil, fmt.Errorf("eval: cluster join: %w", err)
	}
	mig := ClusterMigrationRow{
		Sessions: migSessions, PreCalls: migPreCalls,
		Migrated: joined.Migrated, PostCalls: 2, Elapsed: time.Since(start),
		Verified: joined.Migrated > 0,
	}
	for i := 0; i < migSessions; i++ {
		for c := migPreCalls; c < migPreCalls+mig.PostCalls; c++ {
			rStatus, rBody, err := toyClusterCall(mrsrv.URL, sid(i), c)
			if err != nil {
				return nil, err
			}
			cStatus, cBody, err := toyClusterCall(control.URL, sid(i), c)
			if err != nil {
				return nil, err
			}
			if rStatus != cStatus || rBody != cBody {
				mig.Verified = false
			}
		}
	}
	res.Migration = mig
	return res, nil
}

// FormatCluster renders the three scale-out tables.
func FormatCluster(res *ClusterResult) string {
	var b strings.Builder
	if len(res.Overhead) >= 2 {
		d, r := res.Overhead[0], res.Overhead[1]
		fmt.Fprintf(&b, "Routing overhead (%d calls, one unloaded node)\n", d.Calls)
		fmt.Fprintf(&b, "%-14s %12s\n", "mode", "per call")
		fmt.Fprintf(&b, "%-14s %12s\n", d.Mode, d.PerCall().Round(time.Microsecond))
		fmt.Fprintf(&b, "%-14s %12s  (+%s per hop)\n", r.Mode, r.PerCall().Round(time.Microsecond),
			(r.PerCall() - d.PerCall()).Round(time.Microsecond))
		if len(res.Overhead) >= 3 {
			tr := res.Overhead[2]
			fmt.Fprintf(&b, "%-14s %12s  (+%s tracing tax)\n", tr.Mode, tr.PerCall().Round(time.Microsecond),
				(tr.PerCall() - r.PerCall()).Round(time.Microsecond))
		}
	}
	if len(res.Sweep) > 0 {
		fmt.Fprintf(&b, "\nFleet sweep: %d goroutines, %d calls total, %s node-serialized per call\n",
			res.Sweep[0].Goroutines, res.Sweep[0].Ops, res.Sweep[0].PerCall)
		fmt.Fprintf(&b, "%-8s %12s %12s %9s\n", "nodes", "elapsed", "calls/sec", "speedup")
		base := res.Sweep[0].Elapsed
		for _, r := range res.Sweep {
			sp := 0.0
			if r.Elapsed > 0 {
				sp = float64(base) / float64(r.Elapsed)
			}
			fmt.Fprintf(&b, "%-8d %12s %12.0f %8.2fx\n",
				r.Nodes, r.Elapsed.Round(time.Microsecond), r.Throughput(), sp)
		}
	}
	m := res.Migration
	fmt.Fprintf(&b, "\nLive migration on join: %d sessions x %d calls, %d migrated in %s (%s/session), continuity verified: %v\n",
		m.Sessions, m.PreCalls, m.Migrated, m.Elapsed.Round(time.Microsecond),
		m.PerSession().Round(time.Microsecond), m.Verified)
	return b.String()
}
