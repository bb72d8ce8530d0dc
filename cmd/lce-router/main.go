// Command lce-router is the cluster front tier: one endpoint that
// spreads tenant sessions over a fleet of lce-server nodes and keeps
// the /v2 wire surface byte-identical to a single node's.
//
//	lce-router -addr :4560 -nodes n1=http://h1:4566,n2=http://h2:4566,n3=http://h3:4566
//
// Every data-plane request (the whole /v2/{service} surface: invoke,
// reset and batch) is forwarded to the node owning the request's
// X-LCE-Session (the default session when absent) on a consistent-hash
// ring with
// virtual nodes, so a session's world always lives on exactly one
// node and responses — success envelopes and every error class — are
// the bytes that node produced. The router stamps X-LCE-Api-Version:
// 2.1+cluster over the node's own header; that suffix is how clients
// (lce.Client.ClusterAware) discover the fleet views:
//
//	GET  /v2/cluster        ring membership, per-node health, placements
//	GET  /v2/sessions       fleet-wide pool stats (per-node + summed)
//	GET  /metrics           all nodes' Prometheus text, node label injected
//	GET  /debug/events      every node's SSE event stream, multiplexed
//	POST /v2/cluster/join   add a node (?name=N&url=U) and rebalance
//	POST /v2/cluster/leave  drain a node (?name=N) and rebalance
//
// Nodes are health-probed every -probe-interval; -fail-threshold
// consecutive transport failures (probe or forward) mark a node dead,
// remove it from the ring, and rebalance. When membership changes,
// sessions whose ring owner moved are migrated: drained (requests
// answer a transient 503 for the moment of transfer), exported from
// the old owner via POST /v2/admin/export (the durable tier's
// snapshot bytes), imported on the new owner, and released. A dead
// node can't export — its sessions flip ownership immediately and
// rehydrate from the shared -data-dir on first touch, which is why a
// cluster deployment runs every node over one data directory with
// -fsync always. Router-originated failures (502 node died, 503
// migrating) use the same {__error, Code, Message, RequestId}
// envelope as everything else and are classified transient, so a
// resilient client (lce.Resilient over lce.Connect) rides through
// node deaths on its ordinary retry policy.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"lce"
)

func main() {
	var (
		addr      = flag.String("addr", ":4560", "listen address")
		nodes     = flag.String("nodes", "", "comma-separated fleet members as name=url, e.g. n1=http://localhost:4566,n2=http://localhost:4567")
		vnodes    = flag.Int("vnodes", 0, "virtual nodes per member on the hash ring (0 = default 128)")
		probe     = flag.Duration("probe-interval", 2*time.Second, "health-probe period (negative = no background probing)")
		threshold = flag.Int("fail-threshold", 2, "consecutive transport failures before a node is declared dead and the ring rebalances")
		traceSeed = flag.Int64("trace-seed", 1, "seed for router span/trace IDs (same seed + same request sequence = same IDs; 0 disables router tracing)")
	)
	flag.Parse()

	members, err := parseNodes(*nodes)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	var ob *lce.Obs
	if *traceSeed != 0 {
		ob = lce.NewObs(*traceSeed)
	}
	rt, err := lce.NewClusterRouter(lce.ClusterConfig{
		Nodes:         members,
		VNodes:        *vnodes,
		ProbeInterval: *probe,
		FailThreshold: *threshold,
		Obs:           ob,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	rt.Start()
	defer rt.Close()

	hint := *addr
	if len(hint) > 0 && hint[0] == ':' {
		hint = "localhost" + hint
	}
	log.Printf("routing %d node(s): %s", len(members), *nodes)
	log.Printf("cluster surface: %s/v2/cluster (membership), %s/v2/sessions (fleet pools), %s/metrics (merged), %s/debug/events (muxed SSE)", hint, hint, hint, hint)
	if ob != nil {
		log.Printf("fleet traces: %s/debug/traces (merged; ?format=jsonl for lce-tracecheck -stitch), SLO attribution on %s/healthz", hint, hint)
	}
	log.Printf("try: curl -s -XPOST -H 'X-LCE-Session: alice' '%s/v2/ec2?Action=CreateVpc' -d '{\"params\":{\"cidrBlock\":\"10.0.0.0/16\"}}'", hint)
	if err := lce.ListenAndServe(*addr, rt.Handler()); err != nil {
		log.Fatal(err)
	}
}

// parseNodes decodes the -nodes flag: name=url pairs, comma-separated.
func parseNodes(s string) ([]lce.ClusterNode, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("lce-router: -nodes is required (name=url,name=url,...)")
	}
	var out []lce.ClusterNode
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, url, ok := strings.Cut(part, "=")
		if !ok || name == "" || url == "" {
			return nil, fmt.Errorf("lce-router: bad -nodes entry %q: want name=url", part)
		}
		out = append(out, lce.ClusterNode{Name: name, URL: url})
	}
	return out, nil
}
