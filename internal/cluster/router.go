package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lce/internal/cloudapi"
	"lce/internal/httpapi"
	"lce/internal/obsv"
	"lce/internal/opsplane"
	"lce/internal/tenant"
)

// Node names one fleet member: a stable name (the ring identity) and
// the base URL its lce-server listens on.
type Node struct {
	Name string
	URL  string
}

// Config tunes a Router.
type Config struct {
	// Nodes is the initial membership. More nodes can join (and leave)
	// at runtime via POST /v2/cluster/join and /leave.
	Nodes []Node
	// VNodes is the virtual-node count per physical node (<= 0 means
	// DefaultVNodes).
	VNodes int
	// ProbeInterval is the health-probe period (0 means 2s; negative
	// disables the background prober — CheckNow still works, and
	// forward-path failures still detect death).
	ProbeInterval time.Duration
	// FailThreshold is how many consecutive probe/forward transport
	// failures mark a node dead (<= 0 means 2). Any HTTP response —
	// even a 503 SLO breach — counts as alive: the node is reachable
	// and owns its sessions.
	FailThreshold int
	// Client is the HTTP client for health probes, migration and the
	// fleet views' fan-out (nil means a client with a 30s timeout; the
	// SSE multiplexer always uses an untimed clone, streams outlive any
	// sane timeout). Data-plane forwards do not use it: they run on the
	// router's own per-node keep-alive connections (forward.go).
	Client *http.Client
	// Obs mounts the router-tier observability: ingress spans
	// (remote-parented when the client propagates X-LCE-Trace),
	// route.decide / forward.<service> / probe / migrate.* spans, the
	// X-LCE-Trace header injected into every downstream request, and
	// GET /debug/traces serving the fleet-merged store. Nil disables
	// all of it — forwarded bytes are identical either way.
	Obs *obsv.Obs
	// SSERetryMax caps the backoff between reconnect attempts when a
	// node drops out of the merged /debug/events stream (<= 0 means
	// 2s; the first retry starts at 1/16th of the cap).
	SSERetryMax time.Duration
}

// nodeState is one member's runtime state.
type nodeState struct {
	name   string
	url    string
	alive  atomic.Bool
	fails  atomic.Int32
	probes atomic.Uint64 // per-node probe sequence, keys probe span roots
	upstream
}

// newNodeState builds a member from its name and base URL.
func newNodeState(name, rawurl string) (*nodeState, error) {
	st := &nodeState{name: name, url: strings.TrimRight(rawurl, "/")}
	if err := st.upstream.parse(st.url); err != nil {
		return nil, fmt.Errorf("cluster: node %s: %v", name, err)
	}
	return st, nil
}

// Router is the cluster front tier: an http.Handler that owns the
// hash ring, forwards session traffic to ring owners, aggregates the
// fleet's observability surfaces, and migrates sessions on membership
// change. Start launches the background health prober; Close stops
// it.
type Router struct {
	cfg    Config
	client *http.Client
	obs    *obsv.Obs

	mu         sync.RWMutex
	ring       *Ring
	nodes      map[string]*nodeState
	placements map[string]string // session → node name it last answered on
	migrating  map[string]bool   // sessions mid-transfer (503 until done)

	// obsMu guards the fleet SLO engines and phase totals — deliberately
	// separate from mu so healthz evaluation never contends with the
	// membership lock on the forward path.
	obsMu   sync.Mutex
	health  map[string]*opsplane.Health // node name → engine; fleetKey → merged
	phaseNs map[string]map[string]int64 // node → phase → Server-Timing self ns

	reqSeq  atomic.Uint64
	migSeq  atomic.Uint64 // keys migrate span roots, off the request counter
	stop    chan struct{}
	done    chan struct{}
	started atomic.Bool
}

// NewRouter builds a router over the initial membership. Every
// initial node starts presumed-alive; the first probe pass corrects
// that.
func NewRouter(cfg Config) (*Router, error) {
	if len(cfg.Nodes) == 0 {
		return nil, fmt.Errorf("cluster: no nodes")
	}
	if cfg.FailThreshold <= 0 {
		cfg.FailThreshold = 2
	}
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = 2 * time.Second
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Timeout: 30 * time.Second}
	}
	// The front tier salts its root IDs with its own identity: nodes
	// and router all default to trace seed 1, and unsalted same-seed
	// processes mint colliding root (trace, span) streams that a
	// merged fleet dump would fuse into nonsense traces.
	cfg.Obs.TracerOrNil().SetIdentity(routerNode)
	rt := &Router{
		cfg:        cfg,
		client:     client,
		obs:        cfg.Obs,
		ring:       NewRing(cfg.VNodes),
		nodes:      make(map[string]*nodeState),
		placements: make(map[string]string),
		migrating:  make(map[string]bool),
		health:     make(map[string]*opsplane.Health),
		phaseNs:    make(map[string]map[string]int64),
		stop:       make(chan struct{}),
		done:       make(chan struct{}),
	}
	for _, n := range cfg.Nodes {
		if n.Name == "" || n.URL == "" {
			return nil, fmt.Errorf("cluster: node needs both name and url (got %q=%q)", n.Name, n.URL)
		}
		if _, dup := rt.nodes[n.Name]; dup {
			return nil, fmt.Errorf("cluster: duplicate node name %q", n.Name)
		}
		if n.Name == routerNode {
			return nil, fmt.Errorf("cluster: node name %q is reserved for the front tier", routerNode)
		}
		st, err := newNodeState(n.Name, n.URL)
		if err != nil {
			return nil, err
		}
		st.alive.Store(true)
		rt.nodes[n.Name] = st
		rt.ring.Add(n.Name)
	}
	return rt, nil
}

// Start launches the background health prober (no-op when disabled).
func (rt *Router) Start() {
	if rt.cfg.ProbeInterval < 0 || !rt.started.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer close(rt.done)
		t := time.NewTicker(rt.cfg.ProbeInterval)
		defer t.Stop()
		for {
			select {
			case <-rt.stop:
				return
			case <-t.C:
				rt.CheckNow()
			}
		}
	}()
}

// Close stops the prober and closes the idle forward connections.
// Safe without a prior Start, and safe to call more than once.
func (rt *Router) Close() {
	select {
	case <-rt.stop:
	default:
		close(rt.stop)
	}
	if rt.started.Load() {
		<-rt.done
	}
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	for _, st := range rt.nodes {
		st.retire()
	}
}

// CheckNow runs one synchronous health pass over every member: probe
// each node's /healthz, apply the failure threshold, and rebalance if
// any node died or resurrected. Tests use it for deterministic
// membership transitions.
func (rt *Router) CheckNow() {
	rt.mu.RLock()
	members := make([]*nodeState, 0, len(rt.nodes))
	for _, st := range rt.nodes {
		members = append(members, st)
	}
	rt.mu.RUnlock()

	var wg sync.WaitGroup
	changed := make([]bool, len(members))
	tracer := rt.obs.TracerOrNil()
	for i, st := range members {
		wg.Add(1)
		go func(i int, st *nodeState) {
			defer wg.Done()
			// Probe spans draw keyed roots (node name + per-node probe
			// sequence), not the request root counter: request trace IDs
			// stay a function of request order alone no matter how many
			// probes a larger fleet runs in between.
			_, sp := tracer.StartRootKeyed(context.Background(), obsv.SpanProbe,
				keyedRootKey("probe."+st.name, st.probes.Add(1)))
			sp.SetAttr("node", routerNode)
			sp.SetAttr("target", st.name)
			defer sp.End()
			resp, err := rt.client.Get(st.url + "/healthz")
			if err != nil {
				sp.SetError(err.Error())
				sp.SetAttr("alive", "false")
				changed[i] = rt.noteFailure(st)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			sp.SetAttr("alive", "true")
			sp.SetAttrInt("status", int64(resp.StatusCode))
			changed[i] = rt.noteAlive(st)
		}(i, st)
	}
	wg.Wait()
	for _, c := range changed {
		if c {
			rt.rebalance()
			return
		}
	}
}

// noteFailure records one transport failure against a node; crossing
// the threshold marks it dead and removes it from the ring. Reports
// whether membership changed (caller rebalances).
func (rt *Router) noteFailure(st *nodeState) bool {
	if st.fails.Add(1) < int32(rt.cfg.FailThreshold) || !st.alive.Load() {
		return false
	}
	st.alive.Store(false)
	rt.mu.Lock()
	rt.ring.Remove(st.name)
	rt.mu.Unlock()
	return true
}

// noteAlive resets a node's failure count; a dead node answering its
// probe rejoins the ring. Reports whether membership changed.
func (rt *Router) noteAlive(st *nodeState) bool {
	st.fails.Store(0)
	if st.alive.Load() {
		return false
	}
	st.alive.Store(true)
	rt.mu.Lock()
	rt.ring.Add(st.name)
	rt.mu.Unlock()
	return true
}

// requestID echoes the client-tagged request ID or mints one with the
// router's "lce-r-" prefix.
func (rt *Router) requestID(r *http.Request) string {
	if id := headerValue(r.Header, requestIDKey); id != "" {
		return httpapi.ClampRequestID(id)
	}
	return httpapi.MintRequestID("lce-r-", rt.reqSeq.Add(1))
}

// writeError renders a router-originated failure in the node's unified
// envelope, version-stamped and request-ID'd like everything the
// router serves. The two codes the data plane uses — BadGateway (node
// died mid-exchange) and ServiceUnavailable (migration in flight, or
// no owner) — are both transient per cloudapi.IsTransientCode, so
// resilient clients ride through membership changes on their
// ordinary retry policy.
func (rt *Router) writeError(w http.ResponseWriter, status int, reqID, code, format string, args ...any) {
	w.Header().Set(httpapi.APIVersionHeader, httpapi.APIVersionCluster)
	httpapi.WriteError(w, status, reqID, cloudapi.Errf(code, format, args...))
}

func (rt *Router) writeJSON(w http.ResponseWriter, reqID string, status int, v any) {
	w.Header().Set(httpapi.APIVersionHeader, httpapi.APIVersionCluster)
	w.Header().Set(httpapi.RequestIDHeader, reqID)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// Handler returns the router's HTTP surface: the full node wire
// surface forwarded by session ownership, plus the fleet views.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()

	// Data plane: ring-routed by the session header. Route names match
	// the node's own span naming, so a fleet trace reads http.v2.invoke
	// at the router and http.v2.invoke again on the serving node.
	mux.HandleFunc("POST /v2/{service}", rt.forwardSession("v2.invoke"))
	mux.HandleFunc("POST /v2/{service}/reset", rt.forwardSession("v2.reset"))
	mux.HandleFunc("POST /v2/{service}/batch", rt.forwardSession("v2.batch"))

	// Metadata: any healthy node answers (all nodes host the same
	// service).
	mux.HandleFunc("GET /actions", rt.forwardAny("actions"))

	// Fleet views.
	mux.HandleFunc("GET /healthz", rt.healthz)
	mux.HandleFunc("GET /readyz", rt.healthz)
	mux.HandleFunc("GET /metrics", rt.metrics)
	mux.HandleFunc("GET /v2/sessions", rt.sessions)
	mux.HandleFunc("GET /v2/cluster", rt.cluster)
	mux.HandleFunc("POST /v2/cluster/join", rt.join)
	mux.HandleFunc("POST /v2/cluster/leave", rt.leave)
	mux.HandleFunc("GET /debug/events", rt.events)
	if rt.obs.TracerOrNil() != nil {
		mux.HandleFunc("GET /debug/traces", rt.traces)
	}

	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		rt.writeError(w, http.StatusNotFound, rt.requestID(r), "NotFound", "no route %s %s", r.Method, r.URL.Path)
	})
	return mux
}

// owner resolves the node owning a session right now.
func (rt *Router) owner(session string) (*nodeState, error) {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	if rt.migrating[session] {
		return nil, fmt.Errorf("session %q is migrating between nodes; retry", session)
	}
	name := rt.ring.Owner(session)
	if name == "" {
		return nil, fmt.Errorf("no healthy node owns session %q (ring is empty)", session)
	}
	return rt.nodes[name], nil
}

// forwardSession routes one data-plane request to its session's ring
// owner, under a router ingress span with a route.decide child
// covering the ring lookup.
func (rt *Router) forwardSession(route string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		reqID := rt.requestID(r)
		ctx, root := rt.startIngress(r, route)
		defer root.End()

		// A headerless request addresses the default session: the node's
		// own rule, which the router must share or it would smear the
		// default account across the fleet. The key names the session
		// on the ring, in the placement table and on spans alike.
		key := headerValue(r.Header, sessionKey)
		if key == "" {
			key = tenant.DefaultSession
		}
		_, decide := obsv.StartSpan(ctx, obsv.SpanRouteDecide)
		st, err := rt.owner(key)
		decide.SetAttr("session", key)
		if st != nil {
			decide.SetAttr("target", st.name)
		}
		if err != nil {
			decide.SetError(err.Error())
		}
		decide.End()
		if err != nil {
			root.SetError(err.Error())
			rt.writeError(w, http.StatusServiceUnavailable, reqID, cloudapi.CodeServiceUnavailable, "%v", err)
			return
		}
		if rt.forward(ctx, w, r, st, reqID, route) {
			rt.notePlacement(key, st)
		}
	}
}

// notePlacement records that st answered for a session. The common
// case — the placement already says st — costs a read lock. A write
// happens only for a session that is unplaced, or placed elsewhere
// while st still owns it on the ring, and never for one mid-migration:
// a forward that began before a migration moved the session away must
// not point the placement back at the old node, or the next rebalance
// would see the session "at home" there and never fetch it back. The
// straggler's own effect is not covered: a call the old node applies
// after the export took its snapshot is lost with the old copy (open
// under "migrations racing traffic" in ROADMAP.md).
func (rt *Router) notePlacement(key string, st *nodeState) {
	rt.mu.RLock()
	cur := rt.placements[key]
	rt.mu.RUnlock()
	if cur == st.name {
		return
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	_, placed := rt.placements[key]
	if rt.migrating[key] || (placed && rt.ring.Owner(key) != st.name) {
		return
	}
	rt.placements[key] = st.name
}

// forwardAny routes a node-agnostic request to any live member.
func (rt *Router) forwardAny(route string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		reqID := rt.requestID(r)
		ctx, root := rt.startIngress(r, route)
		defer root.End()

		rt.mu.RLock()
		var st *nodeState
		for _, name := range rt.ring.Nodes() {
			if c := rt.nodes[name]; c != nil && c.alive.Load() {
				st = c
				break
			}
		}
		rt.mu.RUnlock()
		if st == nil {
			root.SetError("no healthy node")
			rt.writeError(w, http.StatusServiceUnavailable, reqID, cloudapi.CodeServiceUnavailable, "no healthy node")
			return
		}
		rt.forward(ctx, w, r, st, reqID, route)
	}
}

// forward proxies one exchange to st verbatim — body streamed, query
// preserved, headers copied minus hop-by-hop — over one of st's pooled
// connections (forward.go), and stamps the cluster API version over
// the node's own. A transport failure counts toward the node's death
// threshold (fail-fast: a kill -9 is usually detected by the request
// that hits it, not the next probe) and returns a transient BadGateway
// envelope; a client that fails to deliver its own body gets a
// MalformedRequest and the node is not blamed. Reports whether the
// node answered.
//
// With observability mounted the exchange runs under a
// forward.<service> span (forward.<route> when the path names no
// service, as GET /actions does) whose context is injected downstream
// as X-LCE-Trace (overwriting any client-sent value — the node must
// parent under this hop, not skip it), and the outcome feeds the fleet
// SLO engines. The request ID — the client's own, or the router-minted
// fallback — is forwarded too, so node flight records and logs
// correlate with what the client saw.
func (rt *Router) forward(ctx context.Context, w http.ResponseWriter, r *http.Request, st *nodeState, reqID, route string) bool {
	hop := r.PathValue("service")
	if hop == "" {
		hop = route
	}
	_, fsp := obsv.StartSpan(ctx, obsv.SpanForwardPfx+hop)
	fsp.SetAttr("node", routerNode)
	fsp.SetAttr("target", st.name)
	defer fsp.End()
	clock := rt.obs.TracerOrNil().Clock()
	start := clock.Now()
	uc, resp, err := st.exchange(r, reqID, fsp)
	if err != nil {
		fsp.SetError(err.Error())
		var cbe *clientBodyError
		if errors.As(err, &cbe) {
			rt.writeError(w, http.StatusBadRequest, reqID, "MalformedRequest", "%v", cbe)
			return false
		}
		rt.recordForward(st.name, true, clock.Now().Sub(start), "")
		if rt.noteFailure(st) {
			go rt.rebalance()
		}
		rt.writeError(w, http.StatusBadGateway, reqID, cloudapi.CodeBadGateway,
			"node %s did not answer: %v", st.name, err)
		return false
	}
	st.fails.Store(0)
	h := w.Header()
	for k, vs := range resp.Header {
		if !hopHeader(k) {
			h[k] = vs
		}
	}
	h[apiVersionKey] = []string{httpapi.APIVersionCluster}
	w.WriteHeader(resp.StatusCode)
	if copyAnswer(w, resp.Body) && !resp.Close {
		st.checkin(uc)
	} else {
		uc.Close()
	}
	fsp.SetAttrInt("status", int64(resp.StatusCode))
	if resp.StatusCode >= 400 {
		fsp.SetError("status " + strconv.Itoa(resp.StatusCode))
	}
	rt.recordForward(st.name, sloForwardError(resp.StatusCode), clock.Now().Sub(start),
		headerValue(resp.Header, serverTimingKey))
	return true
}

// healthz summarizes fleet health: 200 while any member is alive, 503
// once none are. The per-node liveness verdicts ride in the body, and
// so does the fleet SLO section — the multi-window burn-rate engine
// run over per-node counters recorded at forward time, naming the
// worst-offending node and its hottest phase. Liveness alone decides
// the status code (a burning SLO is an alert, not an outage), so the
// prober's node /healthz semantics stay unchanged.
func (rt *Router) healthz(w http.ResponseWriter, r *http.Request) {
	rt.mu.RLock()
	names := make([]string, 0, len(rt.nodes))
	for name := range rt.nodes {
		names = append(names, name)
	}
	sort.Strings(names)
	nodes := make(map[string]bool, len(names))
	anyAlive := false
	for _, name := range names {
		alive := rt.nodes[name].alive.Load()
		nodes[name] = alive
		anyAlive = anyAlive || alive
	}
	rt.mu.RUnlock()
	status := http.StatusOK
	if !anyAlive {
		status = http.StatusServiceUnavailable
	}
	rt.writeJSON(w, rt.requestID(r), status, map[string]any{
		"router": true,
		"nodes":  nodes,
		"slo":    rt.fleetSLO(),
	})
}

// clusterNode is one member's row in GET /v2/cluster.
type clusterNode struct {
	Name     string `json:"name"`
	URL      string `json:"url"`
	Healthy  bool   `json:"healthy"`
	InRing   bool   `json:"inRing"`
	Sessions int    `json:"sessions"`
}

// cluster reports ring membership, per-node health, and session
// placement counts — the fleet map a cluster-aware client reads after
// spotting the "+cluster" API version.
func (rt *Router) cluster(w http.ResponseWriter, r *http.Request) {
	rt.mu.RLock()
	counts := make(map[string]int)
	for _, node := range rt.placements {
		counts[node]++
	}
	out := struct {
		APIVersion string        `json:"apiVersion"`
		VNodes     int           `json:"vnodes"`
		Nodes      []clusterNode `json:"nodes"`
		Placements int           `json:"placements"`
		Migrating  int           `json:"migrating"`
	}{
		APIVersion: httpapi.APIVersionCluster,
		VNodes:     rt.ring.VNodes(),
		Placements: len(rt.placements),
		Migrating:  len(rt.migrating),
	}
	names := make([]string, 0, len(rt.nodes))
	for name := range rt.nodes {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		st := rt.nodes[name]
		out.Nodes = append(out.Nodes, clusterNode{
			Name:     name,
			URL:      st.url,
			Healthy:  st.alive.Load(),
			InRing:   rt.ring.Contains(name),
			Sessions: counts[name],
		})
	}
	rt.mu.RUnlock()
	rt.writeJSON(w, rt.requestID(r), http.StatusOK, out)
}

// join adds a member (?name=N&url=U) and rebalances: sessions whose
// ownership moves to the newcomer are migrated onto it immediately.
func (rt *Router) join(w http.ResponseWriter, r *http.Request) {
	reqID := rt.requestID(r)
	name, rawurl := r.URL.Query().Get("name"), r.URL.Query().Get("url")
	if name == "" || rawurl == "" {
		rt.writeError(w, http.StatusBadRequest, reqID, "MalformedRequest", "join needs name and url query parameters")
		return
	}
	fresh, err := newNodeState(name, rawurl)
	if err != nil {
		rt.writeError(w, http.StatusBadRequest, reqID, "MalformedRequest", "bad url: %v", err)
		return
	}
	rt.mu.Lock()
	st, known := rt.nodes[name]
	if !known {
		st = fresh
		rt.nodes[name] = st
	}
	st.alive.Store(true)
	st.fails.Store(0)
	rt.ring.Add(name)
	rt.mu.Unlock()
	moved := rt.rebalance()
	rt.writeJSON(w, reqID, http.StatusOK, map[string]any{"joined": name, "migrated": moved})
}

// leave gracefully removes a member (?name=N): it leaves the ring,
// its sessions migrate to their new owners while it can still export
// them, and then it is forgotten.
func (rt *Router) leave(w http.ResponseWriter, r *http.Request) {
	reqID := rt.requestID(r)
	name := r.URL.Query().Get("name")
	rt.mu.Lock()
	st := rt.nodes[name]
	if st == nil {
		rt.mu.Unlock()
		rt.writeError(w, http.StatusBadRequest, reqID, "MalformedRequest", "unknown node %q", name)
		return
	}
	rt.ring.Remove(name)
	rt.mu.Unlock()
	moved := rt.rebalance()
	rt.mu.Lock()
	delete(rt.nodes, name)
	rt.mu.Unlock()
	st.retire()
	rt.writeJSON(w, reqID, http.StatusOK, map[string]any{"left": name, "migrated": moved})
}

// rebalance reconciles session placements with current ring
// ownership: every placed session whose ring owner changed is
// migrated there — live-exported when its old node still answers,
// adopted from the shared data directory otherwise. Returns how many
// sessions moved.
func (rt *Router) rebalance() int {
	type move struct {
		sid, to string
		from    *nodeState
	}
	rt.mu.Lock()
	var moves []move
	for sid, placed := range rt.placements {
		newOwner := rt.ring.Owner(sid)
		if newOwner == "" || newOwner == placed {
			continue
		}
		if rt.migrating[sid] {
			continue // already in flight
		}
		rt.migrating[sid] = true
		moves = append(moves, move{sid: sid, to: newOwner, from: rt.nodes[placed]})
	}
	rt.mu.Unlock()

	for _, m := range moves {
		rt.migrate(m.sid, m.from, m.to)
	}
	return len(moves)
}

// migrate moves one session: drain (the migrating mark 503s new
// traffic), export from the old owner (which spills and releases it),
// import on the new one, flip the placement, unmark. When the old
// node is dead or the transfer fails, the placement still flips — the
// new owner lazily rehydrates the session from the shared data
// directory on first touch (durable.Store.Adopt), which is the
// kill -9 recovery path.
//
// Each migration is one trace: a migrate root (keyed off the request
// counter, like probes) with migrate.export / migrate.import children
// around the transfer and a migrate.flip child around the placement
// update — always last, which is the ordering lce-tracecheck -stitch
// enforces.
func (rt *Router) migrate(sid string, from *nodeState, to string) {
	ctx, root := rt.obs.TracerOrNil().StartRootKeyed(context.Background(), obsv.SpanMigrate,
		keyedRootKey("migrate."+sid, rt.migSeq.Add(1)))
	root.SetAttr("node", routerNode)
	root.SetAttr("session", sid)
	root.SetAttr("to", to)
	if from != nil {
		root.SetAttr("from", from.name)
	}
	defer root.End()
	defer func() {
		_, flip := obsv.StartSpan(ctx, obsv.SpanMigrateFlip)
		rt.mu.Lock()
		rt.placements[sid] = to
		delete(rt.migrating, sid)
		rt.mu.Unlock()
		flip.End()
	}()
	rt.mu.RLock()
	dst := rt.nodes[to]
	rt.mu.RUnlock()
	if dst == nil || from == nil || !from.alive.Load() {
		root.SetAttr("mode", "adopt") // new owner rehydrates from disk
		return
	}
	root.SetAttr("mode", "live")
	data, err := rt.exportSession(ctx, from, sid)
	if err != nil {
		root.SetError(err.Error())
		return
	}
	if err := rt.importSession(ctx, dst, sid, data); err != nil {
		root.SetError(err.Error())
	}
}

// exportSession drains one session off a node via its migration admin
// route.
func (rt *Router) exportSession(ctx context.Context, st *nodeState, sid string) ([]byte, error) {
	_, sp := obsv.StartSpan(ctx, obsv.SpanMigrateExport)
	sp.SetAttr("node", routerNode)
	sp.SetAttr("target", st.name)
	defer sp.End()
	resp, err := rt.client.Post(st.url+"/v2/admin/export?session="+url.QueryEscape(sid), "", nil)
	if err != nil {
		sp.SetError(err.Error())
		if rt.noteFailure(st) {
			go rt.rebalance()
		}
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		err := fmt.Errorf("export %s from %s: status %d", sid, st.name, resp.StatusCode)
		sp.SetError(err.Error())
		return nil, err
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err == nil {
		sp.SetAttrInt("bytes", int64(len(data)))
	}
	return data, err
}

// importSession lands exported bytes on a node.
func (rt *Router) importSession(ctx context.Context, st *nodeState, sid string, data []byte) error {
	_, sp := obsv.StartSpan(ctx, obsv.SpanMigrateImport)
	sp.SetAttr("node", routerNode)
	sp.SetAttr("target", st.name)
	sp.SetAttrInt("bytes", int64(len(data)))
	defer sp.End()
	resp, err := rt.client.Post(st.url+"/v2/admin/import?session="+url.QueryEscape(sid),
		"application/octet-stream", bytes.NewReader(data))
	if err != nil {
		sp.SetError(err.Error())
		if rt.noteFailure(st) {
			go rt.rebalance()
		}
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		err := fmt.Errorf("import %s to %s: status %d", sid, st.name, resp.StatusCode)
		sp.SetError(err.Error())
		return err
	}
	return nil
}

// liveNodes snapshots the current live membership (sorted by name).
func (rt *Router) liveNodes() []*nodeState {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	names := make([]string, 0, len(rt.nodes))
	for name := range rt.nodes {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]*nodeState, 0, len(names))
	for _, name := range names {
		if st := rt.nodes[name]; st.alive.Load() {
			out = append(out, st)
		}
	}
	return out
}
