package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"syscall"
	"time"

	"lce"
	"lce/internal/cloudapi"
	"lce/internal/cluster"
	"lce/internal/durable"
	"lce/internal/httpapi"
	"lce/internal/opsplane"
	"lce/internal/tenant"
)

// The traced run rebuilds a workload's stack inside this process from
// the layers' public constructors and wraps every layer boundary in a
// decorator of the benchmark's own, so spans come from outside the
// program: nothing under internal/ is edited or asked to trace itself.

// Span names, one per layer boundary.
const (
	spanClient    = "client"            // send → whole answer read
	spanCluster   = "cluster"           // router handler
	spanHTTPAPI   = "httpapi"           // node handler
	spanRehydrate = "durable.rehydrate" // spill tier Adopt (miss path)
	spanSpill     = "durable.spill"     // spill tier Spill (eviction)
	spanJournal   = "durable.journal"   // journaled session backend Invoke
	spanInterp    = "interp"            // interpreter Invoke
)

// span is one timed interval at a layer boundary. Times are
// nanoseconds since the recorder started.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`     // shared by the spans of one request
	ID     int    `json:"id"`     // index in the recorder
	Parent int    `json:"parent"` // -1 for a request's root
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

// recorder keeps spans in memory until the run ends. The traced run
// is solo — one request in flight — and the layers of one request are
// nested in time even across its goroutines, so the open spans form a
// stack and a new span's parent is whatever is open. The one exception
// is a handler that flushes its answer and then does a little more:
// its span is still open when the client starts the next request, so a
// request's root span clears the stack instead of nesting.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	open  []int
	ops   int
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// beginRoot opens the root span of a new request.
func (r *recorder) beginRoot(name string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.open = r.open[:0]
	return r.push(name, -1, r.ops)
}

// begin opens a span under whatever span is open. With nothing open
// (a call outside any traced request) it is a root of its own.
func (r *recorder) begin(name string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if n := len(r.open); n > 0 {
		parent := r.open[n-1]
		return r.push(name, parent, r.spans[parent].Op)
	}
	return r.push(name, -1, r.ops)
}

func (r *recorder) push(name string, parent, op int) int {
	if parent < 0 {
		r.ops++
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{Name: name, Op: op, ID: id, Parent: parent, Start: time.Since(r.t0).Nanoseconds()})
	r.open = append(r.open, id)
	return id
}

func (r *recorder) end(id int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id].End = time.Since(r.t0).Nanoseconds()
	for i := len(r.open) - 1; i >= 0; i-- {
		if r.open[i] == id {
			r.open = append(r.open[:i], r.open[i+1:]...)
			return
		}
	}
}

// reset forgets everything recorded so far.
func (r *recorder) reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans, r.open, r.ops = nil, nil, 0
}

func (r *recorder) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes is the trace's arithmetic: a span's self time is its
// duration minus the part of its interval its children cover. It
// returns, per span name, total self time, total duration and span
// count; plus total root duration and the number of requests.
func selfTimes(spans []span) (self, total map[string]int64, count map[string]int, rootTotal int64, ops int) {
	covered := make([]int64, len(spans))
	for i := range spans {
		s := &spans[i]
		if s.Parent < 0 {
			rootTotal += s.End - s.Start
			ops++
			continue
		}
		p := &spans[s.Parent]
		lo, hi := max(s.Start, p.Start), min(s.End, p.End)
		if hi > lo {
			covered[s.Parent] += hi - lo
		}
	}
	self, total, count = map[string]int64{}, map[string]int64{}, map[string]int{}
	for i := range spans {
		s := &spans[i]
		if d := s.End - s.Start - covered[i]; d > 0 {
			self[s.Name] += d
		}
		total[s.Name] += s.End - s.Start
		count[s.Name]++
	}
	return self, total, count, rootTotal, ops
}

// traceKey marks a request context as belonging to a traced request,
// so the backend decorators can tell a client's call from the journal
// replay a rehydration makes through the same backend.
type traceKey struct{}

// spanHandler is the HTTP middleware around a router or node handler.
func spanHandler(rec *recorder, name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			h.ServeHTTP(w, r)
			return
		}
		id := rec.begin(name)
		defer rec.end(id)
		h.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), traceKey{}, true)))
	})
}

// spanBackend decorates a cloudapi.Backend with a span around Invoke.
// It exposes Inner, which is how durable.Store and the HTTP front-end's
// error advisor find the emulator under wrappers.
type spanBackend struct {
	cloudapi.Backend
	rec  *recorder
	name string
}

func (b *spanBackend) Inner() cloudapi.Backend { return b.Backend }

func (b *spanBackend) Invoke(req cloudapi.Request) (cloudapi.Result, error) {
	if req.Ctx == nil || req.Ctx.Value(traceKey{}) == nil {
		return b.Backend.Invoke(req)
	}
	id := b.rec.begin(b.name)
	defer b.rec.end(id)
	return b.Backend.Invoke(req)
}

// spillTier decorates the pool's spill tier: Adopt is the rehydrate
// path, Spill the eviction path. The backend Adopt returns is the
// journaled session wrapper, which gets its own span decorator — taken
// off again before Spill, because the store only spills its own type.
type spillTier struct {
	*durable.Store
	rec *recorder
}

func (s *spillTier) Adopt(ctx context.Context, session string, b cloudapi.Backend) (cloudapi.Backend, bool) {
	id := s.rec.begin(spanRehydrate)
	wrapped, ok := s.Store.Adopt(ctx, session, b)
	s.rec.end(id)
	if !ok {
		return wrapped, false
	}
	return &spanBackend{Backend: wrapped, rec: s.rec, name: spanJournal}, true
}

func (s *spillTier) Spill(session string, b cloudapi.Backend) (int64, error) {
	if sb, ok := b.(*spanBackend); ok {
		b = sb.Backend
	}
	id := s.rec.begin(spanSpill)
	defer s.rec.end(id)
	return s.Store.Spill(session, b)
}

// stack is one workload's servers assembled in this process, each on
// its own loopback listener.
type stack struct {
	front   string
	servers []*http.Server
	router  *cluster.Router
	dataDir string
}

func (s *stack) close() {
	for _, srv := range s.servers {
		srv.Close()
	}
	if s.router != nil {
		s.router.Close()
	}
	if s.dataDir != "" {
		os.RemoveAll(s.dataDir)
		syscall.Sync() // see fleet.stop
	}
}

func (s *stack) serve(h http.Handler) (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h}
	s.servers = append(s.servers, srv)
	go srv.Serve(l)
	return l.Addr().String(), nil
}

// tracedNode wires one node the way lce.NewServer does for
// "-service ec2 -backend learned -log-format off" plus the workload's
// flags, with the decorators slotted in between the layers.
func tracedNode(rec *recorder, w *workload, node, dataDir string) (http.Handler, error) {
	b, err := lce.NewBackend("ec2", "learned", false)
	if err != nil {
		return nil, err
	}
	fork := cloudapi.FactoryOf(b)
	factory := func() cloudapi.Backend { return &spanBackend{Backend: fork(), rec: rec, name: spanInterp} }
	ob := lce.NewObs(1)
	ob.TracerOrNil().SetIdentity(node)
	ops := opsplane.New(opsplane.Config{Service: "ec2", Obs: ob, Objectives: opsplane.DefaultObjectives()})
	tcfg := tenant.Config{Shards: 8, Capacity: 64, IdleTTL: 15 * time.Minute, Registry: ob.Registry, OnEvict: ops.OnEvict()}
	if w.pool != 0 {
		tcfg.Capacity = w.pool
	}
	if w.durable() {
		store, err := durable.Open(durable.Config{Dir: dataDir, Fsync: w.fsync, Registry: ob.Registry, Events: ops.OnDurable()})
		if err != nil {
			return nil, err
		}
		tcfg.Spill = &spillTier{Store: store, rec: rec}
	}
	pool, err := tenant.New(factory, tcfg)
	if err != nil {
		return nil, err
	}
	h := httpapi.New(b, httpapi.WithPool(pool), httpapi.WithObs(ob), httpapi.WithOps(ops), httpapi.WithNode(node))
	return spanHandler(rec, spanHTTPAPI, h), nil
}

// tracedStack assembles the workload's topology in-process.
func (e *env) tracedStack(rec *recorder, w *workload) (*stack, error) {
	s := &stack{}
	ok := false
	defer func() {
		if !ok {
			s.close()
		}
	}()
	if w.durable() {
		s.dataDir = filepath.Join(e.work, "data-traced")
		os.RemoveAll(s.dataDir)
	}
	names := []string{""}
	if w.routed {
		names = []string{"n1", "n2"}
	}
	var members []cluster.Node
	for _, n := range names {
		h, err := tracedNode(rec, w, n, s.dataDir)
		if err != nil {
			return nil, err
		}
		addr, err := s.serve(h)
		if err != nil {
			return nil, err
		}
		members = append(members, cluster.Node{Name: n, URL: "http://" + addr})
		s.front = addr
	}
	if w.routed {
		// As shipped: tracing on. The prober stays off — a health probe
		// landing inside a request would open a span of its own.
		rt, err := cluster.NewRouter(cluster.Config{Nodes: members, ProbeInterval: -1, Obs: lce.NewObs(1)})
		if err != nil {
			return nil, err
		}
		s.router = rt
		if s.front, err = s.serve(spanHandler(rec, spanCluster, rt.Handler())); err != nil {
			return nil, err
		}
	}
	ok = true
	return s, nil
}

// tracedRun drives the in-process stack solo with the same script and
// seed, records a span at every layer boundary, writes them to
// trace-<workload>.jsonl, and reports mean self time per op per layer.
func (e *env) tracedRun(w *workload, cfg runConfig, want []expect, res *runResult) error {
	rec := newRecorder()
	s, err := e.tracedStack(rec, w)
	if err != nil {
		return err
	}
	defer s.close()
	t := newTarget(s.front, newSessions("s", w.sessions), want)
	if err := runSteps(t, 0, baseSteps); err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	c, err := dial(s.front)
	if err != nil {
		return err
	}
	defer c.close()
	p := newPicker(cfg.seed, 1, 0, t.sessions)
	call := func(traced bool) (float64, error) {
		sess := p.next()
		k := sess.n % len(cycle)
		id := -1
		t0 := time.Now()
		if traced {
			id = rec.beginRoot(spanClient)
		}
		status, ct, body, err := c.roundTrip(sess.reqs[k])
		if traced {
			rec.end(id)
		}
		if err != nil {
			return 0, err
		}
		ms := float64(time.Since(t0).Nanoseconds()) / 1e6
		sess.n++
		res.attempted++
		if !t.want[k].matches(status, ct, body) {
			res.failed++
		}
		return ms, nil
	}
	// Set-up's spans (and a short warm-up's) are not part of the trace.
	for warm := time.Now(); time.Since(warm) < cfg.warm/2; {
		if _, err := call(false); err != nil {
			return err
		}
	}
	rec.reset()
	var lat []float64
	for start := time.Now(); len(lat) < cfg.tracedOps && time.Since(start) < cfg.traced; {
		ms, err := call(true)
		if err != nil {
			return err
		}
		lat = append(lat, ms)
	}
	if err := rec.writeJSONL(filepath.Join(e.out, "trace-"+w.name+".jsonl")); err != nil {
		return err
	}

	self, total, count, rootTotal, ops := selfTimes(rec.spans)
	perOp := func(name string) float64 { return float64(self[name]) / 1e3 / float64(ops) }
	perEvent := func(name string) float64 {
		if count[name] == 0 {
			return 0
		}
		return float64(total[name]) / 1e3 / float64(count[name])
	}
	res.metrics["client.self_us"] = perOp(spanClient)
	res.metrics["cluster.self_us"] = perOp(spanCluster)
	res.metrics["httpapi.self_us"] = perOp(spanHTTPAPI)
	res.metrics["durable.journal_self_us"] = perOp(spanJournal)
	res.metrics["durable.rehydrate_self_us"] = perOp(spanRehydrate)
	res.metrics["durable.spill_self_us"] = perOp(spanSpill)
	res.metrics["interp.self_us"] = perOp(spanInterp)
	res.metrics["durable.rehydrate_event_us"] = perEvent(spanRehydrate)
	res.metrics["durable.spill_event_us"] = perEvent(spanSpill)
	res.samples["durable.rehydrate_event_us"] = count[spanRehydrate]
	res.samples["durable.spill_event_us"] = count[spanSpill]
	var sum int64
	for _, v := range self {
		sum += v
	}
	res.metrics["trace.coverage"] = float64(sum) / float64(rootTotal)
	res.metrics["trace.ops"] = float64(ops)
	sort.Float64s(lat)
	if base := res.metrics["solo_p50_ms"]; base > 0 {
		res.metrics["trace.overhead_ratio"] = percentile(lat, 0.50) / base
		res.samples["trace.overhead_ratio"] = len(lat)
	}
	return nil
}
