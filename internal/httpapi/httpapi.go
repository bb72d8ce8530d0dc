// Package httpapi exposes any cloud backend over HTTP, LocalStack
// style, so DevOps programs exercise the emulator exactly as they
// would the cloud: POST a JSON request envelope, receive a result or a
// structured API error. A matching client implements cloudapi.Backend
// over the wire, which makes a remote emulator interchangeable with an
// in-process one everywhere in this repository (differential tests
// included).
//
// One route generation is served. The session is selected by the
// X-LCE-Session header; an absent header means the shared "default"
// session. Every data-plane response carries a RequestId (echoed from
// X-LCE-Request-Id or derived) and the same structured envelope:
//
//	POST /v2/{service}?Action=X   — execute an action in the session
//	POST /v2/{service}/reset      — reset the session (session-scoped!)
//	POST /v2/{service}/batch      — ordered request array, one round trip
//	GET  /v2/sessions             — tenant-pool occupancy (pool servers)
//	GET  /actions                 — list supported actions
//	GET  /healthz                 — liveness
//
// Every 4xx/5xx response — handler, catch-all or router — is the same
// JSON error envelope {"__error":true, "Code", "Message", "RequestId"},
// so clients parse exactly one failure shape.
package httpapi

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"unicode/utf8"

	"lce/internal/advisor"
	"lce/internal/cloudapi"
	"lce/internal/durable"
	"lce/internal/interp"
	"lce/internal/obsv"
	"lce/internal/opsplane"
	"lce/internal/tenant"
)

// Wire headers of the v2 protocol.
const (
	// SessionHeader selects the tenant session. Absent or "default"
	// means the shared default session.
	SessionHeader = "X-LCE-Session"
	// RequestIDHeader carries the request ID: clients may set it to
	// tag a call (the server echoes it), and the server always
	// returns it on data-plane and error responses.
	RequestIDHeader = "X-LCE-Request-Id"
	// APIVersionHeader is returned on every /v2 response, so clients
	// can detect which surface generation — and which deployment
	// shape — they are talking to. A single lce-server answers
	// APIVersion; the cluster router (cmd/lce-router) overrides the
	// header with APIVersionCluster on everything it serves, which is
	// how a client discovers that GET /v2/cluster exists and that
	// sessions live on a fleet.
	APIVersionHeader = "X-LCE-Api-Version"
)

// The wire headers as http.Header stores them. Header.Get and Set
// canonicalize their key on every call, which for these spellings
// ("X-LCE-…" is stored as "X-Lce-…") allocates a new string each time;
// the request path indexes the header map with these instead. The
// bytes on the wire are the same either way.
var (
	sessionKey    = http.CanonicalHeaderKey(SessionHeader)
	requestIDKey  = http.CanonicalHeaderKey(RequestIDHeader)
	apiVersionKey = http.CanonicalHeaderKey(APIVersionHeader)
)

// headerValue is h.Get for an already-canonical key.
func headerValue(h http.Header, canonicalKey string) string {
	if v := h[canonicalKey]; len(v) > 0 {
		return v[0]
	}
	return ""
}

// API surface versions stamped into APIVersionHeader.
const (
	// APIVersion is the cluster-aware /v2 surface of one lce-server
	// node (sessions carry a node identity, migration admin routes
	// exist).
	APIVersion = "2.1"
	// APIVersionCluster is APIVersion served through lce-router: the
	// same wire surface plus fleet aggregation (GET /v2/cluster,
	// fleet-wide /v2/sessions and /metrics) and transparent session
	// routing.
	APIVersionCluster = "2.1+cluster"
)

// MaxBatch bounds the number of requests one /batch call may carry.
const MaxBatch = 256

// MaxBody bounds, in bytes, every invoke/batch body this package reads
// off the wire: request bodies on the server (longer ones are cut
// there and fail to decode), response bodies in the client (longer
// ones are an error, see ReadBounded), and what an instrumented route
// buffers of either for the flight recorder.
const MaxBody = 1 << 20

// Batch failure modes.
const (
	// BatchModeStop stops at the first failed request; later
	// requests are not executed.
	BatchModeStop = "stop"
	// BatchModeBestEffort executes every request regardless of
	// earlier failures.
	BatchModeBestEffort = "best-effort"
)

// wireRequest is the POST body of an invoke call (the action may
// instead arrive as the Action query parameter).
type wireRequest struct {
	Action string                    `json:"action"`
	Params map[string]cloudapi.Value `json:"params,omitempty"`
}

// wireResponse is the success envelope. Result is the backend's result
// as it answered; writeWireResponse normalizes it on the way out.
type wireResponse struct {
	RequestID string                    `json:"RequestId"`
	Result    map[string]cloudapi.Value `json:"result,omitempty"`
}

// wireError is the unified error envelope: the body of every 4xx/5xx
// response. The __error marker lets clients decode success and
// failure from one stream without sniffing status codes.
type wireError struct {
	IsError   bool        `json:"__error"`
	Code      string      `json:"Code"`
	Message   string      `json:"Message"`
	RequestID string      `json:"RequestId,omitempty"`
	Advice    *wireAdvice `json:"advice,omitempty"`
}

type wireAdvice struct {
	RootCause string   `json:"rootCause"`
	Repairs   []string `json:"repairs,omitempty"`
}

// wireBatchRequest is the POST body of /v2/{service}/batch.
type wireBatchRequest struct {
	// Mode is "stop" (default) or "best-effort"; the mode query
	// parameter overrides it.
	Mode     string        `json:"mode,omitempty"`
	Requests []wireRequest `json:"requests"`
}

// wireBatchItem is one per-request outcome inside a batch response.
type wireBatchItem struct {
	Result map[string]cloudapi.Value `json:"result,omitempty"`
	Error  *wireError                `json:"error,omitempty"`
}

// wireBatchResponse is the /batch reply: one item per *executed*
// request, in request order. In stop mode a failure truncates the
// item list and StoppedAt records the failing index.
type wireBatchResponse struct {
	RequestID string          `json:"RequestId,omitempty"`
	Mode      string          `json:"mode"`
	Items     []wireBatchItem `json:"items"`
	Succeeded int             `json:"succeeded"`
	Failed    int             `json:"failed"`
	StoppedAt *int            `json:"stoppedAt,omitempty"`
}

// config collects New's functional options.
type config struct {
	obs  *obsv.Obs
	pool *tenant.Pool
	ops  *opsplane.Plane
	node string
}

// Option configures New.
type Option func(*config)

// WithObs mounts the observability stack: the request counter
// lce_http_requests_total{route,service,action,session,code}, latency
// histograms, one root span per request threaded
// into the backend call, plus GET /metrics (Prometheus text) and
// GET /debug/traces (spans grouped by trace). A nil obs is a no-op.
func WithObs(o *obsv.Obs) Option { return func(c *config) { c.obs = o } }

// WithNode names this server as one node of a cluster: GET
// /v2/sessions reports the name in its node field, so fleet-wide
// aggregation (lce-router) can attribute occupancy, and operators can
// tell which node answered. Empty (the default) means a standalone
// server; the field is still present so the response shape is stable.
func WithNode(name string) Option { return func(c *config) { c.node = name } }

// WithPool mounts a tenant session pool: X-LCE-Session selects an
// isolated per-session backend (created on first use, LRU/TTL
// evicted), Reset becomes session-scoped, and GET /v2/sessions
// reports occupancy. Requests without a session header use the
// pool's pinned "default" session, whose backend is factory-made and
// behaviourally identical to a fresh b. A nil pool is a no-op: the
// server is single-tenant and non-default sessions are rejected.
func WithPool(p *tenant.Pool) Option { return func(c *config) { c.pool = p } }

// New serves backend b over HTTP with the given options — the one
// constructor behind every server shape in this repository:
//
//	New(b)                          // plain single-tenant server
//	New(b, WithObs(o))              // instrumented
//	New(b, WithPool(p), WithObs(o)) // multi-tenant and instrumented
//
// b itself handles single-tenant traffic and serves metadata
// (/actions, /healthz); with a pool, invoke/reset traffic is routed
// to per-session backends instead.
func New(b cloudapi.Backend, opts ...Option) http.Handler {
	var cfg config
	for _, o := range opts {
		if o != nil {
			o(&cfg)
		}
	}
	s := &server{backend: b, obs: cfg.obs, pool: cfg.pool, ops: cfg.ops, node: cfg.node}
	return s.routes()
}

// server is one constructed HTTP front-end.
type server struct {
	backend  cloudapi.Backend
	obs      *obsv.Obs
	pool     *tenant.Pool
	ops      *opsplane.Plane
	node     string
	requests atomic.Int64 // backend invocations, reported by /healthz
	reqSeq   atomic.Uint64
}

func (s *server) routes() http.Handler {
	mux := http.NewServeMux()
	handle := func(pattern, route string, fn http.HandlerFunc) {
		if strings.HasPrefix(route, "v2.") {
			// Every /v2 response advertises the surface version, so a
			// client can detect the cluster-aware generation (and the
			// router can override it with its own value).
			inner := fn
			fn = func(w http.ResponseWriter, r *http.Request) {
				w.Header()[apiVersionKey] = []string{APIVersion}
				inner(w, r)
			}
		}
		mux.HandleFunc(pattern, s.instrument(route, fn))
	}

	handle("GET /actions", "actions", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{
			"service": s.backend.Service(),
			"actions": s.backend.Actions(),
		})
	})
	handle("GET /healthz", "healthz", func(w http.ResponseWriter, r *http.Request) {
		if s.ops != nil {
			// With the operations plane mounted, /healthz is the SLO
			// verdict: 200 while the multi-window burn rule holds, 503
			// with per-check detail once it breaks.
			s.ops.ServeHealthz(w, r)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"service":  s.backend.Service(),
			"requests": s.requests.Load(),
		})
	})

	handle("POST /v2/{service}", "v2.invoke", s.v2Invoke)
	handle("POST /v2/{service}/reset", "v2.reset", s.v2Reset)
	handle("POST /v2/{service}/batch", "v2.batch", s.v2Batch)
	if s.pool != nil {
		handle("GET /v2/sessions", "v2.sessions", s.v2Sessions)
		// Migration admin surface: the cluster router drains sessions
		// off this node (export) and lands them on their new ring
		// owner (import). Session state moves as the durable tier's
		// snapshot bytes — the same format spills and crash recovery
		// use — so a migrated session is byte-identical to one that
		// never moved.
		handle("POST /v2/admin/export", "v2.admin.export", s.v2AdminExport)
		handle("POST /v2/admin/import", "v2.admin.import", s.v2AdminImport)
	}

	if s.obs != nil && s.obs.Registry != nil {
		mux.Handle("GET /metrics", s.obs.Registry)
	}
	if t := s.obs.TracerOrNil(); t != nil {
		mux.HandleFunc("GET /debug/traces", func(w http.ResponseWriter, r *http.Request) {
			// ?format=jsonl serves the raw span export — the same shape
			// as -trace-out files, so lce-tracecheck (and the router's
			// fleet merge) can consume a live node without a restart.
			if r.URL.Query().Get("format") == "jsonl" {
				w.Header().Set("Content-Type", "application/x-ndjson")
				_ = t.WriteJSONL(w)
				return
			}
			writeJSON(w, http.StatusOK, obsv.GroupTraces(t.Snapshot()))
		})
	}
	s.opsRoutes(mux)

	// Unmatched paths get the unified error envelope rather than the
	// router's plain-text 404.
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		WriteError(w, http.StatusNotFound, s.requestID(r),
			cloudapi.Errf("NotFound", "no route %s %s", r.Method, r.URL.Path))
	})
	return mux
}

// maxRequestID bounds, in bytes, a client-tagged request ID as node
// and router echo it.
const maxRequestID = 128

// ClampRequestID cuts a client-tagged request ID to at most
// maxRequestID bytes, at a UTF-8 character boundary, so the header
// that echoes it and the JSON envelope that carries it (where a cut
// character would turn into U+FFFD) agree. Node and router both clamp
// with it, so a routed call echoes what a direct one does.
func ClampRequestID(id string) string {
	if len(id) <= maxRequestID {
		return id
	}
	n := maxRequestID
	for i := 0; i < utf8.UTFMax-1 && n > 0 && !utf8.RuneStart(id[n]); i++ {
		n--
	}
	return id[:n]
}

// requestID echoes the client-tagged request ID, or mints a fresh one
// from the server's sequence counter.
func (s *server) requestID(r *http.Request) string {
	if id := headerValue(r.Header, requestIDKey); id != "" {
		return ClampRequestID(id)
	}
	return MintRequestID("lce-", s.reqSeq.Add(1))
}

// MintRequestID is the request ID a process mints for its seq-th
// untagged request: prefix, then splitmix64(seq) as 16 hex digits, so
// IDs look opaque but are deterministic per process. Nodes mint with
// "lce-" and the router with "lce-r-", so an operator can tell which
// tier minted an ID.
func MintRequestID(prefix string, seq uint64) string {
	x := seq * 0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	var raw [8]byte
	binary.BigEndian.PutUint64(raw[:], x)
	var buf [32]byte
	return string(hex.AppendEncode(append(buf[:0], prefix...), raw[:]))
}

// sessionOf extracts the session selector ("" means default).
func sessionOf(r *http.Request) string { return headerValue(r.Header, sessionKey) }

// backendFor resolves the backend owning the request's session. On a
// pool-less server only the default session exists.
func (s *server) backendFor(r *http.Request) (cloudapi.Backend, error) {
	region := obsv.PhasesFrom(r.Context()).Start(obsv.PhaseSessionLookup)
	defer region.End()
	sid := sessionOf(r)
	if s.pool == nil {
		if sid == "" || sid == tenant.DefaultSession {
			return s.backend, nil
		}
		return nil, cloudapi.Errf(cloudapi.CodeInvalidSession,
			"this server is single-tenant: session %q is unavailable (no session pool mounted)", sid)
	}
	// GetCtx threads the request context down so a first-touch
	// rehydration in the spill tier nests as this lookup's
	// "rehydrate" child phase.
	return s.pool.GetCtx(r.Context(), sid)
}

// v2Invoke executes one action in the request's session:
// POST /v2/{service}?Action=X with params in the JSON body. The
// action may also arrive in the body; the query parameter wins.
func (s *server) v2Invoke(w http.ResponseWriter, r *http.Request) {
	reqID := s.requestID(r)
	if !s.checkService(w, r, reqID) {
		return
	}
	req, ok := s.readRequest(w, r, reqID)
	if !ok {
		return
	}
	if a := queryAction(r); a != "" {
		req.Action = a
	}
	if req.Action == "" {
		s.malformed(w, reqID, "missing action: pass ?Action= or an action body field")
		return
	}
	b, err := s.backendFor(r)
	if err != nil {
		s.writeAPIError(w, reqID, err)
		return
	}
	s.requests.Add(1)
	if sp := obsv.SpanFrom(r.Context()); sp != nil {
		sp.SetAttr("action", req.Action)
		if sid := sessionOf(r); sid != "" {
			sp.SetAttr("session", sid)
		}
	}
	b, res, err := s.invokeSession(r, b, cloudapi.Request{Action: req.Action, Params: cloudapi.Params(req.Params), Ctx: r.Context()})
	if err != nil {
		s.writeInvokeError(w, b, req, reqID, err)
		return
	}
	w.Header()[requestIDKey] = []string{reqID}
	writeWireResponse(w, http.StatusOK, wireResponse{RequestID: reqID, Result: res}, obsv.PhasesFrom(r.Context()))
}

// invokeSession runs one call on b, the backend backendFor resolved
// for r. The pool hands backends out without a lease, so a concurrent
// lookup may have evicted the session since: a durable session wrapper
// then refuses the call (durable.ErrSpilled) instead of acknowledging
// it against a world no later request will see. The session is
// resolved again — rehydrating it — and the call retried once; the
// backend that answered is returned for the caller's further calls.
// Losing the race twice in one request answers the transient
// ServiceUnavailable envelope, which retrying clients ride through.
func (s *server) invokeSession(r *http.Request, b cloudapi.Backend, req cloudapi.Request) (cloudapi.Backend, cloudapi.Result, error) {
	// The dispatch region covers every backend kind; for the learned
	// backend the interpreter opens its own same-named region inside it
	// and self-time accounting merges the two.
	pt := obsv.PhasesFrom(r.Context())
	region := pt.Start(obsv.PhaseDispatch)
	res, err := b.Invoke(req)
	region.End()
	if !errors.Is(err, durable.ErrSpilled) {
		return b, res, err
	}
	nb, err := s.backendFor(r)
	if err != nil {
		return b, nil, err
	}
	region = pt.Start(obsv.PhaseDispatch)
	res, err = nb.Invoke(req)
	region.End()
	if errors.Is(err, durable.ErrSpilled) {
		err = errEvictedTwice(sessionOf(r))
	}
	return nb, res, err
}

// errEvictedTwice is the transient answer to a request that lost the
// eviction race on its retry too.
func errEvictedTwice(sid string) error {
	return cloudapi.Errf(cloudapi.CodeServiceUnavailable,
		"session %q was evicted twice while this request held it; retry", sid)
}

// envelopePool recycles success-envelope buffers across requests. The
// data plane's hottest path is invoke-success, and the reflective
// encoder costs a fresh buffer plus per-field allocations on every
// call; the append encoder into a pooled buffer emits the same bytes
// with no per-request garbage.
var envelopePool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 1024)
		return &b
	},
}

// envelopePoolMaxCap bounds what returns to the pool: one pathological
// multi-megabyte describe must not pin its buffer forever.
const envelopePoolMaxCap = 64 << 10

// writeWireResponse writes the success envelope through the pooled
// append encoder, normalizing the backend's result as it encodes it.
// The bytes are exactly what writeJSON (the stdlib encoder) would
// produce for the envelope with cloudapi.NormalizeResult applied —
// field order, omitempty on the result, sorted result keys, refs as
// their ID strings, HTML-escaped strings, trailing newline — as
// TestWireResponseBytes asserts; external tooling greps response
// bodies, so the wire format is a compatibility surface.
func writeWireResponse(w http.ResponseWriter, status int, resp wireResponse, pt *obsv.PhaseTimer) {
	// The encode region closes before WriteHeader, so the "encode"
	// phase makes it into the Server-Timing header the status write
	// emits.
	region := pt.Start(obsv.PhaseEncode)
	bp := envelopePool.Get().(*[]byte)
	buf := (*bp)[:0]
	buf = append(buf, `{"RequestId":`...)
	buf = cloudapi.AppendJSONString(buf, resp.RequestID)
	if len(resp.Result) > 0 {
		buf = append(buf, `,"result":`...)
		buf = cloudapi.AppendNormalizedResult(buf, resp.Result)
	}
	buf = append(buf, '}', '\n')
	region.End()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(buf)
	if cap(buf) <= envelopePoolMaxCap {
		*bp = buf
		envelopePool.Put(bp)
	}
}

// v2Reset resets exactly one session's account: the session the
// header names (default when absent). With a pool this is the
// session-scoped Reset, done inside the pool under the lock evictions
// take: Reset has no error to answer with, so it must never land on a
// wrapper evicted since the lookup. Without a pool it resets the shared
// backend (the only session there is). The 204 carries the request ID
// like every other data-plane answer.
func (s *server) v2Reset(w http.ResponseWriter, r *http.Request) {
	reqID := s.requestID(r)
	if !s.checkService(w, r, reqID) {
		return
	}
	var err error
	if s.pool != nil {
		err = s.pool.ResetCtx(r.Context(), sessionOf(r))
	} else {
		var b cloudapi.Backend
		if b, err = s.backendFor(r); err == nil {
			b.Reset()
		}
	}
	if err != nil {
		s.writeAPIError(w, reqID, err)
		return
	}
	w.Header()[requestIDKey] = []string{reqID}
	w.WriteHeader(http.StatusNoContent)
}

// v2Batch executes an ordered array of requests in one round trip —
// the batched form of v2Invoke. Mode "stop" (default) halts at the
// first failure; "best-effort" runs everything. The response carries
// one item per executed request plus success/failure tallies; the
// HTTP status is 200 whenever the batch itself was well-formed
// (per-item failures live in the items, like AWS batch APIs).
func (s *server) v2Batch(w http.ResponseWriter, r *http.Request) {
	reqID := s.requestID(r)
	if !s.checkService(w, r, reqID) {
		return
	}
	region := obsv.PhasesFrom(r.Context()).Start(obsv.PhaseDecode)
	body, err := io.ReadAll(io.LimitReader(r.Body, MaxBody))
	if err != nil {
		region.End()
		s.malformed(w, reqID, "cannot read body: %v", err)
		return
	}
	var breq wireBatchRequest
	err = json.Unmarshal(body, &breq)
	region.End()
	if err != nil {
		s.malformed(w, reqID, "malformed batch: %v", err)
		return
	}
	mode := breq.Mode
	if m := r.URL.Query().Get("mode"); m != "" {
		mode = m
	}
	if mode == "" {
		mode = BatchModeStop
	}
	if mode != BatchModeStop && mode != BatchModeBestEffort {
		s.malformed(w, reqID, "unknown batch mode %q: want %q or %q", mode, BatchModeStop, BatchModeBestEffort)
		return
	}
	if len(breq.Requests) == 0 {
		s.malformed(w, reqID, "empty batch")
		return
	}
	if len(breq.Requests) > MaxBatch {
		s.malformed(w, reqID, "batch of %d exceeds the %d-request limit", len(breq.Requests), MaxBatch)
		return
	}
	b, err := s.backendFor(r)
	if err != nil {
		s.writeAPIError(w, reqID, err)
		return
	}
	if sp := obsv.SpanFrom(r.Context()); sp != nil {
		sp.SetAttrInt("batch.size", int64(len(breq.Requests)))
		sp.SetAttr("batch.mode", mode)
		if sid := sessionOf(r); sid != "" {
			sp.SetAttr("session", sid)
		}
	}

	resp := wireBatchResponse{RequestID: reqID, Mode: mode, Items: make([]wireBatchItem, 0, len(breq.Requests))}
	for i, item := range breq.Requests {
		if item.Action == "" {
			resp.Items = append(resp.Items, wireBatchItem{Error: s.invokeError(b, item,
				cloudapi.Errf("MalformedRequest", "batch item %d: missing action", i))})
			resp.Failed++
		} else {
			s.requests.Add(1)
			var res cloudapi.Result
			b, res, err = s.invokeSession(r, b, cloudapi.Request{Action: item.Action, Params: cloudapi.Params(item.Params), Ctx: r.Context()})
			if err != nil {
				resp.Items = append(resp.Items, wireBatchItem{Error: s.invokeError(b, item, err)})
				resp.Failed++
			} else {
				resp.Items = append(resp.Items, wireBatchItem{Result: cloudapi.NormalizeResult(res)})
				resp.Succeeded++
				continue
			}
		}
		if mode == BatchModeStop {
			at := i
			resp.StoppedAt = &at
			break
		}
	}
	// Encode the batch envelope up front (byte-identical to writeJSON's
	// json.Encoder: Marshal plus the trailing newline Encode appends)
	// so the encode region closes before the status commit and the
	// phase reaches the Server-Timing header.
	region = obsv.PhasesFrom(r.Context()).Start(obsv.PhaseEncode)
	data, err := json.Marshal(resp)
	region.End()
	if err != nil {
		s.writeAPIError(w, reqID, err)
		return
	}
	data = append(data, '\n')
	w.Header().Set(RequestIDHeader, reqID)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(data)
}

// v2Sessions reports tenant-pool occupancy (mounted only on pool
// servers).
func (s *server) v2Sessions(w http.ResponseWriter, r *http.Request) {
	st := s.pool.Stats()
	w.Header().Set(RequestIDHeader, s.requestID(r))
	writeJSON(w, http.StatusOK, map[string]any{
		// The node name this server was started with ("" standalone):
		// the field that lets fleet-wide aggregation attribute these
		// counts to a cluster member.
		"node":              s.node,
		"sessions":          st.Sessions,
		"shards":            s.pool.Shards(),
		"perShard":          st.PerShard,
		"hits":              st.Hits,
		"misses":            st.Misses,
		"hitRate":           st.HitRate(),
		"idleEvictions":     st.IdleEvictions,
		"capacityEvictions": st.CapacityEvictions,
		// Spill tier: sessions whose state lives on disk, and how many
		// evictions reached it. Both 0 on servers without -data-dir.
		"spilled": st.Spilled,
		"spills":  st.Spills,
	})
}

// readRequest decodes an invoke body. An empty body is a valid
// zero-parameter request on v2 (the action rides in the query), so
// decoding failures are only reported for non-empty bodies.
func (s *server) readRequest(w http.ResponseWriter, r *http.Request, reqID string) (wireRequest, bool) {
	region := obsv.PhasesFrom(r.Context()).Start(obsv.PhaseDecode)
	defer region.End()
	x := exchangeOf(r)
	var body []byte
	if x != nil && x.captured {
		// The flight capture already holds the body, under the same
		// size bound; decode it in place instead of reading a copy.
		body = x.reqBody.Bytes()
	} else {
		var err error
		if body, err = io.ReadAll(io.LimitReader(r.Body, MaxBody)); err != nil {
			s.malformed(w, reqID, "cannot read body: %v", err)
			return wireRequest{}, false
		}
	}
	req, err := decodeWireRequest(body)
	if err != nil {
		s.malformed(w, reqID, "malformed request: %v", err)
		return wireRequest{}, false
	}
	if x != nil {
		// The action label and the flight record want the body's action
		// field; hand it over rather than have the wrapper decode the
		// body a second time.
		x.decodedAction, x.decoded = req.Action, true
	}
	return req, true
}

// checkService rejects v2 calls whose path names a service this
// server does not host.
func (s *server) checkService(w http.ResponseWriter, r *http.Request, reqID string) bool {
	if svc := r.PathValue("service"); svc != s.backend.Service() {
		WriteError(w, http.StatusNotFound, reqID,
			cloudapi.Errf(cloudapi.CodeInvalidService, "this server hosts %q, not %q", s.backend.Service(), svc))
		return false
	}
	return true
}

// writeInvokeError maps a backend error onto the wire: API errors
// keep their code (with learned-emulator advice when available), any
// other error is a backend malfunction reported as InternalFailure.
func (s *server) writeInvokeError(w http.ResponseWriter, b cloudapi.Backend, req wireRequest, reqID string, err error) {
	we := s.invokeError(b, req, err)
	we.RequestID = reqID
	w.Header()[requestIDKey] = []string{reqID}
	noteErrorCode(w, we.Code)
	writeJSON(w, statusFor(we.Code), we)
}

// invokeError builds the envelope for one failed invocation (batch
// items reuse it without a per-item RequestId — the batch-level one
// covers them).
func (s *server) invokeError(b cloudapi.Backend, req wireRequest, err error) *wireError {
	ae, ok := cloudapi.AsAPIError(err)
	if !ok {
		// A non-API error is a backend malfunction: report it as
		// InternalFailure rather than letting it masquerade as a
		// client-side MalformedRequest.
		return &wireError{IsError: true, Code: cloudapi.CodeInternalFailure,
			Message: fmt.Sprintf("backend failure: %v", err)}
	}
	we := &wireError{IsError: true, Code: ae.Code, Message: ae.Message}
	if emu, isLearned := learnedEmulator(b); isLearned {
		adv := advisor.Explain(emu, cloudapi.Request{Action: req.Action, Params: cloudapi.Params(req.Params)}, ae)
		we.Advice = &wireAdvice{RootCause: adv.RootCause, Repairs: adv.Repairs}
	}
	return we
}

// learnedEmulator walks the backend chain — fault injectors, durable
// session wrappers, anything exposing Inner — to the learned emulator
// terminating it, so error advice survives whatever the session is
// wrapped in.
func learnedEmulator(b cloudapi.Backend) (*interp.Emulator, bool) {
	for depth := 0; depth < 8 && b != nil; depth++ {
		if emu, ok := b.(*interp.Emulator); ok {
			return emu, true
		}
		u, ok := b.(interface{ Inner() cloudapi.Backend })
		if !ok {
			return nil, false
		}
		b = u.Inner()
	}
	return nil, false
}

// writeAPIError renders err (an *cloudapi.APIError, or a malfunction
// mapped to InternalFailure) as the unified envelope.
func (s *server) writeAPIError(w http.ResponseWriter, reqID string, err error) {
	ae, ok := cloudapi.AsAPIError(err)
	if !ok {
		ae = cloudapi.Errf(cloudapi.CodeInternalFailure, "backend failure: %v", err)
	}
	WriteError(w, statusFor(ae.Code), reqID, ae)
}

// WriteError renders ae as the unified error envelope with the given
// status and request ID. The router answers the failures it originates
// through it too, so they decode exactly like a node's.
func WriteError(w http.ResponseWriter, status int, reqID string, ae *cloudapi.APIError) {
	w.Header()[requestIDKey] = []string{reqID}
	noteErrorCode(w, ae.Code)
	writeJSON(w, status, wireError{IsError: true, Code: ae.Code, Message: ae.Message, RequestID: reqID})
}

// malformed is the client-fault path (unreadable or malformed
// requests): a 400 carrying the MalformedRequest code in the unified
// envelope.
func (s *server) malformed(w http.ResponseWriter, reqID, format string, args ...any) {
	WriteError(w, http.StatusBadRequest, reqID, cloudapi.Errf("MalformedRequest", format, args...))
}

// statusWriter captures the response status for the instrumentation
// layer; an unset status means an implicit 200 from the first Write.
// With mirror set it additionally copies the first MaxBody response
// bytes into tee (for the flight recorder). A non-nil phases timer
// renders the request's phase breakdown as a Server-Timing header at
// the moment the status commits — the last point headers can still
// change, by which time every pre-write phase has closed. It lives
// inside the request's pooled exchange.
type statusWriter struct {
	http.ResponseWriter
	status int
	mirror bool
	tee    bytes.Buffer
	phases *obsv.PhaseTimer
	// errorCode is the unified envelope's Code, noted by the error
	// writers as they encode it — the request's "code" label.
	errorCode string
}

// noteErrorCode tells an instrumented route's status writer which
// envelope Code the response carries; on a plain route it does nothing.
func noteErrorCode(w http.ResponseWriter, code string) {
	if sw, ok := w.(*statusWriter); ok {
		sw.errorCode = code
	}
}

func (w *statusWriter) WriteHeader(status int) {
	if w.status == 0 {
		w.status = status
		if w.phases != nil {
			var buf [320]byte
			if h := w.phases.Times().AppendServerTiming(buf[:0]); len(h) > 0 {
				w.Header()["Server-Timing"] = []string{string(h)}
			}
		}
	}
	w.ResponseWriter.WriteHeader(status)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.mirror {
		if room := MaxBody - w.tee.Len(); room > 0 {
			w.tee.Write(p[:min(len(p), room)])
		}
	}
	return w.ResponseWriter.Write(p)
}

func (w *statusWriter) statusOrOK() int {
	if w.status == 0 {
		return http.StatusOK
	}
	return w.status
}

// statusFor maps an API error code to its wire status the way AWS
// query APIs do: semantic client errors *and* throttling are 400 (the
// throttling code, not the status, tells the client to back off),
// timeouts are 408, internal faults 500, and availability faults 503.
// Without this table every injected fault would fall through to the
// semantic-error 400 and a wire client could not distinguish "your
// request is wrong" from "the service is degraded".
func statusFor(code string) int {
	switch code {
	case cloudapi.CodeServiceUnavailable:
		return http.StatusServiceUnavailable
	case cloudapi.CodeBadGateway:
		return http.StatusBadGateway
	case cloudapi.CodeInternalError, cloudapi.CodeInternalFailure:
		return http.StatusInternalServerError
	case cloudapi.CodeRequestTimeout:
		return http.StatusRequestTimeout
	case cloudapi.CodeInvalidService:
		return http.StatusNotFound
	default:
		return http.StatusBadRequest
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// Client implements cloudapi.Backend over the HTTP protocol above —
// the one client for every server shape in this repository: a plain
// lce-server, a pool server, or an lce-router fronting a fleet. The
// target's shape is discovered, not configured: the router stamps
// APIVersionCluster into every /v2 response it serves, and the client
// records the last version it saw (APIVersion / ClusterAware). A zero
// session sends no X-LCE-Session header, which is the default session;
// WithSession derives clients bound to other sessions.
type Client struct {
	base    string
	session string
	http    *http.Client
	meta    *clientMeta
}

// clientMeta is the slow-changing endpoint metadata shared across
// every WithSession derivation of one client: the service name
// (fetched lazily from /actions) and the last-seen API version
// header. Sharing it means one metadata fetch serves all sessions and
// a cluster detected on any derived client is visible on all of them.
type clientMeta struct {
	mu         sync.Mutex
	service    string
	apiVersion string
}

func (m *clientMeta) setAPIVersion(v string) {
	if v == "" {
		return
	}
	m.mu.Lock()
	m.apiVersion = v
	m.mu.Unlock()
}

// NewClient connects to a served backend at baseURL (no trailing
// slash required).
func NewClient(baseURL string) *Client {
	for len(baseURL) > 0 && baseURL[len(baseURL)-1] == '/' {
		baseURL = baseURL[:len(baseURL)-1]
	}
	return &Client{base: baseURL, http: &http.Client{}, meta: &clientMeta{}}
}

// WithSession derives a client bound to the named tenant session:
// invokes, resets and batches carry the X-LCE-Session header, so this
// client's world is isolated from every other session (Reset
// included). The receiver is not modified; derived clients share the
// underlying HTTP connection pool.
func (c *Client) WithSession(id string) *Client {
	dup := *c
	dup.session = id
	return &dup
}

// Session returns the session this client is bound to ("" = the
// default session).
func (c *Client) Session() string { return c.session }

// APIVersion returns the X-LCE-Api-Version the endpoint most recently
// stamped on a /v2 response, or "" before any exchange has happened. A single node reports APIVersion ("2.1"); a router
// reports APIVersionCluster ("2.1+cluster").
func (c *Client) APIVersion() string {
	c.meta.mu.Lock()
	defer c.meta.mu.Unlock()
	return c.meta.apiVersion
}

// ClusterAware reports whether the endpoint has identified itself as
// a cluster router (the "+cluster" API-version suffix): GET
// /v2/cluster exists there, and sessions are spread over a fleet.
func (c *Client) ClusterAware() bool {
	return strings.HasSuffix(c.APIVersion(), "+cluster")
}

// Service implements cloudapi.Backend (fetched lazily, cached across
// all WithSession derivations).
func (c *Client) Service() string {
	c.meta.mu.Lock()
	svc := c.meta.service
	c.meta.mu.Unlock()
	if svc == "" {
		svc, _ = c.fetchMeta()
	}
	return svc
}

// Actions implements cloudapi.Backend.
func (c *Client) Actions() []string {
	_, actions := c.fetchMeta()
	return actions
}

func (c *Client) fetchMeta() (string, []string) {
	resp, err := c.http.Get(c.base + "/actions")
	if err != nil {
		return "", nil
	}
	defer resp.Body.Close()
	var meta struct {
		Service string   `json:"service"`
		Actions []string `json:"actions"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&meta); err != nil {
		return "", nil
	}
	c.meta.mu.Lock()
	c.meta.service = meta.Service
	c.meta.mu.Unlock()
	return meta.Service, meta.Actions
}

// v2base resolves the session-scoped route prefix, fetching the
// service name on first use.
func (c *Client) v2base() (string, error) {
	svc := c.Service()
	if svc == "" {
		return "", fmt.Errorf("httpapi: cannot resolve service name from %s/actions", c.base)
	}
	return c.base + "/v2/" + url.PathEscape(svc), nil
}

// post issues one POST carrying the client's session and records the
// API version the answer is stamped with. When sp is a live span its
// trace context rides the X-LCE-Trace header, so the server's
// http.<route> span parents under the caller's trace; a nil span
// leaves the wire untouched.
func (c *Client) post(u string, body []byte, sp *obsv.Span) (*http.Response, error) {
	req, err := http.NewRequest(http.MethodPost, u, bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("httpapi: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	if c.session != "" {
		req.Header.Set(SessionHeader, c.session)
	}
	obsv.Inject(req.Header, sp)
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, fmt.Errorf("httpapi: %w", err)
	}
	c.meta.setAPIVersion(resp.Header.Get(APIVersionHeader))
	return resp, nil
}

// Reset implements cloudapi.Backend. It resets only the client's own
// session.
func (c *Client) Reset() {
	v2, err := c.v2base()
	if err != nil {
		return
	}
	if resp, err := c.post(v2+"/reset", nil, nil); err == nil {
		resp.Body.Close()
	}
}

// Invoke implements cloudapi.Backend.
func (c *Client) Invoke(req cloudapi.Request) (cloudapi.Result, error) {
	v2, err := c.v2base()
	if err != nil {
		return nil, err
	}
	payload, err := json.Marshal(wireRequest{Params: map[string]cloudapi.Value(req.Params)})
	if err != nil {
		return nil, fmt.Errorf("httpapi: marshal: %w", err)
	}
	resp, err := c.post(v2+"?Action="+url.QueryEscape(req.Action), payload, obsv.SpanFrom(req.Ctx))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return decodeReply(resp)
}

// BatchItem is one executed request's outcome: a result, or the
// decoded API error.
type BatchItem struct {
	Result cloudapi.Result
	Err    error
}

// BatchResult is the decoded /batch reply.
type BatchResult struct {
	// Items holds one entry per executed request, in request order.
	// In stop mode a failure truncates the list.
	Items     []BatchItem
	RequestID string
	Succeeded int
	Failed    int
	// StoppedAt is the index of the failing request when a stop-mode
	// batch halted early, and -1 otherwise.
	StoppedAt int
}

// Batch executes an ordered request array in one round trip. Mode ""
// defaults to BatchModeStop. The returned error covers transport and
// batch-shape failures only; per-request failures land in the items.
func (c *Client) Batch(reqs []cloudapi.Request, mode string) (*BatchResult, error) {
	if mode == "" {
		mode = BatchModeStop
	}
	v2, err := c.v2base()
	if err != nil {
		return nil, err
	}
	breq := wireBatchRequest{Mode: mode, Requests: make([]wireRequest, len(reqs))}
	for i, r := range reqs {
		breq.Requests[i] = wireRequest{Action: r.Action, Params: map[string]cloudapi.Value(r.Params)}
	}
	payload, err := json.Marshal(breq)
	if err != nil {
		return nil, fmt.Errorf("httpapi: marshal: %w", err)
	}
	// A batch is one wire exchange; the first request's ctx (they share
	// a caller) donates the trace context for the whole round trip.
	var sp *obsv.Span
	if len(reqs) > 0 {
		sp = obsv.SpanFrom(reqs[0].Ctx)
	}
	resp, err := c.post(v2+"/batch", payload, sp)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := ReadBounded(resp.Body, MaxBody)
	if err != nil {
		return nil, fmt.Errorf("httpapi: read: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		var we wireError
		if err := json.Unmarshal(body, &we); err == nil && we.IsError {
			return nil, newWireError(&we, resp.StatusCode)
		}
		return nil, fmt.Errorf("httpapi: batch failed with status %d", resp.StatusCode)
	}
	var bresp wireBatchResponse
	if err := json.Unmarshal(body, &bresp); err != nil {
		return nil, fmt.Errorf("httpapi: decode: %w", err)
	}
	out := &BatchResult{RequestID: bresp.RequestID, Succeeded: bresp.Succeeded, Failed: bresp.Failed, StoppedAt: -1}
	if bresp.StoppedAt != nil {
		out.StoppedAt = *bresp.StoppedAt
	}
	for _, item := range bresp.Items {
		if item.Error != nil {
			out.Items = append(out.Items, BatchItem{Err: newWireError(item.Error, 0)})
		} else {
			out.Items = append(out.Items, BatchItem{Result: cloudapi.Result(item.Result)})
		}
	}
	return out, nil
}

// ReadBounded reads r to EOF like io.ReadAll but refuses a body longer
// than limit bytes with an error — a peer's answer is outside input,
// and a silently truncated one would fail later as a baffling decode
// error, or not at all.
func ReadBounded(r io.Reader, limit int64) ([]byte, error) {
	data, err := io.ReadAll(io.LimitReader(r, limit+1))
	if err != nil {
		return nil, err
	}
	if int64(len(data)) > limit {
		return nil, fmt.Errorf("body exceeds the %d-byte limit", limit)
	}
	return data, nil
}

// WireError is an API error decoded from the wire, carrying its
// transport metadata: the HTTP status it arrived under and the
// server-assigned RequestId — the handle that joins a client-visible
// failure to the server's traces and logs. It unwraps to the
// *cloudapi.APIError, so cloudapi.AsAPIError and the retry
// classifier see straight through it.
type WireError struct {
	APIError  *cloudapi.APIError
	Status    int
	RequestID string
}

// Error surfaces the request ID on backend malfunctions — the
// errors an operator must chase server-side — and stays terse (the
// bare API error) on ordinary semantic failures.
func (e *WireError) Error() string {
	if e.RequestID != "" && e.APIError.Code == cloudapi.CodeInternalFailure {
		return e.APIError.Error() + " (request-id " + e.RequestID + ")"
	}
	return e.APIError.Error()
}

// Unwrap exposes the API error to errors.As chains.
func (e *WireError) Unwrap() error { return e.APIError }

func newWireError(we *wireError, status int) *WireError {
	return &WireError{
		APIError:  &cloudapi.APIError{Code: we.Code, Message: we.Message},
		Status:    status,
		RequestID: we.RequestID,
	}
}

// RequestIDFrom extracts the wire RequestId from an error returned by
// Client (directly or through retry wrappers), or "" when the error
// carries none.
func RequestIDFrom(err error) string {
	var we *WireError
	if errors.As(err, &we) {
		return we.RequestID
	}
	return ""
}

// wireReply is the client-side decode target: success and the
// unified error envelope share one stream shape.
type wireReply struct {
	IsError   bool                      `json:"__error"`
	Code      string                    `json:"Code"`
	Message   string                    `json:"Message"`
	RequestID string                    `json:"RequestId"`
	Result    map[string]cloudapi.Value `json:"result"`
}

func decodeReply(resp *http.Response) (cloudapi.Result, error) {
	var wire wireReply
	if err := json.NewDecoder(resp.Body).Decode(&wire); err != nil {
		return nil, fmt.Errorf("httpapi: decode: %w", err)
	}
	if wire.IsError {
		return nil, newWireError(&wireError{Code: wire.Code, Message: wire.Message, RequestID: wire.RequestID}, resp.StatusCode)
	}
	return cloudapi.Result(wire.Result), nil
}
