package httpapi

import (
	"bytes"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"lce/internal/cloudapi"
	"lce/internal/obsv"
	"lce/internal/opsplane"
)

// WithOps mounts the live operations plane: latency exemplars carrying
// span trace IDs, SLO recording for /healthz and /readyz,
// flight-recorder capture of the data-plane routes, and the streaming
// endpoints
//
//	GET /debug/events          — SSE event stream (?session=&service=&kind=)
//	GET /debug/flightrecorder  — JSON dump of the recent-request window
//	GET /readyz                — fast-window SLO gate
//
// A nil plane is a no-op: the server runs the exact pre-ops code path.
func WithOps(p *opsplane.Plane) Option { return func(c *config) { c.ops = p } }

// flightRoutes are the data-plane routes the flight recorder captures:
// the deterministic request/response conversation lce-replay can
// re-drive byte-for-byte. Metadata and introspection routes (healthz,
// sessions, metrics) are excluded — their bodies embed counters and
// clocks that legitimately differ across runs.
var flightRoutes = map[string]bool{
	"v2.invoke": true,
	"v2.reset":  true,
	"v2.batch":  true,
}

// codeOK is the "code" label value for non-error responses.
const codeOK = "OK"

// sloError classifies one response for the SLO engine's error rate:
// server faults (5xx), timeouts (408), and transient API faults
// surfaced as 400 (throttling — the AWS convention puts them there)
// count; semantic client errors do not, so a misbehaving client cannot
// burn the server's error budget.
func sloError(status int, code string) bool {
	switch {
	case status >= 500, status == http.StatusRequestTimeout:
		return true
	case status == http.StatusBadRequest:
		return cloudapi.IsTransientCode(code)
	default:
		return false
	}
}

// responseCode is the "code" label of a finished exchange: codeOK
// below 400, the unified envelope's Code when the handler wrote one
// (WriteError and writeInvokeError report it to the status writer as
// they encode it), and the bare HTTP status otherwise.
func responseCode(status int, envelopeCode string) string {
	if status < 400 {
		return codeOK
	}
	if envelopeCode != "" {
		return envelopeCode
	}
	return "HTTP" + strconv.Itoa(status)
}

// bodyAction recovers the action field of a captured request body the
// handler never decoded itself (batch and reset routes, requests
// rejected before decoding); anything but a JSON object with an action
// field reads as "".
func bodyAction(body []byte) string {
	req, err := decodeWireRequest(body)
	if err != nil {
		return ""
	}
	return req.Action
}

// queryValue returns what r.URL.Query().Get(key) would — the first
// value of key, pairs with a bad escape or a semicolon dropped —
// without building the url.Values map; it allocates only when the
// matching pair is escaped.
func queryValue(rawQuery, key string) string {
	for rawQuery != "" {
		var pair string
		pair, rawQuery, _ = strings.Cut(rawQuery, "&")
		if pair == "" || strings.Contains(pair, ";") {
			continue
		}
		k, v, _ := strings.Cut(pair, "=")
		if strings.ContainsAny(k, "%+") {
			var err error
			if k, err = url.QueryUnescape(k); err != nil {
				continue
			}
		}
		if k != key {
			continue
		}
		if strings.ContainsAny(v, "%+") {
			var err error
			if v, err = url.QueryUnescape(v); err != nil {
				continue
			}
		}
		return v
	}
	return ""
}

// exchange is the per-request state of an instrumented route, pooled
// so that a request costs none of it: the context handed to the
// handler (the embedded Scope: span, registry and phase timer over the
// inbound request's context), the phase timer itself, the status
// writer with its response mirror, and the captured request body. The
// handler reaches it through exchangeOf to share what either side
// already computed. Everything that outlives the request (span record,
// flight record, metric observations) copies out before release; the
// handler's context dies with the handler, which is what makes
// recycling the Scope safe.
type exchange struct {
	obsv.Scope
	phases obsv.PhaseTimer
	sw     statusWriter
	// reqBody holds the captured request body (flight routes only;
	// captured says whether it was taken), read through limit; body is
	// the reader over it that stands in for r.Body.
	reqBody  bytes.Buffer
	limit    io.LimitedReader
	body     bodyReader
	captured bool
	// queryAction is the ?Action= parameter, parsed once for the handler
	// and the labels alike. decodedAction is the body's action field
	// once readRequest has decoded it (decoded reports that it has).
	queryAction   string
	decodedAction string
	decoded       bool
}

// bodyReader is a bytes.Reader that closes, so it can be a request body.
type bodyReader struct{ bytes.Reader }

func (*bodyReader) Close() error { return nil }

var exchangePool = sync.Pool{New: func() any { return new(exchange) }}

// exchangeOf returns the request's exchange, nil on an un-instrumented
// route.
func exchangeOf(r *http.Request) *exchange {
	x, _ := r.Context().(*exchange)
	return x
}

// queryAction returns the request's ?Action= parameter.
func queryAction(r *http.Request) string {
	if x := exchangeOf(r); x != nil {
		return x.queryAction
	}
	return queryValue(r.URL.RawQuery, "Action")
}

// capture reads up to MaxBody bytes of body into the exchange's
// buffer — the request wire bytes for the flight record — and returns
// an equivalent body for the handler. A read error ends the capture
// where it happened, as a truncated body would.
func (x *exchange) capture(body io.Reader) io.ReadCloser {
	x.limit = io.LimitedReader{R: body, N: MaxBody}
	_, _ = x.reqBody.ReadFrom(&x.limit)
	x.captured = true
	x.body.Reset(x.reqBody.Bytes())
	return &x.body
}

// release returns the exchange to the pool, dropping every reference
// it holds and any buffer a pathological request grew past the pool's
// bound.
func (x *exchange) release() {
	reqBody, tee := x.reqBody, x.sw.tee
	*x = exchange{}
	if reqBody.Cap() <= envelopePoolMaxCap {
		reqBody.Reset()
		x.reqBody = reqBody
	}
	if tee.Cap() <= envelopePoolMaxCap {
		tee.Reset()
		x.sw.tee = tee
	}
	exchangePool.Put(x)
}

// instrument wraps one route's handler with the request-scoped
// observability: root span, the request counter, latency and phase
// histograms, and — when the operations plane is mounted — latency
// exemplars, SLO recording, and flight capture. With everything
// disabled it returns fn untouched, so the plain server runs the exact
// same code path as before.
//
// The wrapper does each thing once per request — one pooled exchange,
// one query parse, one snapshot of the phase timer feeding span
// attributes, histograms and the flight record alike — and leaves
// every reader-side form (label rendering, phase maps, bus events) to
// whoever reads it; DESIGN §12 has the cost model.
func (s *server) instrument(route string, fn http.HandlerFunc) http.HandlerFunc {
	if !s.obs.Enabled() && s.ops == nil {
		return fn
	}
	obs, ops := s.obs, s.ops
	var reg *obsv.Registry
	if obs != nil {
		reg = obs.Registry
	}
	service := s.backend.Service()
	capture := ops != nil && flightRoutes[route]
	// /v2 responses advertise the phase breakdown as a Server-Timing
	// header, injected when the handler commits its status — by which
	// point every pre-write phase (decode through encode) has closed.
	serverTiming := strings.HasPrefix(route, "v2.")
	spanName := obsv.SpanHTTPPfx + route
	return func(w http.ResponseWriter, r *http.Request) {
		tracer := obs.TracerOrNil()
		clock := tracer.Clock()
		x := exchangePool.Get().(*exchange)
		// A propagated X-LCE-Trace header (router → node, or a traced
		// client → router) continues the upstream trace; without one
		// this request roots a fresh trace.
		sp := tracer.StartRequest(spanName, r.Header)
		if sp != nil {
			sp.SetAttr("method", r.Method)
			sp.SetAttr("route", route)
			if s.node != "" {
				sp.SetAttr("node", s.node)
			}
		}
		// The phase timer rides the request context through every layer.
		pt := &x.phases
		pt.Reset(clock)
		x.Scope = obsv.Scope{Context: r.Context(), Span: sp, Registry: reg, Phases: pt}
		x.queryAction = queryValue(r.URL.RawQuery, "Action")
		hr := r.WithContext(x)
		var start time.Time
		if capture {
			start = clock.Now()
			hr.Body = x.capture(r.Body)
		}
		sw := &x.sw
		sw.ResponseWriter, sw.mirror = w, capture
		if serverTiming {
			sw.phases = pt
		}
		// The catch-all region makes the named phases tile the handler
		// window exactly: whatever no layer claimed is "other", and the
		// sum of phase self-times IS the end-to-end handler latency. The
		// bench's coverage gate leans on that.
		outer := pt.Start(obsv.PhaseOther)
		fn(sw, hr)
		outer.End()

		status := sw.statusOrOK()
		times := pt.Times()
		dur := times.Total()
		traceID := ""
		if sp != nil {
			sp.SetAttrInt("status", int64(status))
			if status >= 400 {
				sp.SetError("status " + strconv.Itoa(status))
			}
			sp.SetPhaseAttrs(times)
			sp.End()
			if ops != nil {
				// The exemplar joins a latency bucket to one concrete
				// trace: scrape the histogram, follow the trace_id into
				// GET /debug/traces.
				traceID = sp.TraceID()
			}
		}

		code := responseCode(status, sw.errorCode)
		var action string
		switch {
		case x.queryAction != "":
			action = x.queryAction
		case x.decoded:
			action = x.decodedAction
		case x.captured:
			action = bodyAction(x.reqBody.Bytes())
		}
		if reg != nil {
			// One request series: a route's total, its errors (code
			// != "OK") and any per-action view are sums over it, so no
			// request is counted in two series. Session IDs are
			// client-minted, so they label no series (the registry
			// would grow with every new one); /debug/events?session=,
			// the flight recorder and the spans carry them.
			reg.Counter(obsv.MetricHTTPRequests, "route", route,
				"service", service, "action", action, "code", code).Inc()
			reg.Histogram(obsv.MetricHTTPSeconds, "route", route).ObserveDurationExemplar(dur, traceID)
			// Per-phase self-time histograms: lce_phase_seconds sums
			// to lce_http_request_seconds by construction, so a
			// dashboard can stack the phases under the request curve.
			for i, name := range obsv.PhaseNames {
				if times.Count[i] > 0 {
					reg.Histogram(obsv.MetricPhaseSeconds, "phase", name, "service", service).
						ObserveDurationExemplar(times.Self[i], traceID)
				}
			}
		}
		if ops != nil {
			ops.Health.Record(sloError(status, code), dur)
			if capture {
				ops.Flight.Add(opsplane.FlightRecord{
					Time:         start,
					Method:       r.Method,
					Path:         r.URL.RequestURI(),
					Session:      sessionOf(r),
					Action:       action,
					TraceID:      traceID,
					RequestID:    headerValue(sw.Header(), requestIDKey),
					Status:       status,
					LatencyNs:    dur.Nanoseconds(),
					RequestBody:  x.reqBody.String(),
					ResponseBody: sw.tee.String(),
					PhaseTimes:   times,
				})
			}
		}
		// Every consumer above copied what it needed and the contexts
		// holding x died with the handler, so it can go back to the pool.
		// (A handler panic skips this and simply drops the exchange.)
		x.release()
	}
}

// opsRoutes mounts the operations-plane endpoints on mux.
func (s *server) opsRoutes(mux *http.ServeMux) {
	if s.ops == nil {
		return
	}
	mux.HandleFunc("GET /debug/events", s.ops.ServeEvents)
	mux.HandleFunc("GET /debug/flightrecorder", s.ops.ServeFlightRecorder)
	mux.HandleFunc("GET /readyz", s.ops.ServeReadyz)
}
