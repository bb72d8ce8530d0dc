// Package opsplane is the live operations plane: a bounded event bus
// fed by span ends and subsystem hooks, an SSE streaming endpoint, a
// lock-sharded flight recorder of recent HTTP exchanges, and a rolling
// multi-window SLO health engine. It turns the passive observability
// stack (internal/obsv: traces + metrics you pull after the fact) into
// an active one you can watch and gate on while the emulator runs.
//
// The package depends only on internal/obsv and the standard library —
// it knows nothing about cloudapi, tenants, or HTTP routing. Producers
// push events in; internal/httpapi mounts the handlers.
package opsplane

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"lce/internal/obsv"
)

// Config assembles a Plane.
type Config struct {
	// Service names the emulated service ("ec2", ...); stamped on
	// events and the flight dump.
	Service string
	// Obs supplies the tracer whose span ends feed the bus and the
	// registry that receives the plane's own series. Required.
	Obs *obsv.Obs
	// Clock drives the SLO windows (nil = system clock).
	Clock obsv.Clock
	// FlightCapacity is the recorder window (0 = DefaultFlightCapacity).
	FlightCapacity int
	// Objectives are the SLO targets (zero value disables both checks;
	// use DefaultObjectives for the standard ones).
	Objectives Objectives
	// Heartbeat is the SSE keepalive interval for /debug/events: an
	// idle stream writes a ": keepalive" comment this often so
	// proxies and idle-timeout middleboxes don't kill quiet streams.
	// 0 means DefaultHeartbeat; negative disables keepalives.
	Heartbeat time.Duration
}

// DefaultHeartbeat is the SSE keepalive interval when Config leaves it
// zero — comfortably inside the common 30–60s proxy idle timeouts.
const DefaultHeartbeat = 15 * time.Second

// Plane bundles the four operations-plane subsystems behind one
// pointer. A nil *Plane is fully disabled: every method is a no-op and
// the instrumented paths run exactly as if the plane never existed
// (pay-for-what-you-use).
type Plane struct {
	service   string
	clock     obsv.Clock
	heartbeat time.Duration // resolved: 0 = keepalives off
	Bus       *Bus
	Flight    *FlightRecorder
	Health    *Health

	mu          sync.Mutex
	lastHealthy bool
}

// New wires a Plane: it hooks the tracer's span-end stream into the
// bus, sizes the flight recorder, and starts the SLO engine. Call
// before any spans start (SetOnEnd contract).
func New(cfg Config) *Plane {
	var reg *obsv.Registry
	if cfg.Obs != nil {
		reg = cfg.Obs.Registry
	}
	clock := cfg.Clock
	if clock == nil {
		clock = obsv.System()
	}
	heartbeat := cfg.Heartbeat
	switch {
	case heartbeat == 0:
		heartbeat = DefaultHeartbeat
	case heartbeat < 0:
		heartbeat = 0
	}
	p := &Plane{
		service:     cfg.Service,
		clock:       clock,
		heartbeat:   heartbeat,
		Bus:         NewBus(reg),
		Flight:      NewFlightRecorder(cfg.FlightCapacity, reg),
		Health:      NewHealth(cfg.Objectives, cfg.Clock, reg),
		lastHealthy: true,
	}
	if cfg.Obs != nil && cfg.Obs.Tracer != nil {
		cfg.Obs.Tracer.SetOnEnd(p.spanEnded)
	}
	return p
}

// Enabled reports whether the plane is live.
func (p *Plane) Enabled() bool { return p != nil }

// Service returns the configured service name ("" on a nil plane).
func (p *Plane) Service() string {
	if p == nil {
		return ""
	}
	return p.service
}

// Publish forwards an event to the bus, stamping the service name and
// the current time when absent. Nil-safe.
func (p *Plane) Publish(e Event) {
	if p == nil {
		return
	}
	if e.Service == "" {
		e.Service = p.service
	}
	if e.Time.IsZero() {
		e.Time = p.clock.Now()
	}
	p.Bus.Publish(e)
}

// spanEnded is the tracer's OnEnd hook: it derives bus events from
// every finished span — one KindSpanEnd, plus one event per fault /
// retry span event, plus a KindDivergence for misaligned align.trace
// roots. Runs on the ending goroutine; everything here is non-blocking.
// The span.end event — the one every request pays — is published
// lazily, so with nobody listening a finished span costs a sequence
// number and a counter tick: no event, and not even the span's
// attribute map.
func (p *Plane) spanEnded(f obsv.FinishedSpan) {
	if f.HasEvents() || f.Name() == obsv.SpanAlignTrace {
		p.spanDerivedEvents(f.Data())
	}
	p.Bus.PublishLazy(KindSpanEnd, func() Event {
		d := f.Data()
		e := p.spanEvent(d)
		e.Attrs = map[string]string{
			"name":       d.Name,
			"durationNs": strconv.FormatInt(d.Duration().Nanoseconds(), 10),
		}
		// Phase attributes ride the span-end event verbatim, so an SSE
		// subscriber sees each request's latency attribution live
		// without scraping the trace export.
		for k, v := range d.Attrs {
			if strings.HasPrefix(k, obsv.SpanAttrPhasePfx) {
				e.Attrs[k] = v
			}
		}
		if d.Error != "" {
			e.Attrs["error"] = d.Error
		}
		return e
	})
}

// spanDerivedEvents publishes what a span carries besides its own end:
// the fault/retry events recorded on it and, for a misaligned
// align.trace root, the divergence.
func (p *Plane) spanDerivedEvents(d obsv.SpanData) {
	base := p.spanEvent(d)
	for _, ev := range d.Events {
		kind := ""
		switch ev.Name {
		case obsv.EventFault:
			kind = KindFaultInjected
		case obsv.EventRetry:
			kind = KindRetryBackoff
		case obsv.EventTransient:
			kind = KindRetryTransient
		case obsv.EventExhausted:
			kind = KindRetryExhausted
		default:
			continue
		}
		e := base
		e.Kind = kind
		e.Time = ev.Time
		e.Attrs = ev.Attrs
		if e.Action == "" {
			e.Action = ev.Attrs["action"]
		}
		p.Bus.Publish(e)
	}
	if d.Name == obsv.SpanAlignTrace && d.Root() && d.Attrs["aligned"] == "false" {
		e := base
		e.Kind = KindDivergence
		e.Action = d.Attrs["diff.action"]
		e.Attrs = map[string]string{}
		for _, k := range []string{"diff.action", "diff.kind", "diff.cause", "round", "index"} {
			if v := d.Attrs[k]; v != "" {
				e.Attrs[k] = v
			}
		}
		p.Bus.Publish(e)
	}
}

// spanEvent returns the dimensional identity every event derived from
// span d shares; the caller sets Kind and Attrs.
func (p *Plane) spanEvent(d obsv.SpanData) Event {
	service := d.Attrs["service"]
	if service == "" {
		service = p.service
	}
	action := d.Attrs["action"]
	if action == "" {
		if a, ok := strings.CutPrefix(d.Name, obsv.SpanCallPfx); ok {
			action = a
		}
	}
	return Event{
		Time:    d.End,
		Service: service,
		Session: d.Attrs["session"],
		Action:  action,
		TraceID: d.TraceID,
	}
}

// OnEvict returns the tenant-pool eviction hook: it publishes a
// KindEviction event per evicted session, carrying the spill outcome
// ("spilled" with the snapshot bytes, or "dropped") so an operator
// can tell retired-to-disk from gone. Nil on a nil plane, so the pool
// stores a nil func and pays nothing.
func (p *Plane) OnEvict() func(session string, shard int, reason, outcome string, bytes int64) {
	if p == nil {
		return nil
	}
	return func(session string, shard int, reason, outcome string, bytes int64) {
		attrs := map[string]string{
			"shard":   fmt.Sprintf("%d", shard),
			"reason":  reason,
			"outcome": outcome,
		}
		if outcome == "spilled" {
			attrs["bytes"] = fmt.Sprintf("%d", bytes)
		}
		p.Publish(Event{Kind: KindEviction, Session: session, Attrs: attrs})
	}
}

// OnDurable returns the durable store's event hook: it forwards each
// store event (session.spilled, session.rehydrated, recovery.*,
// journal.error) to the bus. Nil-safe the same way OnEvict is.
func (p *Plane) OnDurable() func(kind, session string, attrs map[string]string) {
	if p == nil {
		return nil
	}
	return func(kind, session string, attrs map[string]string) {
		p.Publish(Event{Kind: kind, Session: session, Attrs: attrs})
	}
}

// --- HTTP surface (mounted by internal/httpapi) ---

// ServeEvents streams the bus over SSE. Query parameters session,
// service, and kind filter the stream (kind supports a trailing '*').
// The stream ends when the client disconnects or falls a full buffer
// behind (slow-consumer policy); the final frame before a slow-consumer
// disconnect is an "overflow" comment so the client can tell loss from
// a clean close.
func (p *Plane) ServeEvents(w http.ResponseWriter, r *http.Request) {
	if p == nil {
		http.Error(w, "operations plane disabled", http.StatusNotFound)
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	q := r.URL.Query()
	sub := p.Bus.Subscribe(Filter{
		Session: q.Get("session"),
		Service: q.Get("service"),
		Kind:    q.Get("kind"),
	}, 0)
	defer sub.Close()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	fmt.Fprintf(w, ": stream open\n\n")
	flusher.Flush()

	// Keepalive comments let an idle stream survive proxy and LB idle
	// timeouts; SSE clients ignore comment lines, so the event protocol
	// is unchanged. The ticker runs on real time deliberately — the
	// middleboxes being outlived do too.
	var heartbeat <-chan time.Time
	if p.heartbeat > 0 {
		t := time.NewTicker(p.heartbeat)
		defer t.Stop()
		heartbeat = t.C
	}

	for {
		select {
		case <-r.Context().Done():
			return
		case <-heartbeat:
			fmt.Fprintf(w, ": keepalive\n\n")
			flusher.Flush()
		case e, open := <-sub.Events():
			if !open {
				if sub.SlowConsumer() {
					fmt.Fprintf(w, ": overflow, stream closed\n\n")
					flusher.Flush()
				}
				return
			}
			data, err := json.Marshal(e)
			if err != nil {
				continue
			}
			fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", e.Seq, e.Kind, data)
			flusher.Flush()
		}
	}
}

// ServeFlightRecorder dumps the retained request window as JSON.
func (p *Plane) ServeFlightRecorder(w http.ResponseWriter, r *http.Request) {
	if p == nil {
		http.Error(w, "operations plane disabled", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(p.Flight.Dump(p.service))
}

// healthPayload is the JSON body of /healthz and /readyz.
type healthPayload struct {
	Status string        `json:"status"`
	Checks []CheckResult `json:"checks,omitempty"`
}

// ServeHealthz is the liveness + SLO verdict: 200 "ok" while every SLO
// holds under the multi-window rule, 503 "breach" once every window
// with data of some SLO is burning. Each evaluation refreshes the
// lce_slo_burn_rate gauges; a transition into breach publishes a
// KindSLOBreach event.
func (p *Plane) ServeHealthz(w http.ResponseWriter, r *http.Request) {
	p.serveHealth(w, true)
}

// ServeReadyz is the fast traffic gate: 503 as soon as the *shortest*
// window of any SLO breaches (fast burn — shed traffic now), 200
// otherwise. /healthz is the slower, multi-window confirmation.
func (p *Plane) ServeReadyz(w http.ResponseWriter, r *http.Request) {
	p.serveHealth(w, false)
}

func (p *Plane) serveHealth(w http.ResponseWriter, multiWindow bool) {
	if p == nil {
		// Without a plane there is no SLO engine; report plain liveness
		// so probes still work against a bare server.
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(healthPayload{Status: "ok"})
		return
	}
	results := p.Health.Evaluate()
	healthy := true
	if multiWindow {
		healthy = Healthy(results)
	} else {
		shortest := map[string]bool{}
		for _, cr := range results {
			if shortest[cr.SLO] {
				continue // windows are ordered shortest-first per SLO
			}
			if cr.Verdict == "no-data" {
				continue
			}
			shortest[cr.SLO] = true
			if cr.Verdict == "breach" {
				healthy = false
			}
		}
	}
	status := "ok"
	code := http.StatusOK
	if !healthy {
		status = "breach"
		code = http.StatusServiceUnavailable
	}
	if multiWindow {
		p.mu.Lock()
		flipped := p.lastHealthy && !healthy
		p.lastHealthy = healthy
		p.mu.Unlock()
		if flipped {
			p.Publish(Event{
				Kind:  KindSLOBreach,
				Attrs: map[string]string{"checks": FormatChecks(results)},
			})
		}
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(healthPayload{Status: status, Checks: results})
}
