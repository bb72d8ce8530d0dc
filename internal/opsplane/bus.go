package opsplane

import (
	"strings"
	"sync"
	"time"

	"lce/internal/obsv"
)

// Event is one structured operational occurrence: a span ending, a
// fault being injected, a retry backing off, a divergence being
// observed, a tenant session being evicted, an SLO window starting to
// burn. Events are the unit of the live stream (GET /debug/events).
type Event struct {
	// Seq is the bus-assigned publish sequence (1-based, dense). SSE
	// clients receive it as the event id, so a reconnecting consumer
	// can detect a gap.
	Seq  uint64    `json:"seq"`
	Time time.Time `json:"time"`
	// Kind is the event taxonomy name (Kind* constants).
	Kind string `json:"kind"`
	// Service/Action/Session/TraceID are the dimensional identity of
	// the event — the same dimensions the labeled metric vecs carry,
	// so an operator pivots between metrics, events, and traces
	// without translation.
	Service string `json:"service,omitempty"`
	Action  string `json:"action,omitempty"`
	Session string `json:"session,omitempty"`
	TraceID string `json:"traceId,omitempty"`
	// Attrs carries kind-specific detail (error codes, durations,
	// divergence causes).
	Attrs map[string]string `json:"attrs,omitempty"`
}

// Event kinds — the operations-plane event taxonomy (DESIGN.md §9).
// The durable tier's kinds (session.spilled, session.rehydrated,
// recovery.*, journal.error, durable.stall) are declared once, as
// internal/durable's Event* constants, and reach the bus through
// Plane.OnDurable.
const (
	KindSpanEnd        = "span.end"
	KindFaultInjected  = "fault.injected"
	KindRetryBackoff   = "retry.backoff"
	KindRetryTransient = "retry.transient"
	KindRetryExhausted = "retry.exhausted"
	KindDivergence     = "align.divergence"
	KindEviction       = "tenant.evicted"
	KindSLOBreach      = "slo.breach"
)

// Filter selects a subset of the event stream. Empty fields match
// everything; Kind may end in '*' for a prefix match ("retry.*").
type Filter struct {
	Session string
	Service string
	Kind    string
}

// Match reports whether e passes the filter.
func (f Filter) Match(e Event) bool {
	if f.Session != "" && f.Session != e.Session {
		return false
	}
	if f.Service != "" && f.Service != e.Service {
		return false
	}
	if f.Kind != "" {
		if prefix, ok := strings.CutSuffix(f.Kind, "*"); ok {
			return strings.HasPrefix(e.Kind, prefix)
		}
		return f.Kind == e.Kind
	}
	return true
}

// DefaultSubscriberBuffer is the per-subscriber channel capacity when
// Subscribe is given a non-positive one.
const DefaultSubscriberBuffer = 256

// Bus is the bounded in-process event bus: publishers fan events to
// every matching subscriber without ever blocking. Boundedness is per
// subscriber — each subscription owns a fixed-capacity channel, and a
// subscriber that falls more than a full buffer behind is disconnected
// (its channel closed) rather than allowed to stall the publisher or
// grow memory. That is the slow-consumer contract SSE clients see as a
// clean end of stream.
type Bus struct {
	mu     sync.Mutex
	seq    uint64
	subs   map[*Subscription]struct{}
	closed bool

	reg     *obsv.Registry
	kindCtr map[string]*obsv.Counter
	dropped *obsv.Counter
}

// NewBus returns an empty bus. A non-nil registry receives
// lce_ops_events_total{kind} and lce_ops_events_dropped_total.
func NewBus(reg *obsv.Registry) *Bus {
	return &Bus{
		subs:    map[*Subscription]struct{}{},
		reg:     reg,
		kindCtr: map[string]*obsv.Counter{},
		dropped: reg.Counter(obsv.MetricOpsEventsDropped),
	}
}

// Subscription is one consumer's bounded view of the stream.
type Subscription struct {
	bus    *Bus
	ch     chan Event
	filter Filter
	closed bool
	// droppedBy records a bus-side slow-consumer disconnect (read via
	// SlowConsumer after the channel closes).
	droppedBy bool
}

// Events returns the subscription's channel. The bus closes it when
// the subscriber is disconnected for falling behind or the bus shuts
// down; Close closes it from the consumer side.
func (s *Subscription) Events() <-chan Event { return s.ch }

// SlowConsumer reports whether the bus disconnected this subscription
// for falling behind. Meaningful once Events() is closed.
func (s *Subscription) SlowConsumer() bool {
	s.bus.mu.Lock()
	defer s.bus.mu.Unlock()
	return s.droppedBy
}

// Close detaches the subscription. Safe to call more than once and
// concurrently with Publish.
func (s *Subscription) Close() {
	s.bus.mu.Lock()
	defer s.bus.mu.Unlock()
	s.bus.removeLocked(s, false)
}

// Subscribe attaches a consumer with the given filter and channel
// capacity (DefaultSubscriberBuffer when <= 0).
func (b *Bus) Subscribe(f Filter, buffer int) *Subscription {
	if buffer <= 0 {
		buffer = DefaultSubscriberBuffer
	}
	s := &Subscription{bus: b, ch: make(chan Event, buffer), filter: f}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		close(s.ch)
		s.closed = true
		return s
	}
	b.subs[s] = struct{}{}
	return s
}

// removeLocked detaches s; slow marks a bus-side disconnect. Caller
// holds b.mu.
func (b *Bus) removeLocked(s *Subscription, slow bool) {
	if s.closed {
		return
	}
	s.closed = true
	s.droppedBy = slow
	delete(b.subs, s)
	close(s.ch)
}

// Publish stamps e with the next sequence number and fans it to every
// matching subscriber. Never blocks: a subscriber whose buffer is full
// is disconnected (slow-consumer policy). Publishing on a closed bus
// is a no-op.
func (b *Bus) Publish(e Event) { b.PublishLazy(e.Kind, func() Event { return e }) }

// PublishLazy publishes one event of the given kind whose content is
// only worth computing for a reader: the sequence number and the
// per-kind counter advance exactly as Publish advances them, but build
// runs — and the event exists — only when at least one subscriber is
// attached. The attachment check and the fan-out happen under one
// lock, so a subscriber attached mid-run receives complete events from
// its first one. build runs under that lock: it must be cheap and must
// not call back into the bus.
func (b *Bus) PublishLazy(kind string, build func() Event) {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.seq++
	ctr := b.kindCtr[kind]
	if ctr == nil && b.reg != nil {
		ctr = b.reg.Counter(obsv.MetricOpsEvents, "kind", kind)
		b.kindCtr[kind] = ctr
	}
	if len(b.subs) > 0 {
		e := build()
		e.Kind, e.Seq = kind, b.seq
		var slow []*Subscription
		for s := range b.subs {
			if !s.filter.Match(e) {
				continue
			}
			select {
			case s.ch <- e:
			default:
				slow = append(slow, s)
			}
		}
		for _, s := range slow {
			b.removeLocked(s, true)
			b.dropped.Inc()
		}
	}
	b.mu.Unlock()
	ctr.Inc()
}

// Published returns the number of events published so far.
func (b *Bus) Published() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.seq
}

// Subscribers returns the number of attached subscriptions.
func (b *Bus) Subscribers() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.subs)
}

// Close shuts the bus down, closing every subscription's channel.
func (b *Bus) Close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.closed = true
	for s := range b.subs {
		b.removeLocked(s, false)
	}
}
