// Cross-process trace propagation: the wire codec that lets one trace
// ID follow a request from a client through lce-router to an lce-server
// node and down into its phase-timer leaves.
//
// The header format is deliberately minimal — a W3C-traceparent-style
// triple, but over the repo's own deterministic 64-bit IDs:
//
//	X-LCE-Trace: <traceID>-<parentSpanID>-<flags>
//
// where traceID and parentSpanID are 16 lowercase hex digits and flags
// is 2 hex digits (bit 0 = sampled). Determinism is the load-bearing
// property: a remote child's span ID is a pure function of
// (traceID, parentSpanID), never of which node served the request or
// how many nodes exist, so same-seed fleet runs produce identical
// traces at any node count. The cost of that purity is a contract:
// each propagated parent context parents at most one downstream
// request — which holds by construction here, because the router mints
// a fresh forward span per proxied request.
package obsv

import (
	"context"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// TraceHeader carries trace context across process boundaries.
const TraceHeader = "X-LCE-Trace"

// traceHeaderKey is TraceHeader as http.Header stores it. Get and Set
// canonicalize their key on every call — an allocation for this
// spelling — so the request path indexes the map with this instead.
var traceHeaderKey = http.CanonicalHeaderKey(TraceHeader)

// FlagSampled marks the trace as recorded upstream. It is informational
// today — both tiers record unconditionally when tracing is on — but
// reserves the usual bit-0 meaning for future head sampling.
const FlagSampled uint8 = 0x01

// SpanContext is the propagated identity of a remote parent span: just
// enough to stitch a downstream span into the upstream trace.
type SpanContext struct {
	TraceID string
	SpanID  string
	Flags   uint8
}

// Valid reports whether both IDs are well-formed 16-digit hex strings.
func (sc SpanContext) Valid() bool {
	return isHexID(sc.TraceID) && isHexID(sc.SpanID)
}

// String renders the wire form, e.g.
// "7f3c2a9d1e5b8f04-a1b2c3d4e5f60718-01".
func (sc SpanContext) String() string {
	return fmt.Sprintf("%s-%s-%02x", sc.TraceID, sc.SpanID, sc.Flags)
}

func isHexID(s string) bool {
	if len(s) != 16 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
			return false
		}
	}
	return true
}

// ParseTraceContext parses the wire form back into a SpanContext.
// It is strict: exactly three dash-separated fields, lowercase hex,
// fixed widths — anything else is rejected so a malformed or hostile
// header degrades to "no context" rather than a poisoned trace.
func ParseTraceContext(s string) (SpanContext, bool) {
	parts := strings.Split(s, "-")
	if len(parts) != 3 {
		return SpanContext{}, false
	}
	sc := SpanContext{TraceID: parts[0], SpanID: parts[1]}
	if !sc.Valid() || len(parts[2]) != 2 {
		return SpanContext{}, false
	}
	flags, err := strconv.ParseUint(parts[2], 16, 8)
	if err != nil {
		return SpanContext{}, false
	}
	sc.Flags = uint8(flags)
	return sc, true
}

// SpanContext returns the span's propagable identity, or a zero (and
// invalid) context on a nil span.
func (s *Span) SpanContext() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return SpanContext{TraceID: s.data.TraceID, SpanID: s.data.SpanID, Flags: FlagSampled}
}

// Inject writes sp's context into h. A nil span injects nothing, which
// keeps the wire byte-identical when tracing is off — the standing
// invariant every tracing PR re-proves.
func Inject(h http.Header, sp *Span) {
	if sp == nil || h == nil {
		return
	}
	h[traceHeaderKey] = []string{sp.SpanContext().String()}
}

// Extract reads a propagated span context from h. The second return is
// false when the header is absent or malformed.
func Extract(h http.Header) (SpanContext, bool) {
	if h == nil {
		return SpanContext{}, false
	}
	vs := h[traceHeaderKey]
	if len(vs) == 0 || vs[0] == "" {
		return SpanContext{}, false
	}
	return ParseTraceContext(vs[0])
}

// StartRemote begins a span that continues a trace started in another
// process: it adopts sc's trace ID, records sc's span as its parent,
// and marks itself Remote so validators know the parent lives in a
// different export. The span ID is mix64(traceID ^ mix64(parentID)) —
// a pure function of the propagated context, so the ID is identical no
// matter which node runs this code. With an invalid sc (or on a nil
// tracer) it degrades to StartRoot semantics.
func (t *Tracer) StartRemote(ctx context.Context, name string, sc SpanContext) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	sp := t.newRemote(name, sc)
	return ContextWithSpan(ctx, sp), sp
}

// StartRequest begins the span of one inbound request without deriving
// a context (the caller carries it in a Scope): a propagated
// X-LCE-Trace header in h continues the upstream trace exactly as
// StartRemote would, and without one the request roots a fresh trace
// exactly as StartRoot would. Nil on a nil tracer.
func (t *Tracer) StartRequest(name string, h http.Header) *Span {
	if t == nil {
		return nil
	}
	if sc, ok := Extract(h); ok {
		return t.newRemote(name, sc)
	}
	return t.newRoot(name, t.nextRootID())
}

func (t *Tracer) newRemote(name string, sc SpanContext) *Span {
	if !sc.Valid() {
		return t.newRoot(name, t.nextRootID())
	}
	tid, err1 := strconv.ParseUint(sc.TraceID, 16, 64)
	pid, err2 := strconv.ParseUint(sc.SpanID, 16, 64)
	if err1 != nil || err2 != nil {
		return t.newRoot(name, t.nextRootID())
	}
	sid := mix64(tid ^ mix64(pid))
	return &Span{
		tracer: t,
		tid:    tid,
		sid:    sid,
		data: SpanData{
			TraceID:  sc.TraceID,
			SpanID:   idString(sid),
			ParentID: sc.SpanID,
			Name:     name,
			Start:    t.Clock().Now(),
			Remote:   true,
		},
	}
}

// StitchStats summarizes a cross-process validation pass.
type StitchStats struct {
	Spans      int // total spans across all inputs
	Traces     int // distinct trace IDs
	Remote     int // spans entering a process from a remote parent
	Stitched   int // remote spans whose parent was found in the merged set
	Migrations int // migrate.flip spans checked for export/import bracketing
	Nodes      int // distinct "node" attribute values observed
}

// ValidateStitch checks cross-process parent/child integrity over a
// merged span set (typically several JSONL exports: the router's plus
// one per node). On top of Validate's per-process invariants it
// enforces the three stitch invariants:
//
//  1. No orphan remote parents: every Remote span's parent must exist
//     in the merged set, in the same trace.
//  2. Child windows nest: a child span's [Start, End] must lie inside
//     its parent's, within skew (clocks are per-process; pass a small
//     allowance for multi-host captures, zero for single-host tests).
//  3. Migration spans bracket the flip: in any trace containing a
//     migrate.flip span, every migrate.export and migrate.import in
//     that trace must end before the flip starts (+skew) — state moves
//     first, placement flips last.
func ValidateStitch(spans []SpanData, skew time.Duration) (StitchStats, error) {
	var st StitchStats
	st.Spans = len(spans)
	if err := Validate(spans); err != nil {
		return st, err
	}

	type key struct{ trace, span string }
	byID := make(map[key]SpanData, len(spans))
	traces := map[string]bool{}
	nodes := map[string]bool{}
	for _, sp := range spans {
		byID[key{sp.TraceID, sp.SpanID}] = sp
		traces[sp.TraceID] = true
		if n := sp.Attrs["node"]; n != "" {
			nodes[n] = true
		}
	}
	st.Traces = len(traces)
	st.Nodes = len(nodes)

	for _, sp := range spans {
		if sp.Remote {
			st.Remote++
			if _, ok := byID[key{sp.TraceID, sp.ParentID}]; !ok {
				return st, fmt.Errorf("obsv: remote span %s (%s) has orphan remote parent %s in trace %s",
					sp.SpanID, sp.Name, sp.ParentID, sp.TraceID)
			}
			st.Stitched++
		}
		if sp.ParentID == "" {
			continue
		}
		parent, ok := byID[key{sp.TraceID, sp.ParentID}]
		if !ok {
			continue // non-remote missing parents already vetted by Validate
		}
		if sp.Start.Before(parent.Start.Add(-skew)) || sp.End.After(parent.End.Add(skew)) {
			return st, fmt.Errorf(
				"obsv: span %s (%s) window [%s, %s] escapes parent %s (%s) window [%s, %s] in trace %s",
				sp.SpanID, sp.Name, sp.Start.Format(time.RFC3339Nano), sp.End.Format(time.RFC3339Nano),
				parent.SpanID, parent.Name, parent.Start.Format(time.RFC3339Nano), parent.End.Format(time.RFC3339Nano),
				sp.TraceID)
		}
	}

	byTrace := map[string][]SpanData{}
	for _, sp := range spans {
		byTrace[sp.TraceID] = append(byTrace[sp.TraceID], sp)
	}
	for tid, sps := range byTrace {
		var flips, moves []SpanData
		for _, sp := range sps {
			switch sp.Name {
			case SpanMigrateFlip:
				flips = append(flips, sp)
			case SpanMigrateExport, SpanMigrateImport:
				moves = append(moves, sp)
			}
		}
		if len(flips) == 0 {
			if len(moves) > 0 {
				return st, fmt.Errorf("obsv: trace %s has %s without a %s span", tid, moves[0].Name, SpanMigrateFlip)
			}
			continue
		}
		st.Migrations += len(flips)
		// Each migration is its own trace (one flip per trace in
		// practice); with several flips, every move must precede the
		// earliest one — the strictest reading keeps the check simple.
		earliest := flips[0]
		for _, f := range flips[1:] {
			if f.Start.Before(earliest.Start) {
				earliest = f
			}
		}
		for _, m := range moves {
			if m.End.After(earliest.Start.Add(skew)) {
				return st, fmt.Errorf("obsv: trace %s: %s ends %s after %s starts %s — migration must complete before the placement flip",
					tid, m.Name, m.End.Format(time.RFC3339Nano), SpanMigrateFlip, earliest.Start.Format(time.RFC3339Nano))
			}
		}
	}
	return st, nil
}
