package obsv

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"
)

// Canonical span names — the span taxonomy (DESIGN.md §7). A trace is
//
//	align.trace                      one differential trace comparison
//	├─ replay.emulator               the subject's replay
//	│  └─ call.<Action> ...          one span per API call
//	└─ replay.oracle                 the oracle's replay
//	   └─ call.<Action> ...          events: fault.injected, retry.backoff
//
// The root's oracle attr says which side ran: "replayed" as above, or
// "memo" when the comparison diffed against oracle outcomes memoized in
// an earlier round of the run — then there is no replay.oracle subtree
// and no role=oracle op latency. HTTP servers root their traces at
// http.<route> instead.
const (
	SpanAlignTrace  = "align.trace"
	SpanReplayPfx   = "replay."
	SpanCallPfx     = "call."
	SpanHTTPPfx     = "http."
	EventFault      = "fault.injected"
	EventFaultForce = "fault.forced-clean"
	EventRetry      = "retry.backoff"
	EventTransient  = "retry.transient-fault"
	EventExhausted  = "retry.exhausted"

	// Router-tier spans (internal/cluster). A routed request's trace is
	//
	//	http.<route>          router ingress (remote child if the client
	//	├─ route.decide       sent X-LCE-Trace; a fresh root otherwise)
	//	└─ forward.<service>  the proxied exchange — the node's own
	//	                      http.<route> span parents under this one
	//	                      via the injected header
	//
	// Migrations and probes trace out-of-band of any request:
	//
	//	migrate               one session move (attrs: session, from, to)
	//	├─ migrate.export     drain + snapshot from the source node
	//	├─ migrate.import     restore into the destination node
	//	└─ migrate.flip       the placement-table update — always last
	SpanRouteDecide   = "route.decide"
	SpanForwardPfx    = "forward."
	SpanProbe         = "probe"
	SpanMigrate       = "migrate"
	SpanMigrateExport = "migrate.export"
	SpanMigrateImport = "migrate.import"
	SpanMigrateFlip   = "migrate.flip"
)

// Canonical metric names. Each count lives in one series, and every
// series of a family carries the same label names (LintExposition
// holds an exposition to that), so a sum over any label counts each
// event once.
const (
	MetricBackendOpSeconds = "lce_backend_op_seconds"

	// HTTP series (internal/httpapi): every handled request, once, in
	// {route,service,action,code} — a route's errors are its series
	// whose code is not "OK" — and request latency by {route}.
	MetricHTTPRequests = "lce_http_requests_total"
	MetricHTTPSeconds  = "lce_http_request_seconds"

	// Tenant-pool series (internal/tenant): resident-session
	// occupancy, registry hit/miss counters (hit rate = hits /
	// (hits+misses)), and evictions labelled by shard and reason
	// ("idle" | "capacity" | "release"); a reason's pool-wide total is
	// the sum over shards.
	MetricTenantSessions  = "lce_tenant_sessions"
	MetricTenantHits      = "lce_tenant_hits_total"
	MetricTenantMisses    = "lce_tenant_misses_total"
	MetricTenantEvictions = "lce_tenant_evictions_total"

	// Operations-plane series (internal/opsplane): per-divergence
	// attribution {service,cause} (its sum over causes is an alignment
	// run's divergent count), event-bus throughput/loss, flight
	// recorder occupancy, and the SLO engine's per-window burn rates
	// {slo,window} (a float gauge — burn is a ratio).
	MetricAlignDivergences = "lce_align_divergences_total"
	MetricOpsEvents        = "lce_ops_events_total"
	MetricOpsEventsDropped = "lce_ops_events_dropped_total"
	MetricFlightRecords    = "lce_flight_records_total"
	MetricSLOBurnRate      = "lce_slo_burn_rate"

	// Durable-tier series (internal/durable): sessions with on-disk
	// state (gauge), spill counts and bytes, rehydrations (spill
	// restores and lazy crash recoveries alike), and journal appends.
	MetricDurableSessions       = "lce_durable_sessions"
	MetricDurableSpills         = "lce_durable_spills_total"
	MetricDurableSpillBytes     = "lce_durable_spill_bytes_total"
	MetricDurableRehydrations   = "lce_durable_rehydrations_total"
	MetricDurableJournalRecords = "lce_durable_journal_records_total"
	MetricDurableStalls         = "lce_durable_stalls_total"

	// Latency-attribution series: per-phase self-time histograms
	// labelled {phase,service}, recorded by the PhaseTimer spine.
	MetricPhaseSeconds = "lce_phase_seconds"

	// Runtime telemetry series (RuntimeSampler): process health
	// sampled on the injectable clock.
	MetricRuntimeGoroutines  = "lce_runtime_goroutines"
	MetricRuntimeHeapBytes   = "lce_runtime_heap_alloc_bytes"
	MetricRuntimeHeapObjects = "lce_runtime_heap_objects"
	MetricRuntimeGCCycles    = "lce_runtime_gc_cycles_total"
	MetricRuntimeGCPauseNs   = "lce_runtime_gc_pause_ns_total"
)

// Obs bundles a tracer and a registry — the two halves of the
// observability stack — so call sites thread one pointer. A nil *Obs
// (and an Obs with nil halves) is fully disabled and free to pass
// around.
type Obs struct {
	Tracer   *Tracer
	Registry *Registry
}

// New returns an enabled Obs: a tracer seeded with seed holding up to
// spanCapacity spans, plus a fresh registry.
func New(seed int64, spanCapacity int) *Obs {
	return &Obs{Tracer: NewTracer(seed, spanCapacity), Registry: NewRegistry()}
}

// Enabled reports whether any half is live.
func (o *Obs) Enabled() bool {
	return o != nil && (o.Tracer != nil || o.Registry != nil)
}

// TracerOrNil returns the tracer (nil on a nil Obs).
func (o *Obs) TracerOrNil() *Tracer {
	if o == nil {
		return nil
	}
	return o.Tracer
}

// Context attaches the registry to ctx so deep call layers can record
// metrics; the span half travels via StartRoot*/StartSpan.
func (o *Obs) Context(ctx context.Context) context.Context {
	if o == nil || o.Registry == nil {
		return ctx
	}
	return WithRegistry(ctx, o.Registry)
}

// Summary renders the per-run observability digest: span counts per
// phase (span name), and p50/p99 of every backend op histogram. Empty
// string when nothing was recorded.
func (o *Obs) Summary() string {
	if !o.Enabled() {
		return ""
	}
	var b strings.Builder
	if t := o.Tracer; t != nil {
		spans := t.Snapshot()
		if len(spans) > 0 {
			byName := map[string]int{}
			traces := map[string]bool{}
			for _, sp := range spans {
				byName[phaseOf(sp.Name)]++
				traces[sp.TraceID] = true
			}
			names := make([]string, 0, len(byName))
			for n := range byName {
				names = append(names, n)
			}
			sort.Strings(names)
			fmt.Fprintf(&b, "observability: %d spans across %d traces (%d recorded in total)\n",
				len(spans), len(traces), t.Recorded())
			for _, n := range names {
				fmt.Fprintf(&b, "  spans %-18s %d\n", n, byName[n])
			}
		}
	}
	if r := o.Registry; r != nil {
		type opRow struct {
			labels   string
			p50, p99 time.Duration
			count    int64
		}
		var rows []opRow
		for _, in := range r.snapshotItems() {
			if in.kind != "histogram" || in.name != MetricBackendOpSeconds || in.hist.count.Load() == 0 {
				continue
			}
			h := (*Histogram)(in)
			rows = append(rows, opRow{
				labels: in.labels,
				p50:    h.QuantileDuration(0.50),
				p99:    h.QuantileDuration(0.99),
				count:  h.Count(),
			})
		}
		if len(rows) > 0 {
			fmt.Fprintf(&b, "backend ops (p50/p99 estimated to bucket width):\n")
			for _, row := range rows {
				fmt.Fprintf(&b, "  %-52s n=%-6d p50=%-10s p99=%s\n",
					row.labels, row.count, row.p50.Round(time.Microsecond), row.p99.Round(time.Microsecond))
			}
		}
	}
	return strings.TrimRight(b.String(), "\n")
}

// phaseOf buckets a span name into its taxonomy phase: call.* spans
// collapse into "call.*" so the summary stays one line per phase
// rather than one per action.
func phaseOf(name string) string {
	if strings.HasPrefix(name, SpanCallPfx) {
		return SpanCallPfx + "*"
	}
	return name
}
