package cluster

import (
	"context"
	"encoding/json"
	"hash/fnv"
	"io"
	"net/http"
	"sort"
	"time"

	"lce/internal/obsv"
	"lce/internal/opsplane"
)

// routerNode is the "node" attribute stamped on router-minted spans,
// so a merged fleet trace distinguishes the front tier from members.
const routerNode = "router"

// maxTracePull bounds one node's /debug/traces response during a
// fleet merge (the same ceiling the migration import uses).
const maxTracePull = 64 << 20

// startIngress begins the router's request span: a remote child when
// the client propagated X-LCE-Trace (a traced httpapi.Client, or another
// tier), a fresh root otherwise — mirroring the node's own rule, so
// client → router → node becomes one trace.
func (rt *Router) startIngress(r *http.Request, route string) (context.Context, *obsv.Span) {
	tracer := rt.obs.TracerOrNil()
	if tracer == nil {
		return r.Context(), nil
	}
	ctx := r.Context()
	var sp *obsv.Span
	if sc, ok := obsv.Extract(r.Header); ok {
		ctx, sp = tracer.StartRemote(ctx, obsv.SpanHTTPPfx+route, sc)
	} else {
		ctx, sp = tracer.StartRoot(ctx, obsv.SpanHTTPPfx+route)
	}
	sp.SetAttr("method", r.Method)
	sp.SetAttr("route", route)
	sp.SetAttr("node", routerNode)
	return ctx, sp
}

// keyedRootKey derives a stable StartRootKeyed key for background
// spans (probes, migrations) from a kind string and a sequence number.
// Background activity must not draw from the tracer's root counter:
// request trace IDs stay a function of request order alone, no matter
// how many probes a larger fleet runs in between.
func keyedRootKey(kind string, seq uint64) int64 {
	h := fnv.New64a()
	_, _ = io.WriteString(h, kind)
	return int64(h.Sum64() ^ seq)
}

// recordForward feeds one forwarded exchange into the fleet SLO
// engines: the per-node engine (worst-offender attribution) and the
// merged fleet engine (/healthz verdict), plus the per-node per-phase
// totals parsed from the node's Server-Timing response header.
func (rt *Router) recordForward(node string, isErr bool, dur time.Duration, serverTiming string) {
	clock := rt.obs.TracerOrNil().Clock()
	rt.obsMu.Lock()
	h := rt.health[node]
	if h == nil {
		h = opsplane.NewHealth(opsplane.DefaultObjectives(), clock, nil)
		rt.health[node] = h
	}
	fleet := rt.health[fleetKey]
	if fleet == nil {
		var reg *obsv.Registry
		if rt.obs != nil {
			reg = rt.obs.Registry
		}
		fleet = opsplane.NewHealth(opsplane.DefaultObjectives(), clock, reg)
		rt.health[fleetKey] = fleet
	}
	if serverTiming != "" {
		phases := rt.phaseNs[node]
		if phases == nil {
			phases = map[string]int64{}
			rt.phaseNs[node] = phases
		}
		obsv.EachServerTiming(serverTiming, func(name string, d time.Duration) {
			phases[name] += d.Nanoseconds()
		})
	}
	rt.obsMu.Unlock()
	h.Record(isErr, dur)
	fleet.Record(isErr, dur)
}

// fleetKey indexes the merged all-nodes engine in rt.health; node
// names never collide with it (they cannot be empty).
const fleetKey = ""

// sloForwardError classifies a forwarded response for the fleet SLO
// engines by status alone: server faults and timeouts burn budget,
// client errors do not. The router streams bodies through verbatim, so
// unlike the node tier it does not sniff transient API codes out of
// 400 envelopes — those land on the node's own engine.
func sloForwardError(status int) bool {
	return status >= 500 || status == http.StatusRequestTimeout
}

// worstOffender evaluates every per-node engine and returns the node
// with the highest-burn check, that check, and the node's hottest
// phase by accumulated Server-Timing self-time. ok is false before any
// forward has been recorded.
func (rt *Router) worstOffender() (node string, check opsplane.CheckResult, phase string, ok bool) {
	rt.obsMu.Lock()
	engines := make(map[string]*opsplane.Health, len(rt.health))
	for name, h := range rt.health {
		if name != fleetKey {
			engines[name] = h
		}
	}
	rt.obsMu.Unlock()

	names := make([]string, 0, len(engines))
	for name := range engines {
		names = append(names, name)
	}
	sort.Strings(names) // deterministic tie-break: first name wins
	for _, name := range names {
		if cr, found := opsplane.Worst(engines[name].Evaluate()); found {
			if !ok || cr.Burn > check.Burn {
				node, check, ok = name, cr, true
			}
		}
	}
	if ok {
		rt.obsMu.Lock()
		var hottest int64
		for name, ns := range rt.phaseNs[node] {
			if ns > hottest {
				hottest, phase = ns, name
			}
		}
		rt.obsMu.Unlock()
	}
	return node, check, phase, ok
}

// fleetSLO assembles the /healthz SLO section: the merged fleet
// engine's multi-window checks and verdict, each node's checks, and
// the worst-offending node and phase.
func (rt *Router) fleetSLO() map[string]any {
	rt.obsMu.Lock()
	fleet := rt.health[fleetKey]
	perNode := make(map[string]*opsplane.Health, len(rt.health))
	for name, h := range rt.health {
		if name != fleetKey {
			perNode[name] = h
		}
	}
	rt.obsMu.Unlock()

	out := map[string]any{}
	if fleet == nil {
		out["verdict"] = "no-data"
		return out
	}
	checks := fleet.Evaluate()
	out["checks"] = checks
	if opsplane.Healthy(checks) {
		out["verdict"] = "ok"
	} else {
		out["verdict"] = "breach"
	}
	nodes := map[string][]opsplane.CheckResult{}
	for name, h := range perNode {
		nodes[name] = h.Evaluate()
	}
	out["nodes"] = nodes
	if node, check, phase, ok := rt.worstOffender(); ok {
		worst := map[string]any{
			"node":   node,
			"slo":    check.SLO,
			"window": check.Window,
			"burn":   check.Burn,
		}
		if phase != "" {
			worst["phase"] = phase
		}
		out["worst"] = worst
	}
	return out
}

// traces serves the fleet-merged trace store: the router's own spans
// plus every live node's, node-tagged and deterministically ordered
// (GroupTraces: by earliest span start, ties by trace ID). Default is
// the grouped-JSON shape the node endpoint serves; ?format=jsonl emits
// the flat span export lce-tracecheck -stitch consumes.
func (rt *Router) traces(w http.ResponseWriter, r *http.Request) {
	reqID := rt.requestID(r)
	spans := rt.obs.TracerOrNil().Snapshot()
	for _, st := range rt.liveNodes() {
		resp, err := rt.client.Get(st.url + "/debug/traces?format=jsonl")
		if err != nil {
			continue // dead mid-pull: serve what the fleet still has
		}
		if resp.StatusCode == http.StatusOK {
			nodeSpans, err := obsv.ReadJSONL(io.LimitReader(resp.Body, maxTracePull))
			if err == nil {
				for i := range nodeSpans {
					if nodeSpans[i].Attrs["node"] == "" {
						if nodeSpans[i].Attrs == nil {
							nodeSpans[i].Attrs = map[string]string{}
						}
						nodeSpans[i].Attrs["node"] = st.name
					}
				}
				spans = append(spans, nodeSpans...)
			}
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	groups := obsv.GroupTraces(spans)
	if r.URL.Query().Get("format") == "jsonl" {
		w.Header().Set("Content-Type", "application/x-ndjson")
		enc := json.NewEncoder(w)
		for _, g := range groups {
			for _, sp := range g.Spans {
				_ = enc.Encode(sp)
			}
		}
		return
	}
	rt.writeJSON(w, reqID, http.StatusOK, groups)
}
