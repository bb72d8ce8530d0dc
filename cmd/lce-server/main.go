// Command lce-server serves a cloud backend over HTTP in the
// LocalStack style, so DevOps programs can be pointed at it instead of
// the cloud:
//
//	lce-server -service ec2 -backend learned -addr :4566
//
// Backends: "learned" (emulator synthesized from documentation),
// "oracle" (the hand-written ground-truth model), "d2c" (the
// direct-to-code baseline), "manual" (the Moto-style partial
// baseline).
//
// The server is multi-tenant by default: the X-LCE-Session header (or
// the /v2/<service> surface generally) selects an isolated per-session
// backend stamped from the same configuration, LRU-bounded by
// -sessions across -shards shards and evicted after -session-ttl of
// idleness. Clients that send no header share the pinned "default"
// session and see the pre-session wire format unchanged. -sessions 0
// turns the registry off.
//
// With -data-dir the server is durable: every session's calls are
// write-ahead journaled (CRC-framed, -fsync always|batch|off),
// evicted sessions spill a checkpoint record into that journal instead
// of being dropped, and a restarted server recovers every session from
// its newest checkpoint plus the records after it — lazily, on each
// session's first touch:
//
//	lce-server -service ec2 -backend learned -data-dir /var/lib/lce
//
// Only the learned backend is snapshottable (its whole world lives in
// the interpreter's value model); oracle/manual/d2c sessions keep
// native Go state and are dropped on eviction as before.
//
// With -chaos the server fronts the backend with the deterministic
// fault injector (internal/fault): a -fault-rate fraction of calls is
// rejected with throttling codes (HTTP 400), transient server faults
// (500/503) or timeouts (408) before reaching the backend — a flaky
// cloud to harden clients against:
//
//	lce-server -service ec2 -backend oracle -chaos -fault-rate 0.1 -chaos-seed 7
//
// The server is observable by default: GET /metrics serves the typed
// metrics registry in Prometheus text (request counters by route,
// service, action and response code, latency histograms, per-op
// backend latencies), and GET /debug/traces serves the recorded
// request spans grouped by trace. The operations plane (on by
// default, -ops=false to disable) adds trace exemplars, live events
// on GET /debug/events (SSE; ?session= scopes the stream to one
// tenant, ?kind= and ?service= filter it further), a flight recorder
// of the last -flight data-plane requests on GET /debug/flightrecorder
// (replayable with lce-replay), and an SLO health engine behind
// GET /healthz and GET /readyz (1% errors, 250ms p99, over 5m and 1h
// windows). With -debug-addr a side listener additionally exposes the
// pprof profiling endpoints (kept off the main listener so a served
// emulator never leaks profiles to its API clients):
//
//	lce-server -service ec2 -debug-addr localhost:6060
//	go tool pprof http://localhost:6060/debug/pprof/profile
//
// The process log is the server's own startup and listener lines on
// stderr: -log-format text (the default) prints them as plain log
// lines, json as one slog JSON object per line, and off drops them.
// A listen failure is printed under every format.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"time"

	"lce"
	"lce/internal/obsv"
)

func main() {
	var (
		service   = flag.String("service", "ec2", "service to emulate: ec2 | dynamodb | network-firewall | eks | azure-network")
		backend   = flag.String("backend", "learned", "backend kind: learned | oracle | d2c | manual")
		addr      = flag.String("addr", ":4566", "listen address")
		debugAddr = flag.String("debug-addr", "", "also serve pprof, /metrics and /debug/traces on this side listener (empty = no side listener)")
		traceSeed = flag.Int64("trace-seed", 1, "seed for span/trace IDs (same seed + same request sequence = same IDs)")
		noisy     = flag.Bool("noisy", false, "synthesize the learned backend with the preliminary noise model instead of a faithful extraction")
		chaos     = flag.Bool("chaos", false, "inject transient faults (throttling, 5xx, drops) in front of the backend")
		chaosSeed = flag.Int64("chaos-seed", 1, "seed for the fault-injection stream (same seed = same faults)")
		faultRate = flag.Float64("fault-rate", 0.1, "total per-call fault probability when -chaos is set")
		node      = flag.String("node", "", "cluster node name reported to fleet aggregation (set by lce-router deployments; empty = standalone)")
		sessions  = flag.Int("sessions", 64, "max resident tenant sessions (0 = single-tenant server, non-default X-LCE-Session rejected)")
		shards    = flag.Int("shards", 8, "tenant-pool shard count")
		ttl       = flag.Duration("session-ttl", 15*time.Minute, "evict tenant sessions idle longer than this (0 = never)")
		dataDir   = flag.String("data-dir", "", "durable tier: write-ahead journal + snapshot directory; evicted sessions spill here and a restart recovers every session (empty = in-memory only)")
		fsyncPol  = flag.String("fsync", "batch", "journal fsync policy with -data-dir: always (sync every journaled call) | batch (every 64 records and at every spill and compaction) | off (page cache only)")
		telemetry = flag.Duration("telemetry", 10*time.Second, "runtime telemetry sampling interval for the lce_runtime_* gauges (0 = off)")

		ops       = flag.Bool("ops", true, "mount the operations plane (dimensional metrics, /debug/events, flight recorder, SLO health)")
		logFormat = flag.String("log-format", "text", "process log format: text | json (one slog JSON object per line) | off")
		flightCap = flag.Int("flight", 0, "flight-recorder window size in requests (0 = default 1024)")
	)
	flag.Parse()
	switch *logFormat {
	case "text":
	case "json":
		slog.SetDefault(slog.New(slog.NewJSONHandler(os.Stderr, nil)))
	case "off":
		log.SetOutput(io.Discard)
	default:
		fmt.Fprintf(os.Stderr, "lce-server: unknown -log-format %q (want text | json | off)\n", *logFormat)
		os.Exit(2)
	}

	srv, err := lce.NewServer(lce.ServerConfig{
		Service: *service, Backend: *backend, Noisy: *noisy,
		Chaos: *chaos, ChaosSeed: *chaosSeed, FaultRate: *faultRate,
		TraceSeed: *traceSeed,
		Node:      *node,
		Sessions:  *sessions, Shards: *shards, SessionTTL: *ttl,
		DataDir: *dataDir, Fsync: *fsyncPol,
		Ops: *ops, FlightCapacity: *flightCap,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *chaos {
		log.Printf("chaos on: %.0f%% fault rate, seed %d (throttling → 400, unavailable → 503, internal → 500, drops → 408)",
			100**faultRate, *chaosSeed)
	}
	if srv.Store != nil {
		log.Printf("durable tier: %s (fsync %s), %d session(s) recovered — each rehydrates on first touch",
			*dataDir, *fsyncPol, len(srv.Recovered))
	}
	if srv.Pool != nil && *ttl > 0 {
		pool := srv.Pool
		go func() {
			for range time.Tick(*ttl) {
				pool.Sweep()
			}
		}()
	}
	if *telemetry > 0 && srv.Obs != nil && srv.Obs.Registry != nil {
		sampler := obsv.NewRuntimeSampler(srv.Obs.Registry, nil)
		go sampler.Run(nil, *telemetry)
		log.Printf("runtime telemetry: lce_runtime_* sampled every %s", *telemetry)
	}
	if *debugAddr != "" {
		go serveDebug(*debugAddr, srv.Obs)
	}
	hint := *addr
	if len(hint) > 0 && hint[0] == ':' {
		hint = "localhost" + hint
	}
	log.Printf("serving %s (%s backend, %d actions) on %s", *service, *backend, len(srv.Backend.Actions()), *addr)
	if srv.Pool != nil {
		log.Printf("multi-tenant: up to %d sessions over %d shards, idle TTL %s (X-LCE-Session selects; stats on %s/v2/sessions)",
			*sessions, srv.Pool.Shards(), *ttl, hint)
		log.Printf("try: curl -s -XPOST -H 'X-LCE-Session: alice' '%s/v2/%s?Action=CreateVpc' -d '{\"params\":{\"cidrBlock\":\"10.0.0.0/16\"}}'", hint, *service)
	}
	log.Printf("observability: %s/metrics (Prometheus text), %s/debug/traces (span JSON)", hint, hint)
	if srv.Ops != nil {
		log.Printf("operations plane: %s/debug/events (SSE), %s/debug/flightrecorder (dump for lce-replay), %s/healthz + %s/readyz (SLO verdicts)",
			hint, hint, hint, hint)
	}
	log.Printf("try: curl -s -XPOST '%s/v2/%s?Action=CreateVpc' -d '{\"params\":{\"cidrBlock\":\"10.0.0.0/16\"}}'", hint, *service)
	// Printed past the log, so that -log-format off still names why
	// the server did not start.
	if err := lce.ListenAndServe(*addr, srv.Handler); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// serveDebug runs the pprof side listener. pprof is deliberately not
// registered on the main mux: profiles stay on an operator-chosen
// (typically loopback) address.
func serveDebug(addr string, ob *lce.Obs) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/metrics", ob.Registry)
	mux.HandleFunc("/debug/traces", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(obsv.GroupTraces(ob.Tracer.Snapshot()))
	})
	log.Printf("debug listener (pprof, /metrics, /debug/traces) on %s", addr)
	if err := lce.ListenAndServe(addr, mux); err != nil {
		log.Printf("debug listener: %v", err)
	}
}
