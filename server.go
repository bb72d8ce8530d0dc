package lce

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"time"

	"lce/internal/cloudapi"
	"lce/internal/cluster"
	"lce/internal/durable"
	"lce/internal/fault"
	"lce/internal/h1"
	"lce/internal/httpapi"
	"lce/internal/interp"
	"lce/internal/manual"
	"lce/internal/obsv"
	"lce/internal/opsplane"
	"lce/internal/synth"
	"lce/internal/tenant"
)

// OpsPlane is the live operations plane: bounded event bus with SSE
// streaming (GET /debug/events), flight recorder (GET
// /debug/flightrecorder), and the rolling multi-window SLO health
// engine behind /healthz and /readyz. A nil *OpsPlane is fully
// disabled.
type OpsPlane = opsplane.Plane

// OpsEvent is one structured operational event on the bus.
type OpsEvent = opsplane.Event

// FlightDump is the serialized flight-recorder window — the artifact
// GET /debug/flightrecorder serves and cmd/lce-replay re-drives.
type FlightDump = opsplane.FlightDump

// NewBackend builds one backend instance by kind: "learned" (emulator
// synthesized from documentation), "oracle" (hand-written ground-truth
// model), "d2c" (direct-to-code baseline), or "manual" (Moto-style
// partial baseline). The same (service, kind, noisy) triple always
// yields a behaviourally identical instance — the property the
// flight-recorder replay relies on.
func NewBackend(service, kind string, noisy bool) (Backend, error) {
	switch kind {
	case "oracle":
		return Cloud(service)
	case "manual":
		switch service {
		case "ec2":
			return manual.NewEC2(), nil
		case "dynamodb":
			return manual.NewDynamoDB(), nil
		case "network-firewall":
			return manual.NewNetworkFirewall(), nil
		case "eks":
			return manual.NewEKS(), nil
		default:
			return nil, fmt.Errorf("lce: no manual baseline for %q", service)
		}
	case "d2c":
		c, err := Documentation(service)
		if err != nil {
			return nil, err
		}
		return DirectToCode(c)
	case "learned":
		c, err := Documentation(service)
		if err != nil {
			return nil, err
		}
		opts := PerfectOptions()
		if noisy {
			opts = DefaultOptions()
		}
		svc, _, err := synth.Synthesize(c, opts)
		if err != nil {
			return nil, err
		}
		return interp.New(svc)
	default:
		return nil, fmt.Errorf("lce: unknown backend kind %q", kind)
	}
}

// ServerConfig describes one complete server stack — backend, chaos
// layer, tenant pool, observability, operations plane. It is the
// single source of truth for server construction: cmd/lce-server
// builds its process from it, and cmd/lce-replay rebuilds an identical
// stack from the same configuration to re-drive a captured window
// byte-for-byte (same chaos seed → same injected faults, same trace
// seed → same trace IDs).
type ServerConfig struct {
	// Service and Backend select what to emulate and how (see
	// NewBackend). Noisy switches the learned backend to the
	// preliminary noise model.
	Service string
	Backend string
	Noisy   bool

	// Chaos fronts the backend (and every per-session backend) with
	// the deterministic fault injector at FaultRate, seeded by
	// ChaosSeed.
	Chaos     bool
	ChaosSeed int64
	FaultRate float64

	// TraceSeed seeds span/trace IDs (same seed + same request
	// sequence = same IDs).
	TraceSeed int64

	// Sessions/Shards/SessionTTL configure the tenant pool; Sessions 0
	// disables multi-tenancy.
	Sessions   int
	Shards     int
	SessionTTL time.Duration

	// Node names this server as one member of a cluster (lce-router
	// fleet): GET /v2/sessions reports it so fleet aggregation can
	// attribute occupancy. Empty means standalone.
	Node string

	// DataDir mounts the durable tier: sessions are write-ahead
	// journaled under this directory, cold sessions spill to
	// snapshots on eviction, and a server restarted over the same
	// directory recovers every session (lazily, on first touch).
	// Empty disables durability. Fsync selects the journal policy
	// ("always" | "batch" | "off"; empty = "batch"), and ReadOnlyData
	// opens the directory as a rehydration baseline only — nothing is
	// written, which is what cmd/lce-replay wants when replaying a
	// partial flight dump against recovered state.
	DataDir      string
	Fsync        string
	ReadOnlyData bool

	// Ops mounts the operations plane, with the SLO targets of
	// opsplane.DefaultObjectives (1% errors, 250ms p99).
	// FlightCapacity sizes the recorder window (0 =
	// opsplane.DefaultFlightCapacity).
	Ops            bool
	FlightCapacity int

	// Clock drives SLO windows and event timestamps (nil = system).
	Clock obsv.Clock
}

// Server is one assembled stack. Handler is ready for ListenAndServe
// (or in-process replay via httptest).
type Server struct {
	Handler http.Handler
	Backend Backend
	Obs     *Obs
	Ops     *OpsPlane
	Pool    *Pool
	// Store is the durable tier (nil without DataDir); Recovered lists
	// the sessions its boot-time scan found on disk.
	Store     *DurableStore
	Recovered []durable.RecoveredSession
}

// NewServer assembles the full stack from cfg: backend, optional chaos
// wrap (base and factory alike), observability, optional operations
// plane, optional tenant pool (with ops eviction events), and the
// HTTP surface. Identical configs produce behaviourally identical
// servers — the replay contract.
func NewServer(cfg ServerConfig) (*Server, error) {
	b, err := NewBackend(cfg.Service, cfg.Backend, cfg.Noisy)
	if err != nil {
		return nil, err
	}
	factory := FactoryFor(b, cfg)
	if cfg.Chaos {
		fcfg := UniformFaults(cfg.FaultRate, cfg.ChaosSeed)
		b = Chaos(b, fcfg)
		factory = fault.Factory(factory, fcfg)
	}
	ob := NewObs(cfg.TraceSeed)
	// Fleet members salt root IDs with their node name so same-seed
	// processes (the default) never mint colliding trace IDs; the
	// empty standalone identity leaves the ID stream untouched.
	ob.TracerOrNil().SetIdentity(cfg.Node)

	var ops *OpsPlane
	if cfg.Ops {
		ops = opsplane.New(opsplane.Config{
			Service:        cfg.Service,
			Obs:            ob,
			Clock:          cfg.Clock,
			FlightCapacity: cfg.FlightCapacity,
			Objectives:     opsplane.DefaultObjectives(),
		})
	}

	var store *durable.Store
	var recovered []durable.RecoveredSession
	if cfg.DataDir != "" {
		store, err = durable.Open(durable.Config{
			Dir:      cfg.DataDir,
			Fsync:    cfg.Fsync,
			ReadOnly: cfg.ReadOnlyData,
			Registry: ob.Registry,
			Events:   ops.OnDurable(),
			Clock:    cfg.Clock,
		})
		if err != nil {
			return nil, err
		}
		recovered = store.Recover()
	}

	var pool *Pool
	if cfg.Sessions > 0 {
		tcfg := tenant.Config{
			Shards:   cfg.Shards,
			Capacity: cfg.Sessions,
			IdleTTL:  cfg.SessionTTL,
			Clock:    cfg.Clock,
			Registry: ob.Registry,
			OnEvict:  ops.OnEvict(),
		}
		if store != nil {
			tcfg.Spill = store
		}
		pool, err = tenant.New(factory, tcfg)
		if err != nil {
			return nil, err
		}
	} else if store != nil {
		// Single-tenant server: the one backend is the "default"
		// session — journal it so even a pool-less server survives a
		// restart.
		b, _ = store.Adopt(context.Background(), tenant.DefaultSession, b)
	}
	return &Server{
		Handler:   httpapi.New(b, httpapi.WithPool(pool), httpapi.WithObs(ob), httpapi.WithOps(ops), httpapi.WithNode(cfg.Node)),
		Backend:   b,
		Obs:       ob,
		Ops:       ops,
		Pool:      pool,
		Store:     store,
		Recovered: recovered,
	}, nil
}

// Listener timeouts of every process this repository starts. A peer
// gets headerReadTimeout to deliver a request's headers once it has
// begun one, and an idle keep-alive connection is dropped after
// idleConnTimeout, so a slow or vanished client cannot pin a goroutine
// and a descriptor forever.
const (
	headerReadTimeout = 10 * time.Second
	idleConnTimeout   = 2 * time.Minute
)

// ListenAndServe serves h on addr through the HTTP/1.1 front of
// internal/h1, with the header-read and idle timeouts above. The front
// serves the /v2 data-plane requests itself and hands every other
// connection to net/http on the same socket (DESIGN §8 has the rule).
// There is deliberately no whole-request read or write timeout:
// /debug/events (SSE) and the pprof profile routes hold their
// responses open for as long as the client listens.
func ListenAndServe(addr string, h http.Handler) error {
	if addr == "" {
		addr = ":http"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return h1.New(h, headerReadTimeout, idleConnTimeout).Serve(ln)
}

// ClusterNode names one fleet member for NewClusterRouter: a stable
// name (the hash-ring identity) plus the base URL its lce-server
// listens on.
type ClusterNode = cluster.Node

// ClusterConfig tunes a cluster router: initial membership, virtual
// nodes per member, health-probe cadence and failure threshold.
type ClusterConfig = cluster.Config

// ClusterRouter is the scale-out front tier (cmd/lce-router): it
// consistent-hashes X-LCE-Session over the fleet, forwards the /v2
// wire surface untouched, aggregates /metrics, /v2/sessions and
// /debug/events fleet-wide, serves GET /v2/cluster, and migrates
// sessions between nodes on membership change via the durable tier's
// snapshot export. Call Start to launch health probing, Handler for
// the HTTP surface, Close to stop.
type ClusterRouter = cluster.Router

// NewClusterRouter builds a router over an initial fleet.
func NewClusterRouter(cfg ClusterConfig) (*ClusterRouter, error) {
	return cluster.NewRouter(cfg)
}

// FactoryFor resolves the per-session backend factory for b: forkable
// backends (oracles, the learned emulator) fork cheaply; the rest
// rebuild from the same configuration on first use of a session.
func FactoryFor(b Backend, cfg ServerConfig) BackendFactory {
	if f := cloudapi.FactoryOf(b); f != nil {
		return f
	}
	return func() Backend {
		nb, err := NewBackend(cfg.Service, cfg.Backend, cfg.Noisy)
		if err != nil {
			// The identical build in NewServer succeeded, so this is
			// unreachable short of resource exhaustion.
			panic(fmt.Sprintf("lce: session backend rebuild failed: %v", err))
		}
		return nb
	}
}
