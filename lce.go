// Package lce — learned cloud emulators — is the public facade of this
// repository: a from-scratch implementation of "A Case for Learned
// Cloud Emulators" (HotNets 2025).
//
// The package wires together the full workflow the paper describes:
//
//	corpus := lce.Documentation("ec2")       // provider documentation (rendered text)
//	emu, report, err := lce.Learn(corpus, lce.DefaultOptions()) // docs → SM spec → emulator
//	res, err := lce.Align("ec2", lce.DefaultOptions(), lce.AlignConfig{}) // close the loop against the cloud
//	lce.ListenAndServe(addr, lce.Serve(emu))  // the HTTP/1.1 front of internal/h1, header/idle timeouts
//
// Everything underneath lives in internal/ packages: the SM spec
// language and interpreter, the hand-written cloud oracles, the
// documentation model and wrangler, the synthesis pipeline with its
// hallucination model, the symbolic-execution trace generator, the
// alignment engine, and the evaluation harness that regenerates every
// table and figure of the paper. See DESIGN.md for the system
// inventory and EXPERIMENTS.md for paper-vs-measured results.
package lce

import (
	"fmt"
	"net/http"

	"lce/internal/align"
	"lce/internal/cloud/aws/dynamodb"
	"lce/internal/cloud/aws/ec2"
	"lce/internal/cloud/aws/eks"
	"lce/internal/cloud/aws/netfw"
	"lce/internal/cloud/azure"
	"lce/internal/cloudapi"
	"lce/internal/docs"
	"lce/internal/docs/corpus"
	"lce/internal/durable"
	"lce/internal/fault"
	"lce/internal/httpapi"
	"lce/internal/interp"
	"lce/internal/obsv"
	"lce/internal/retry"
	"lce/internal/scenarios"
	"lce/internal/synth"
	"lce/internal/synth/d2c"
	"lce/internal/tenant"
	"lce/internal/trace"
)

// Backend is any cloud-shaped API surface: a ground-truth oracle, a
// learned emulator, or a baseline.
type Backend = cloudapi.Backend

// Request and Result are the API call shapes.
type (
	Request = cloudapi.Request
	Result  = cloudapi.Result
	Params  = cloudapi.Params
	Value   = cloudapi.Value
)

// Re-exported value constructors.
var (
	Str  = cloudapi.Str
	Int  = cloudapi.Int
	Bool = cloudapi.Bool
)

// Emulator is a learned emulator: an interpreted SM specification.
type Emulator = interp.Emulator

// Options configures synthesis.
type Options = synth.Options

// DefaultOptions is the paper-prototype configuration: the preliminary
// hallucination model with free decoding and re-prompting.
func DefaultOptions() Options { return synth.DefaultOptions() }

// PerfectOptions is the zero-noise configuration: a faithful
// extraction used to validate the abstraction end to end.
func PerfectOptions() Options {
	return Options{Noise: synth.Perfect, Decoding: synth.Constrained}
}

// Cloud returns the ground-truth oracle for a service: "ec2",
// "dynamodb", "network-firewall", "eks", or "azure-network".
func Cloud(service string) (Backend, error) {
	switch service {
	case "ec2":
		return ec2.New(), nil
	case "dynamodb":
		return dynamodb.New(), nil
	case "network-firewall":
		return netfw.New(), nil
	case "eks":
		return eks.New(), nil
	case "azure-network":
		return azure.New(), nil
	default:
		return nil, fmt.Errorf("lce: unknown service %q", service)
	}
}

// CloudFactory returns a factory of independent ground-truth oracle
// instances for a service. The parallel alignment engine hands one
// instance to each comparison worker so no mutable backend state is
// shared across goroutines.
func CloudFactory(service string) (cloudapi.BackendFactory, error) {
	switch service {
	case "ec2":
		return ec2.Factory(), nil
	case "dynamodb":
		return dynamodb.Factory(), nil
	case "network-firewall":
		return netfw.Factory(), nil
	case "eks":
		return eks.Factory(), nil
	case "azure-network":
		return azure.Factory(), nil
	default:
		return nil, fmt.Errorf("lce: unknown service %q", service)
	}
}

// Documentation returns the rendered documentation corpus for a
// service with learnable docs: "ec2", "dynamodb", "network-firewall",
// or "azure-network".
func Documentation(service string) (docs.Corpus, error) {
	switch service {
	case "ec2":
		return docs.Render(corpus.EC2()), nil
	case "dynamodb":
		return docs.Render(corpus.DynamoDB()), nil
	case "network-firewall":
		return docs.Render(corpus.NetworkFirewall()), nil
	case "azure-network":
		return docs.Render(corpus.Azure()), nil
	default:
		return docs.Corpus{}, fmt.Errorf("lce: no documentation corpus for %q", service)
	}
}

// LearnReport summarizes a synthesis run.
type LearnReport = synth.Report

// Learn synthesizes a learned emulator from rendered documentation:
// wrangling, dependency-ordered incremental extraction, specification
// linking, consistency checking, compilation to pre-resolved closures.
func Learn(c docs.Corpus, opts Options) (*Emulator, *LearnReport, error) {
	svc, rep, err := synth.Synthesize(c, opts)
	if err != nil {
		return nil, rep, err
	}
	emu, err := interp.New(svc)
	return emu, rep, err
}

// DirectToCode builds the paper's direct-to-code baseline from the
// same documentation: a flat handler table without the SM abstraction.
func DirectToCode(c docs.Corpus) (Backend, error) {
	return d2c.New(c)
}

// FaultConfig tunes the chaos layer: seed-driven injection of
// throttling, transient server faults, dropped calls and extra
// latency in front of any backend.
type FaultConfig = fault.Config

// RetryPolicy tunes the resilient client: capped exponential backoff
// with full jitter, attempt and sleep budgets, and the
// transient-vs-semantic error classifier.
type RetryPolicy = retry.Policy

// UniformFaults returns a FaultConfig injecting faults at the given
// total per-call rate (half throttling, a quarter transient server
// faults, a quarter drops), driven by seed.
func UniformFaults(rate float64, seed int64) FaultConfig { return fault.Uniform(rate, seed) }

// DefaultRetryPolicy mirrors the AWS SDK standard retryer shape.
func DefaultRetryPolicy() RetryPolicy { return retry.DefaultPolicy() }

// Chaos wraps any backend with deterministic fault injection — the
// flaky-cloud simulator. Compose with Serve to run a server that
// throttles and fails like the real thing.
func Chaos(b Backend, cfg FaultConfig) Backend { return fault.Wrap(b, cfg) }

// Resilient wraps any backend with the retry policy, turning
// transient faults into retries instead of caller-visible errors.
func Resilient(b Backend, p RetryPolicy) Backend { return retry.Wrap(b, p, nil) }

// Obs bundles the observability stack — a seeded hierarchical tracer
// plus a typed metrics registry (Prometheus text on /metrics). A nil
// *Obs disables everything at the cost of one nil check per layer.
type Obs = obsv.Obs

// NewObs returns an enabled observability stack. The same seed yields
// the same trace IDs for the same workload, so chaos runs stay
// greppable across reruns.
func NewObs(seed int64) *Obs { return obsv.New(seed, 0) }

// DivergenceRef points from one alignment divergence to the trace
// that recorded it (trace ID, suite index, round, cause).
type DivergenceRef = align.DivergenceRef

// DivergenceTraces lists every divergence an observed alignment run
// recorded, ordered by (round, index) — the join between "which traces
// diverged" and "where is the evidence" that align.Result deliberately
// omits (results must be byte-identical with tracing on or off).
func DivergenceTraces(ob *Obs) []DivergenceRef {
	if ob == nil {
		return nil
	}
	return align.DivergenceTraces(ob.Tracer.Snapshot())
}

// AlignResult is the outcome of the alignment loop.
type AlignResult = align.Result

// AlignConfig tunes Align. The zero value is a fault-free, unobserved
// run on GOMAXPROCS comparison workers.
type AlignConfig struct {
	// Workers is the comparison worker-pool size: 1 forces the serial
	// engine, 0 uses GOMAXPROCS. Every setting produces an identical
	// AlignResult; workers only change wall-clock time.
	Workers int
	// Faults, when non-nil, puts the oracle behind the chaos layer.
	Faults *FaultConfig
	// Retry, when non-nil, has every comparison worker talk to the
	// oracle through the resilient client. With a policy whose
	// MaxAttempts exceeds the injector's consecutive-fault cap, a run
	// under Faults is identical to the fault-free run — retries absorb
	// every injected fault; without one, injected faults surface as
	// exhausted-transient divergences (never semantic ones, and never
	// spec repairs).
	Retry *RetryPolicy
	// Obs, when non-nil, records the run: every comparison roots a span
	// with nested replay and per-call spans (injected faults and their
	// retries are events on them, so every divergence is findable by
	// trace ID via DivergenceTraces), per-op latency histograms land in
	// the registry, and the run's Stats are added to the lce_align_*
	// counters. The AlignResult is byte-identical to the unobserved run.
	Obs *Obs
}

// Align runs the automated alignment loop (§4.3) for a service:
// synthesize under opts, then iteratively repair against the oracle
// using the standard trace suites plus symbolically derived
// single-violation traces. It returns the aligned emulator.
func Align(service string, opts Options, cfg AlignConfig) (*AlignResult, error) {
	factory, err := CloudFactory(service)
	if err != nil {
		return nil, err
	}
	if cfg.Faults != nil {
		factory = fault.Factory(factory, *cfg.Faults)
	}
	brief := corpusBrief(service)
	if brief == nil {
		return nil, fmt.Errorf("lce: no brief for %q", service)
	}
	svc, _, err := synth.SynthesizeFromBrief(brief, opts)
	if err != nil {
		return nil, err
	}
	return align.RunFactory(svc, brief, factory, Scenarios(service), align.Options{GenerateViolations: true, Workers: cfg.Workers, Retry: cfg.Retry, Obs: cfg.Obs})
}

// AlignWithCloudWorkers is Align with only the worker-pool size set.
func AlignWithCloudWorkers(service string, opts Options, workers int) (*AlignResult, error) {
	return Align(service, opts, AlignConfig{Workers: workers})
}

// corpusBrief returns the structured documentation for a learnable
// service, or nil for one without a corpus.
func corpusBrief(service string) *docs.ServiceDoc {
	switch service {
	case "ec2":
		return corpus.EC2()
	case "dynamodb":
		return corpus.DynamoDB()
	case "network-firewall":
		return corpus.NetworkFirewall()
	case "azure-network":
		return corpus.Azure()
	default:
		return nil
	}
}

// Scenarios returns the standard trace suite for a service (the Fig. 3
// workload plus the extended parity sweeps).
func Scenarios(service string) []trace.Trace {
	switch service {
	case "ec2":
		return append(scenarios.EC2Fig3(), scenarios.EC2Extended()...)
	case "dynamodb":
		return scenarios.DynamoDB()
	case "network-firewall":
		return scenarios.NetworkFirewall()
	case "azure-network":
		return scenarios.AzureFig3()
	default:
		return nil
	}
}

// Compare runs one trace differentially and reports whether the
// subject aligned with the oracle.
func Compare(subject, oracle Backend, tr trace.Trace) trace.Report {
	return trace.Compare(subject, oracle, tr)
}

// Serve exposes any backend over HTTP in the LocalStack style
// (POST /v2/{service}?Action=X, POST /v2/{service}/reset,
// POST /v2/{service}/batch, GET /actions, GET /healthz) as a
// single-tenant server: every call lands in the one default session.
// NewServer builds the multi-tenant, observed and durable shapes.
func Serve(b Backend) http.Handler {
	return httpapi.New(b)
}

// Connect returns a client speaking to a served emulator over HTTP; it
// is a Backend. Client.WithSession scopes it to a tenant session, and
// Resilient(Connect(url), DefaultRetryPolicy()) retries the transient
// faults of a chaos-enabled (or genuinely degraded) server instead of
// surfacing them.
func Connect(baseURL string) *Client {
	return httpapi.NewClient(baseURL)
}

// BackendFactory stamps out independent backend instances — one per
// tenant session, one per alignment worker.
type BackendFactory = cloudapi.BackendFactory

// Pool is the sharded multi-tenant session registry (Server.Pool): it
// maps session IDs to isolated per-session backends stamped from a
// factory, with LRU capacity and idle-TTL eviction. The "default"
// session is pinned and backs every request without an X-LCE-Session
// header.
type Pool = tenant.Pool

// DurableStore is the persistence tier (Server.Store): a
// deterministic binary snapshot codec plus a CRC-framed write-ahead
// journal per session. It spills cold sessions to disk on eviction and
// rehydrates them transparently on next touch; pointed at a previous
// process's data directory it recovers every session, lazily, through
// the same path. ServerConfig.DataDir wires it through the whole stack.
type DurableStore = durable.Store

// Client is the wire client; WithSession scopes it to a tenant
// session and Batch sends many requests in one round trip.
type Client = httpapi.Client
