// Package fault is the chaos layer: a deterministic, seed-driven
// fault injector that wraps any cloudapi.Backend and makes it behave
// like a real cloud control plane under load — throttling
// (Throttling / RequestLimitExceeded), transient server faults
// (InternalError / ServiceUnavailable), dropped calls that surface as
// RequestTimeout, and extra per-call latency (fixed plus jittered).
//
// Every backend in this repository is perfectly reliable, so without
// this layer the alignment engine and the HTTP front-end are never
// exercised under realistic failure. The injector sits between the
// caller and the backend the way throttling middleware sits in front
// of a cloud API: an injected fault rejects the request *before* it
// reaches the backend, so no state mutation happens on a faulted call
// and a retried call observes exactly the state a first-time success
// would have.
//
// Determinism and replayability: all injection decisions are drawn
// from a single seeded PRNG in call order, every decision is recorded
// in an in-memory log (Decisions), and forked injectors derive their
// child seeds deterministically — the same seed and call sequence
// reproduce the same faults, which is what makes chaos runs
// debuggable.
package fault

import (
	"math/rand"
	"strconv"
	"sync"
	"time"

	"lce/internal/cloudapi"
	"lce/internal/obsv"
)

// Config tunes the injector. Rates are per-call probabilities in
// [0, 1]; their sum must not exceed 1 (Wrap clamps defensively).
// The zero Config injects nothing.
type Config struct {
	// Seed drives every injection decision. Two injectors with the
	// same seed and the same call sequence inject identical faults.
	Seed int64
	// ThrottleRate is the probability a call is rejected with a
	// throttling code (alternating Throttling and
	// RequestLimitExceeded, chosen by the seeded stream).
	ThrottleRate float64
	// ErrorRate is the probability a call fails with a transient
	// server fault (InternalError or ServiceUnavailable, chosen by
	// the seeded stream).
	ErrorRate float64
	// DropRate is the probability a call is dropped entirely and
	// surfaces as RequestTimeout — the request never reaches the
	// backend, modeling a lost connection or a hung load balancer.
	DropRate float64
	// Latency is a fixed delay added to every call (fault or not).
	Latency time.Duration
	// Jitter adds a uniformly distributed extra delay in [0, Jitter)
	// on top of Latency, drawn from the seeded stream.
	Jitter time.Duration
	// MaxConsecutive caps the run of consecutively faulted calls; the
	// next call after the cap is forced through clean. It bounds the
	// worst case a retry policy must survive: any policy with
	// MaxAttempts > MaxConsecutive is guaranteed to outlast the
	// injector. 0 means DefaultMaxConsecutive.
	MaxConsecutive int
}

// DefaultMaxConsecutive is the consecutive-fault cap applied when
// Config.MaxConsecutive is 0.
const DefaultMaxConsecutive = 2

// Uniform returns a Config injecting faults at the given total rate,
// split across the fault kinds the way production incident mixes skew:
// half throttling, a quarter transient server faults, a quarter drops.
func Uniform(rate float64, seed int64) Config {
	return Config{
		Seed:         seed,
		ThrottleRate: rate / 2,
		ErrorRate:    rate / 4,
		DropRate:     rate / 4,
	}
}

// TotalRate returns the combined per-call fault probability.
func (c Config) TotalRate() float64 { return c.ThrottleRate + c.ErrorRate + c.DropRate }

// Decision records what the injector did to one call. The sequence of
// decisions fully determines a chaos run, so persisting the log (or
// just the seed) makes the run exactly replayable.
type Decision struct {
	// Call is the 1-based call index on this injector instance.
	Call int
	// Action is the request's action name.
	Action string
	// Code is the injected error code, or "" when the call passed
	// through to the backend.
	Code string
	// Delay is the injected extra latency (fixed + jittered).
	Delay time.Duration
	// Forced marks a call that rolled a fault but was forced through
	// clean by the MaxConsecutive cap.
	Forced bool
}

// Injected reports whether the call was faulted.
func (d Decision) Injected() bool { return d.Code != "" }

// Stats summarizes an injector's activity.
type Stats struct {
	Calls  int
	Faults int
	// ByCode counts injected faults per error code.
	ByCode map[string]int
}

// maxLog bounds the decision log so a long-lived server with chaos
// enabled cannot grow memory without bound; Stats stay exact beyond
// the cap.
const maxLog = 1 << 16

// Injector implements cloudapi.Backend over an inner backend, with
// faults. Safe for concurrent use; when shared, the interleaving of
// concurrent callers determines which call draws which decision, so
// exact replayability holds per injector instance and call order
// (each alignment worker owns a private fork, preserving determinism
// there).
type Injector struct {
	inner cloudapi.Backend
	cfg   Config

	mu     sync.Mutex
	rng    *rand.Rand
	calls  int
	streak int
	faults int
	byCode map[string]int
	log    []Decision
	forks  int64
}

// New returns an injector over b. Use Wrap when the result should
// preserve b's forkability (alignment workers need that); New is for
// callers that want the *Injector for its log and stats.
func New(b cloudapi.Backend, cfg Config) *Injector {
	if cfg.MaxConsecutive <= 0 {
		cfg.MaxConsecutive = DefaultMaxConsecutive
	}
	if total := cfg.TotalRate(); total > 1 {
		scale := 1 / total
		cfg.ThrottleRate *= scale
		cfg.ErrorRate *= scale
		cfg.DropRate *= scale
	}
	return &Injector{
		inner:  b,
		cfg:    cfg,
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		byCode: map[string]int{},
	}
}

// Wrap returns b with fault injection. The wrapper preserves
// forkability: when b implements cloudapi.Forker so does the wrapper
// (each fork derives an independent deterministic seed), otherwise
// neither does.
func Wrap(b cloudapi.Backend, cfg Config) cloudapi.Backend {
	in := New(b, cfg)
	if _, ok := b.(cloudapi.Forker); ok {
		return &forkableInjector{Injector: in}
	}
	return in
}

// Factory wraps every backend a factory produces with fault
// injection, deriving a distinct deterministic seed per instance.
// Note the produced instances are deliberately *not* behaviourally
// identical (each gets its own fault stream) — a chaos factory is for
// runs where a retry layer masks the faults, or where only the
// semantic-vs-transient classification of the outcome matters.
func Factory(f cloudapi.BackendFactory, cfg Config) cloudapi.BackendFactory {
	if f == nil {
		return nil
	}
	var instances int64
	var mu sync.Mutex
	return func() cloudapi.Backend {
		mu.Lock()
		n := instances
		instances++
		mu.Unlock()
		c := cfg
		c.Seed = deriveSeed(cfg.Seed, n)
		return Wrap(f(), c)
	}
}

// deriveSeed maps (parent seed, child index) to an independent child
// seed with a splitmix64-style mix, so forks and factory instances
// get decorrelated but fully deterministic fault streams.
func deriveSeed(seed, child int64) int64 {
	z := uint64(seed) + (uint64(child)+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// Service implements cloudapi.Backend.
func (in *Injector) Service() string { return in.inner.Service() }

// Actions implements cloudapi.Backend.
func (in *Injector) Actions() []string { return in.inner.Actions() }

// Reset implements cloudapi.Backend. It resets the inner backend's
// state only: the fault stream, call counter and decision log continue
// — replayability is a property of the injector's whole lifetime, and
// trace replays Reset between traces without restarting the chaos.
func (in *Injector) Reset() { in.inner.Reset() }

// Invoke implements cloudapi.Backend: draw a decision, pay the
// injected latency, then either fail without touching the backend or
// pass the call through. When the request carries a tracing span
// (Request.Ctx), the injection decision is recorded on it as a span
// event — chaos runs become self-explaining: every fault a trace
// suffered is in the trace, alongside the retries it triggered.
func (in *Injector) Invoke(req cloudapi.Request) (cloudapi.Result, error) {
	d := in.decide(req.Action)
	if sp := obsv.SpanFrom(req.Ctx); sp != nil {
		switch {
		case d.Injected():
			// "action" rides along so downstream consumers (the ops
			// plane's event bus) can attribute the fault without
			// resolving the span tree.
			sp.Event(obsv.EventFault, "code", d.Code, "action", req.Action,
				"call", strconv.Itoa(d.Call), "seed", strconv.FormatInt(in.cfg.Seed, 10))
		case d.Forced:
			sp.Event(obsv.EventFaultForce, "call", strconv.Itoa(d.Call))
		}
	}
	if d.Delay > 0 {
		time.Sleep(d.Delay)
	}
	if d.Code != "" {
		return nil, cloudapi.Errf(d.Code, "injected fault (call %d, seed %d)", d.Call, in.cfg.Seed)
	}
	return in.inner.Invoke(req)
}

// decide draws one call's injection decision from the seeded stream
// and records it.
func (in *Injector) decide(action string) Decision {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.decideLocked(action)
}

func (in *Injector) decideLocked(action string) Decision {
	in.calls++
	d := Decision{Call: in.calls, Action: action, Delay: in.cfg.Latency}
	if in.cfg.Jitter > 0 {
		d.Delay += time.Duration(in.rng.Int63n(int64(in.cfg.Jitter)))
	}
	roll := in.rng.Float64()
	switch {
	case roll < in.cfg.ThrottleRate:
		d.Code = in.pickThrottle()
	case roll < in.cfg.ThrottleRate+in.cfg.ErrorRate:
		d.Code = in.pickServerFault()
	case roll < in.cfg.ThrottleRate+in.cfg.ErrorRate+in.cfg.DropRate:
		d.Code = cloudapi.CodeRequestTimeout
	}
	if d.Code != "" && in.streak >= in.cfg.MaxConsecutive {
		d.Code, d.Forced = "", true
	}
	if d.Code != "" {
		in.streak++
		in.faults++
		in.byCode[d.Code]++
	} else {
		in.streak = 0
	}
	if len(in.log) < maxLog {
		in.log = append(in.log, d)
	}
	return d
}

func (in *Injector) pickThrottle() string {
	if in.rng.Intn(2) == 0 {
		return cloudapi.CodeThrottling
	}
	return cloudapi.CodeRequestLimitExceeded
}

func (in *Injector) pickServerFault() string {
	if in.rng.Intn(2) == 0 {
		return cloudapi.CodeInternalError
	}
	return cloudapi.CodeServiceUnavailable
}

// Decisions returns a copy of the per-call decision log (capped at
// maxLog entries; Stats remain exact beyond the cap).
func (in *Injector) Decisions() []Decision {
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make([]Decision, len(in.log))
	copy(out, in.log)
	return out
}

// Stats returns call/fault totals.
func (in *Injector) Stats() Stats {
	in.mu.Lock()
	defer in.mu.Unlock()
	by := make(map[string]int, len(in.byCode))
	for k, v := range in.byCode {
		by[k] = v
	}
	return Stats{Calls: in.calls, Faults: in.faults, ByCode: by}
}

// Cursor is the injector's position in its fault stream: the seed it
// draws from and how many calls it has decided. Because every rand
// draw decide makes is a deterministic function of the seed, the
// config, and the call index (throttle/server-fault outcomes draw one
// extra Intn each, and which branch a roll lands in is itself
// determined by the stream), replaying `Calls` decisions from a fresh
// rng reconstructs the exact PRNG position, fault streak, and stats.
// Durable snapshots persist the cursor so a rehydrated session's
// chaos continues precisely where the evicted one stopped.
type Cursor struct {
	Seed  int64
	Calls int
}

// Cursor returns the injector's current fault-stream position.
func (in *Injector) Cursor() Cursor {
	in.mu.Lock()
	defer in.mu.Unlock()
	return Cursor{Seed: in.cfg.Seed, Calls: in.calls}
}

// Restore rewinds the injector to a fresh stream at c.Seed and fast-
// forwards it c.Calls decisions, reconstructing the PRNG position,
// consecutive-fault streak, and fault stats exactly. The decision log
// restarts empty (replayed decisions carry no action names, so keeping
// them would only mislead); the injector's rates, latency, and jitter
// config must match the original — Restore only repositions the
// stream. It adopts c.Seed even if the injector was constructed with a
// different one, which is the restart case: factory-derived seeds
// depend on instance creation order, and a recovered session must
// resume *its* stream, not the stream of whatever order sessions were
// rehydrated in.
func (in *Injector) Restore(c Cursor) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.cfg.Seed = c.Seed
	in.rng = rand.New(rand.NewSource(c.Seed))
	in.calls = 0
	in.streak = 0
	in.faults = 0
	in.byCode = map[string]int{}
	in.log = nil
	for i := 0; i < c.Calls; i++ {
		in.decideLocked("")
	}
	in.log = nil
}

// Inner returns the wrapped backend, for callers (the durable layer)
// that must reach through the chaos wrapper to snapshot or drive the
// underlying emulator directly.
func (in *Injector) Inner() cloudapi.Backend { return in.inner }

// fork stamps out a child injector over a fork of the inner backend,
// with a derived seed and a fresh log.
func (in *Injector) fork() *Injector {
	in.mu.Lock()
	in.forks++
	n := in.forks
	in.mu.Unlock()
	cfg := in.cfg
	cfg.Seed = deriveSeed(in.cfg.Seed, n)
	return New(in.inner.(cloudapi.Forker).Fork(), cfg)
}

// forkableInjector adds Forker only when the inner backend supports
// it, mirroring cloudapi's latency wrapper.
type forkableInjector struct {
	*Injector
}

func (f *forkableInjector) Fork() cloudapi.Backend {
	return &forkableInjector{Injector: f.fork()}
}
