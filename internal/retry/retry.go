// Package retry is the resilient-client layer: a cloudapi.Backend
// wrapper that retries transient infrastructure faults (throttling,
// 5xx, timeouts — see cloudapi.IsTransientCode) with capped
// exponential backoff and full jitter, under per-call attempt and
// sleep budgets.
//
// The classifier is the load-bearing piece and is shared with the
// alignment engine: a *transient* error describes the state of the
// service and retrying it can succeed; a *semantic* error describes
// the request and retrying it is useless — the cloud will reject the
// call again for the same reason. The alignment engine uses the same
// split to report divergence causes: a divergence whose failing side
// carries a transient code is an injected fault that exhausted its
// retries, not a behavioural disagreement between emulator and cloud.
//
// Determinism: jitter is drawn from a seeded stream per wrapper, so a
// seeded run replays its exact backoff schedule (Policy.Schedule
// exposes it for tests).
package retry

import (
	"math/rand"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"lce/internal/cloudapi"
	"lce/internal/obsv"
)

// Class partitions errors for the retry decision.
type Class int

const (
	// Semantic: the request is wrong; retrying cannot help.
	Semantic Class = iota
	// Transient: the service is degraded; retrying can succeed.
	Transient
)

// String names the class.
func (c Class) String() string {
	if c == Transient {
		return "transient"
	}
	return "semantic"
}

// Classify buckets an error. Only *cloudapi.APIError values with a
// transient code are Transient; every other API error is Semantic,
// and non-API errors (backend malfunctions, transport failures
// surfaced by a broken framework) are Semantic too — retrying a
// malfunction hides it from the differential comparison that exists
// to catch it.
func Classify(err error) Class {
	if ae, ok := cloudapi.AsAPIError(err); ok && cloudapi.IsTransientCode(ae.Code) {
		return Transient
	}
	return Semantic
}

// Policy tunes the retry loop. The zero Policy retries nothing; use
// DefaultPolicy for sane production-shaped values.
type Policy struct {
	// MaxAttempts is the total number of tries per call, including
	// the first. <= 1 disables retries.
	MaxAttempts int
	// BaseDelay seeds the exponential schedule: the backoff ceiling
	// before attempt k (1-based failure count) is BaseDelay << (k-1),
	// capped at MaxDelay; the actual sleep is drawn uniformly from
	// [0, ceiling] (full jitter). 0 retries immediately.
	BaseDelay time.Duration
	// MaxDelay caps a single backoff ceiling. 0 means no cap.
	MaxDelay time.Duration
	// Budget caps the total sleep across one call's retries; a retry
	// whose drawn delay would exceed the remaining budget is not
	// taken and the last transient error is returned. 0 means no
	// budget.
	Budget time.Duration
	// Seed drives the jitter stream.
	Seed int64
}

// DefaultPolicy mirrors the AWS SDK standard retryer shape: 5
// attempts, full-jitter exponential backoff from 2ms capped at 50ms,
// 250ms total sleep budget per call. The small absolute delays fit
// in-process oracles; against a real cloud scale BaseDelay up.
func DefaultPolicy() Policy {
	return Policy{MaxAttempts: 5, BaseDelay: 2 * time.Millisecond, MaxDelay: 50 * time.Millisecond, Budget: 250 * time.Millisecond}
}

// ceiling returns the capped exponential backoff ceiling before
// attempt k (1-based failure count).
func (p Policy) ceiling(k int) time.Duration {
	d := p.BaseDelay
	for i := 1; i < k; i++ {
		d *= 2
		if p.MaxDelay > 0 && d >= p.MaxDelay {
			return p.MaxDelay
		}
	}
	if p.MaxDelay > 0 && d > p.MaxDelay {
		d = p.MaxDelay
	}
	return d
}

// backoff draws the full-jitter delay before attempt k from rng.
func (p Policy) backoff(rng *rand.Rand, k int) time.Duration {
	c := p.ceiling(k)
	if c <= 0 {
		return 0
	}
	return time.Duration(rng.Int63n(int64(c) + 1))
}

// Schedule returns the delays a fresh wrapper would draw for its
// first call's consecutive failures — the deterministic backoff
// schedule for this seed, exposed for tests and for logging a chaos
// run's replay recipe.
func (p Policy) Schedule(failures int) []time.Duration {
	rng := rand.New(rand.NewSource(p.Seed))
	out := make([]time.Duration, 0, failures)
	for k := 1; k <= failures; k++ {
		out = append(out, p.backoff(rng, k))
	}
	return out
}

// Observer receives retry-loop events; *Tally implements it.
type Observer interface {
	// RecordRetry is called before each retry attempt is made.
	RecordRetry()
	// RecordTransientFault is called for every transient error
	// observed, whether or not it is retried.
	RecordTransientFault()
}

// Tally counts retry-loop events. The alignment engine shares one
// across every comparison worker's wrapper, so it is safe for
// concurrent use; a zero Tally is ready to use.
type Tally struct {
	retries, transientFaults atomic.Int64
}

// RecordRetry implements Observer.
func (t *Tally) RecordRetry() { t.retries.Add(1) }

// RecordTransientFault implements Observer.
func (t *Tally) RecordTransientFault() { t.transientFaults.Add(1) }

// Retries returns the retry attempts recorded so far.
func (t *Tally) Retries() int64 { return t.retries.Load() }

// TransientFaults returns the transient faults recorded so far,
// retried or not.
func (t *Tally) TransientFaults() int64 { return t.transientFaults.Load() }

type noopObserver struct{}

func (noopObserver) RecordRetry()          {}
func (noopObserver) RecordTransientFault() {}

// backend is the resilient wrapper.
type backend struct {
	inner  cloudapi.Backend
	policy Policy
	obs    Observer
	clock  obsv.Clock

	mu  sync.Mutex
	rng *rand.Rand
}

// Wrap returns b with the retry policy applied to every Invoke.
// A nil-equivalent policy (MaxAttempts <= 1) returns b unchanged.
// The wrapper preserves forkability: forks share the policy but run
// derived jitter streams, so each fork's schedule is independently
// deterministic.
func Wrap(b cloudapi.Backend, p Policy, obs Observer) cloudapi.Backend {
	return WrapClock(b, p, obs, obsv.System())
}

// WrapClock is Wrap with an injectable clock: backoff sleeps route
// through clock.Sleep, so tests (and trace-determinism harnesses)
// substitute an obsv.FakeClock and retry schedules replay instantly
// with exact durations.
func WrapClock(b cloudapi.Backend, p Policy, obs Observer, clock obsv.Clock) cloudapi.Backend {
	if p.MaxAttempts <= 1 {
		return b
	}
	if obs == nil {
		obs = noopObserver{}
	}
	if clock == nil {
		clock = obsv.System()
	}
	rb := &backend{inner: b, policy: p, obs: obs, clock: clock, rng: rand.New(rand.NewSource(p.Seed))}
	if _, ok := b.(cloudapi.Forker); ok {
		return &forkableBackend{backend: rb}
	}
	return rb
}

func (r *backend) Service() string   { return r.inner.Service() }
func (r *backend) Actions() []string { return r.inner.Actions() }
func (r *backend) Reset()            { r.inner.Reset() }

// Invoke retries transient failures until success, a semantic error,
// attempt exhaustion, or budget exhaustion — whichever comes first.
// On exhaustion the last transient error is returned unchanged, so
// callers (and the alignment engine's cause classifier) still see the
// infrastructure code. When the request carries a tracing span
// (Request.Ctx), every transient fault and every backoff taken is
// recorded as a span event, so a chaos run's trace is self-explaining.
func (r *backend) Invoke(req cloudapi.Request) (cloudapi.Result, error) {
	sp := obsv.SpanFrom(req.Ctx)
	var slept time.Duration
	for attempt := 1; ; attempt++ {
		res, err := r.inner.Invoke(req)
		if err == nil || Classify(err) == Semantic {
			return res, err
		}
		r.obs.RecordTransientFault()
		// The triggering code travels on every retry-family event (not
		// just retry.transient-fault) so a filtered event stream — an
		// ops-plane subscriber watching only retry.backoff — still sees
		// what the backoff was for.
		code := ""
		if ae, ok := cloudapi.AsAPIError(err); ok {
			code = ae.Code
			sp.Event(obsv.EventTransient, "code", code, "attempt", strconv.Itoa(attempt))
		}
		if attempt >= r.policy.MaxAttempts {
			sp.Event(obsv.EventExhausted, "reason", "attempts", "code", code)
			return res, err
		}
		d := r.drawBackoff(attempt)
		if r.policy.Budget > 0 && slept+d > r.policy.Budget {
			sp.Event(obsv.EventExhausted, "reason", "budget", "code", code)
			return res, err
		}
		slept += d
		r.obs.RecordRetry()
		sp.Event(obsv.EventRetry, "code", code, "delay", d.String(), "attempt", strconv.Itoa(attempt))
		if d > 0 {
			r.clock.Sleep(d)
		}
	}
}

func (r *backend) drawBackoff(attempt int) time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.policy.backoff(r.rng, attempt)
}

// forkableBackend adds Forker only when the inner backend supports
// it, mirroring cloudapi's latency wrapper.
type forkableBackend struct {
	*backend
	forks int64
}

func (f *forkableBackend) Fork() cloudapi.Backend {
	f.mu.Lock()
	f.forks++
	p := f.policy
	// Decorrelate the child's jitter stream deterministically.
	p.Seed = f.policy.Seed ^ (f.forks * 0x5DEECE66D)
	f.mu.Unlock()
	return WrapClock(f.inner.(cloudapi.Forker).Fork(), p, f.obs, f.clock)
}
