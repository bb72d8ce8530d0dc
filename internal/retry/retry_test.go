package retry

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"lce/internal/cloudapi"
	"lce/internal/obsv"
)

// sleepClock implements obsv.Clock, recording each sleep without
// blocking.
type sleepClock struct{ slept []time.Duration }

func (c *sleepClock) Now() time.Time        { return time.Unix(0, 0) }
func (c *sleepClock) Sleep(d time.Duration) { c.slept = append(c.slept, d) }

func (c *sleepClock) total() time.Duration {
	var sum time.Duration
	for _, d := range c.slept {
		sum += d
	}
	return sum
}

// scriptedBackend fails with the scripted errors in order, then
// succeeds forever.
type scriptedBackend struct {
	errs  []error
	calls int
}

func (s *scriptedBackend) Service() string   { return "scripted" }
func (s *scriptedBackend) Actions() []string { return []string{"Ping"} }
func (s *scriptedBackend) Reset()            {}
func (s *scriptedBackend) Invoke(req cloudapi.Request) (cloudapi.Result, error) {
	s.calls++
	if s.calls <= len(s.errs) {
		return nil, s.errs[s.calls-1]
	}
	return cloudapi.Result{"ok": cloudapi.Bool(true)}, nil
}

func throttle() error { return cloudapi.Errf(cloudapi.CodeThrottling, "slow down") }

func TestClassifierEveryCodeFamily(t *testing.T) {
	transient := []string{
		cloudapi.CodeThrottling,           // throttling family
		cloudapi.CodeRequestLimitExceeded, // throttling family (EC2)
		cloudapi.CodeThrottlingException,  // throttling family (json protocols)
		cloudapi.CodeThroughputExceeded,   // throttling family (DynamoDB)
		cloudapi.CodeInternalError,        // 5xx family
		cloudapi.CodeInternalFailure,      // 5xx family
		cloudapi.CodeServiceUnavailable,   // availability family
		cloudapi.CodeRequestTimeout,       // timeout family
	}
	for _, code := range transient {
		if Classify(cloudapi.Errf(code, "x")) != Transient {
			t.Errorf("code %s classified semantic, want transient", code)
		}
		if !cloudapi.IsTransientCode(code) {
			t.Errorf("IsTransientCode(%s) = false", code)
		}
	}
	semantic := []string{
		cloudapi.CodeUnknownAction,
		cloudapi.CodeMissingParameter,
		cloudapi.CodeInvalidParameter,
		cloudapi.CodeDependencyViolation,
		"InvalidVpc.Range",
		"ResourceNotFoundException",
	}
	for _, code := range semantic {
		if Classify(cloudapi.Errf(code, "x")) != Semantic {
			t.Errorf("code %s classified transient, want semantic", code)
		}
	}
	// Non-API errors are backend malfunctions, never retried.
	if Classify(errors.New("plain failure")) != Semantic {
		t.Error("non-API error classified transient")
	}
	if Classify(nil) != Semantic {
		t.Error("nil error classified transient")
	}
	if Transient.String() != "transient" || Semantic.String() != "semantic" {
		t.Error("Class.String broken")
	}
}

func TestScheduleDeterministicUnderFixedSeed(t *testing.T) {
	p := DefaultPolicy()
	p.Seed = 17
	a, b := p.Schedule(6), p.Schedule(6)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different schedules")
	}
	p2 := p
	p2.Seed = 18
	if reflect.DeepEqual(a, p2.Schedule(6)) {
		t.Error("different seeds produced identical schedules")
	}
	// The wrapper draws the same stream: a fresh wrapper's first
	// failing call must sleep exactly the scheduled delays.
	clock := &sleepClock{}
	bk := &scriptedBackend{errs: []error{throttle(), throttle(), throttle()}}
	rb := WrapClock(bk, p, nil, clock)
	if _, err := rb.Invoke(cloudapi.Request{Action: "Ping"}); err != nil {
		t.Fatalf("retries should have recovered: %v", err)
	}
	want := p.Schedule(3)
	// Zero-length draws are skipped by the sleeper but still consumed
	// from the stream; compare against the non-zero prefix entries.
	var nonzero []time.Duration
	for _, d := range want {
		if d > 0 {
			nonzero = append(nonzero, d)
		}
	}
	if !reflect.DeepEqual(clock.slept, nonzero) {
		t.Errorf("slept %v, want %v", clock.slept, nonzero)
	}
}

func TestJitterBounds(t *testing.T) {
	p := Policy{MaxAttempts: 10, BaseDelay: 2 * time.Millisecond, MaxDelay: 16 * time.Millisecond, Seed: 4}
	for seed := int64(0); seed < 50; seed++ {
		p.Seed = seed
		for k, d := range p.Schedule(8) {
			ceiling := p.ceiling(k + 1)
			if d < 0 || d > ceiling {
				t.Fatalf("seed %d attempt %d: delay %v outside [0, %v]", seed, k+1, d, ceiling)
			}
		}
	}
	// Ceiling doubles from BaseDelay and saturates at MaxDelay.
	wantCeil := []time.Duration{2, 4, 8, 16, 16, 16}
	for k, w := range wantCeil {
		if got := p.ceiling(k + 1); got != w*time.Millisecond {
			t.Errorf("ceiling(%d) = %v, want %v", k+1, got, w*time.Millisecond)
		}
	}
	// Uncapped policy keeps doubling.
	u := Policy{BaseDelay: time.Millisecond}
	if got := u.ceiling(5); got != 16*time.Millisecond {
		t.Errorf("uncapped ceiling(5) = %v", got)
	}
}

func TestRetriesRecoverTransientFaults(t *testing.T) {
	bk := &scriptedBackend{errs: []error{throttle(), cloudapi.Errf(cloudapi.CodeServiceUnavailable, "down")}}
	obs := &Tally{}
	rb := WrapClock(bk, Policy{MaxAttempts: 5}, obs, &sleepClock{})
	res, err := rb.Invoke(cloudapi.Request{Action: "Ping"})
	if err != nil {
		t.Fatalf("err = %v", err)
	}
	if !res.Get("ok").AsBool() {
		t.Errorf("res = %v", res)
	}
	if bk.calls != 3 || obs.Retries() != 2 || obs.TransientFaults() != 2 {
		t.Errorf("calls=%d retries=%d faults=%d, want 3/2/2", bk.calls, obs.Retries(), obs.TransientFaults())
	}
}

func TestAttemptExhaustionReturnsLastTransientError(t *testing.T) {
	errs := make([]error, 10)
	for i := range errs {
		errs[i] = throttle()
	}
	bk := &scriptedBackend{errs: errs}
	obs := &Tally{}
	rb := WrapClock(bk, Policy{MaxAttempts: 3}, obs, &sleepClock{})
	_, err := rb.Invoke(cloudapi.Request{Action: "Ping"})
	ae, ok := cloudapi.AsAPIError(err)
	if !ok || ae.Code != cloudapi.CodeThrottling {
		t.Fatalf("exhaustion must surface the transient code, got %v", err)
	}
	if bk.calls != 3 {
		t.Errorf("calls = %d, want exactly MaxAttempts", bk.calls)
	}
	if obs.Retries() != 2 || obs.TransientFaults() != 3 {
		t.Errorf("retries=%d faults=%d, want 2/3", obs.Retries(), obs.TransientFaults())
	}
}

func TestBudgetExhaustion(t *testing.T) {
	errs := make([]error, 10)
	for i := range errs {
		errs[i] = throttle()
	}
	bk := &scriptedBackend{errs: errs}
	clock := &sleepClock{}
	// Deterministic jitter draw: BaseDelay == MaxDelay makes every
	// ceiling 4ms; with a 6ms budget at most two retries can fit, and
	// fewer when the draws land high.
	p := Policy{MaxAttempts: 10, BaseDelay: 4 * time.Millisecond, MaxDelay: 4 * time.Millisecond, Budget: 6 * time.Millisecond, Seed: 2}
	rb := WrapClock(bk, p, nil, clock)
	_, err := rb.Invoke(cloudapi.Request{Action: "Ping"})
	if Classify(err) != Transient {
		t.Fatalf("budget exhaustion must surface the transient error, got %v", err)
	}
	if clock.total() > p.Budget {
		t.Errorf("slept %v, over the %v budget", clock.total(), p.Budget)
	}
	if bk.calls >= 10 {
		t.Errorf("budget did not cut the retry loop (calls=%d)", bk.calls)
	}
}

func TestSemanticErrorsAreNeverRetried(t *testing.T) {
	bk := &scriptedBackend{errs: []error{cloudapi.Errf("InvalidVpc.Range", "bad cidr")}}
	obs := &Tally{}
	rb := WrapClock(bk, Policy{MaxAttempts: 5}, obs, &sleepClock{})
	_, err := rb.Invoke(cloudapi.Request{Action: "Ping"})
	if ae, ok := cloudapi.AsAPIError(err); !ok || ae.Code != "InvalidVpc.Range" {
		t.Fatalf("err = %v", err)
	}
	if bk.calls != 1 || obs.Retries() != 0 || obs.TransientFaults() != 0 {
		t.Errorf("semantic error drove retries: calls=%d retries=%d faults=%d", bk.calls, obs.Retries(), obs.TransientFaults())
	}
}

func TestDisabledPolicyReturnsBackendUnchanged(t *testing.T) {
	bk := &scriptedBackend{}
	if got := Wrap(bk, Policy{}, nil); got != cloudapi.Backend(bk) {
		t.Error("zero policy should be the identity wrap")
	}
	if got := Wrap(bk, Policy{MaxAttempts: 1}, nil); got != cloudapi.Backend(bk) {
		t.Error("MaxAttempts=1 should be the identity wrap")
	}
}

func TestForkabilityMirrorsInner(t *testing.T) {
	if _, ok := Wrap(&scriptedBackend{}, DefaultPolicy(), nil).(cloudapi.Forker); ok {
		t.Error("wrapper over non-forkable backend claims to fork")
	}
}

func TestRetryRecordsSpanEvents(t *testing.T) {
	tracer := obsv.NewTracer(1, 0)
	fake := obsv.NewFakeClock(time.Time{})
	tracer.SetClock(fake)
	ctx, sp := tracer.StartRoot(context.Background(), "call.Ping")

	bk := &scriptedBackend{errs: []error{throttle(), throttle()}}
	p := Policy{MaxAttempts: 5, BaseDelay: time.Millisecond, Seed: 3}
	rb := WrapClock(bk, p, nil, fake)
	if _, err := rb.Invoke(cloudapi.Request{Action: "Ping", Ctx: ctx}); err != nil {
		t.Fatalf("retries should have recovered: %v", err)
	}
	sp.End()

	spans := tracer.Snapshot()
	if len(spans) != 1 {
		t.Fatalf("want 1 span, got %d", len(spans))
	}
	var transients, backoffs int
	for _, e := range spans[0].Events {
		switch e.Name {
		case obsv.EventTransient:
			transients++
			if e.Attrs["code"] != cloudapi.CodeThrottling {
				t.Errorf("transient event missing code: %+v", e)
			}
		case obsv.EventRetry:
			backoffs++
		}
	}
	if transients != 2 || backoffs != 2 {
		t.Errorf("events: %d transient, %d backoff, want 2/2", transients, backoffs)
	}
	// An untraced request (nil Ctx) takes the nil-span fast path.
	bk2 := &scriptedBackend{errs: []error{throttle()}}
	if _, err := WrapClock(bk2, p, nil, fake).Invoke(cloudapi.Request{Action: "Ping"}); err != nil {
		t.Fatalf("untraced retry broke: %v", err)
	}
}

// TestTallyConcurrent bumps one Tally from many goroutines, as the
// alignment engine's comparison workers do; run it under -race.
func TestTallyConcurrent(t *testing.T) {
	var tl Tally
	const goroutines, perG = 16, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				tl.RecordTransientFault()
				if i%4 == 0 {
					tl.RecordRetry()
				}
			}
		}()
	}
	wg.Wait()
	if got, want := tl.Retries(), int64(goroutines*perG/4); got != want {
		t.Errorf("retries = %d, want %d", got, want)
	}
	if got, want := tl.TransientFaults(), int64(goroutines*perG); got != want {
		t.Errorf("transient faults = %d, want %d", got, want)
	}
}
