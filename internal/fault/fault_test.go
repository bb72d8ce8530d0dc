package fault

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"lce/internal/cloud/aws/ec2"
	"lce/internal/cloudapi"
)

// countingBackend counts the invocations that actually reach it.
type countingBackend struct {
	mu    sync.Mutex
	calls int
}

func (c *countingBackend) Service() string   { return "counting" }
func (c *countingBackend) Actions() []string { return []string{"Ping"} }
func (c *countingBackend) Reset()            {}
func (c *countingBackend) Invoke(req cloudapi.Request) (cloudapi.Result, error) {
	c.mu.Lock()
	c.calls++
	c.mu.Unlock()
	return cloudapi.Result{}, nil
}

func (c *countingBackend) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.calls
}

func drive(in *Injector, n int) []Decision {
	for i := 0; i < n; i++ {
		in.Invoke(cloudapi.Request{Action: "Ping"})
	}
	return in.Decisions()
}

func TestSameSeedSameDecisions(t *testing.T) {
	cfg := Uniform(0.3, 42)
	a := drive(New(&countingBackend{}, cfg), 500)
	b := drive(New(&countingBackend{}, cfg), 500)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed and call sequence produced different decision logs")
	}
	c := drive(New(&countingBackend{}, Uniform(0.3, 43)), 500)
	same := 0
	for i := range a {
		if a[i].Code == c[i].Code {
			same++
		}
	}
	if same == len(a) {
		t.Error("different seeds produced identical fault streams")
	}
}

func TestInjectedFaultsAreTransientAndSkipBackend(t *testing.T) {
	inner := &countingBackend{}
	in := New(inner, Uniform(0.5, 7))
	faults := 0
	for i := 0; i < 400; i++ {
		_, err := in.Invoke(cloudapi.Request{Action: "Ping"})
		if err == nil {
			continue
		}
		faults++
		ae, ok := cloudapi.AsAPIError(err)
		if !ok {
			t.Fatalf("injected fault is not an APIError: %v", err)
		}
		if !cloudapi.IsTransientCode(ae.Code) {
			t.Fatalf("injected code %q is not transient", ae.Code)
		}
	}
	if faults == 0 {
		t.Fatal("50% fault rate injected nothing in 400 calls")
	}
	// A faulted call must never reach the backend: the request was
	// rejected at the middleware, so retrying it observes fresh state.
	if got := inner.count(); got != 400-faults {
		t.Errorf("backend saw %d calls, want %d (faults must not leak through)", got, 400-faults)
	}
	st := in.Stats()
	if st.Calls != 400 || st.Faults != faults {
		t.Errorf("stats = %+v, want 400 calls / %d faults", st, faults)
	}
}

func TestRateIsApproximatelyHonored(t *testing.T) {
	in := New(&countingBackend{}, Uniform(0.1, 11))
	const n = 5000
	drive(in, n)
	got := float64(in.Stats().Faults) / n
	// MaxConsecutive trims long fault runs, so the observed rate sits
	// a little under the configured one; 10% ± 3 points is the sanity
	// band, not a statistical claim.
	if got < 0.05 || got > 0.15 {
		t.Errorf("observed fault rate %.3f, configured 0.1", got)
	}
}

func TestMaxConsecutiveCap(t *testing.T) {
	// Rate 1.0: every call rolls a fault, so the cap alone decides
	// the pattern: MaxConsecutive faults, one forced success, repeat.
	cfg := Config{Seed: 3, ThrottleRate: 1, MaxConsecutive: 2}
	in := New(&countingBackend{}, cfg)
	log := drive(in, 9)
	for i, d := range log {
		wantFault := (i+1)%3 != 0
		if d.Injected() != wantFault {
			t.Fatalf("call %d: injected=%v, want %v (cap must force every 3rd call through)", d.Call, d.Injected(), wantFault)
		}
		if !wantFault && !d.Forced {
			t.Errorf("call %d passed clean at rate 1.0 but is not marked Forced", d.Call)
		}
	}
}

func TestLatencyInjection(t *testing.T) {
	cfg := Config{Seed: 5, Latency: 2 * time.Millisecond, Jitter: 2 * time.Millisecond}
	in := New(&countingBackend{}, cfg)
	start := time.Now()
	const n = 10
	log := drive(in, n)
	elapsed := time.Since(start)
	if elapsed < n*2*time.Millisecond {
		t.Errorf("10 calls with >=2ms injected latency took %v", elapsed)
	}
	for _, d := range log {
		if d.Delay < 2*time.Millisecond || d.Delay >= 4*time.Millisecond {
			t.Errorf("call %d delay %v outside [2ms, 4ms)", d.Call, d.Delay)
		}
	}
}

func TestForkabilityMirrorsInner(t *testing.T) {
	if _, ok := Wrap(&countingBackend{}, Uniform(0.1, 1)).(cloudapi.Forker); ok {
		t.Error("injector over a non-forkable backend claims to fork")
	}
	wrapped, ok := Wrap(ec2.New(), Uniform(0.1, 1)).(cloudapi.Forker)
	if !ok {
		t.Fatal("injector over a forkable oracle is not a Forker")
	}
	f1, f2 := wrapped.Fork(), wrapped.Fork()
	// Forks are deterministic: re-wrapping with the same parent seed
	// and forking again reproduces the same child streams.
	again, _ := Wrap(ec2.New(), Uniform(0.1, 1)).(cloudapi.Forker)
	g1, g2 := again.Fork(), again.Fork()
	probe := func(b cloudapi.Backend) []string {
		var codes []string
		for i := 0; i < 200; i++ {
			_, err := b.Invoke(cloudapi.Request{Action: "DescribeVpcs"})
			if ae, ok := cloudapi.AsAPIError(err); ok {
				codes = append(codes, ae.Code)
			} else {
				codes = append(codes, "")
			}
		}
		return codes
	}
	if !reflect.DeepEqual(probe(f1), probe(g1)) || !reflect.DeepEqual(probe(f2), probe(g2)) {
		t.Error("fork seeds are not derived deterministically")
	}
	if reflect.DeepEqual(probe(wrapped.Fork()), probe(wrapped.Fork())) {
		t.Error("sibling forks share a fault stream (seeds not decorrelated)")
	}
}

func TestResetPreservesFaultStream(t *testing.T) {
	oracle := ec2.New()
	in := New(oracle, Uniform(0.5, 21))
	first := drive(in, 100)
	in.Reset()
	// Decisions accumulates across Reset: the log is a property of the
	// injector's lifetime, and the call counter keeps running.
	second := drive(in, 100)[100:]
	if len(first) != 100 || len(second) != 100 {
		t.Fatalf("log lengths = %d/%d", len(first), len(second))
	}
	if second[0].Call != 101 {
		t.Errorf("Reset restarted the call counter: %d", second[0].Call)
	}
}

func TestConcurrentUseIsSafe(t *testing.T) {
	in := New(&countingBackend{}, Uniform(0.3, 13))
	var wg sync.WaitGroup
	const goroutines, perG = 8, 200
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				in.Invoke(cloudapi.Request{Action: "Ping"})
			}
		}()
	}
	wg.Wait()
	if got := in.Stats().Calls; got != goroutines*perG {
		t.Errorf("calls = %d, want %d", got, goroutines*perG)
	}
}

func TestRateClampAndFactory(t *testing.T) {
	// Over-unity rates are scaled back proportionally, not rejected.
	in := New(&countingBackend{}, Config{Seed: 1, ThrottleRate: 1, ErrorRate: 1, DropRate: 2})
	if total := in.cfg.TotalRate(); total > 1.0001 {
		t.Errorf("clamped total rate = %v", total)
	}
	f := Factory(ec2.Factory(), Uniform(0.2, 99))
	a, b := f(), f()
	if a.Service() != "ec2" || b.Service() != "ec2" {
		t.Fatal("factory-produced injectors broken")
	}
	if Factory(nil, Uniform(0.2, 1)) != nil {
		t.Error("Factory(nil) should be nil")
	}
}
