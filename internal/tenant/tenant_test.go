package tenant

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"lce/internal/cloud/aws/ec2"
	"lce/internal/cloudapi"
	"lce/internal/obsv"
)

// countingFactory stamps out cheap isolated backends and counts the
// stamps, so tests can assert exactly when a session was (re)created.
type countingBackend struct {
	mu    sync.Mutex
	vpcs  int
	madeN int
}

func (c *countingBackend) Service() string   { return "counting" }
func (c *countingBackend) Actions() []string { return []string{"Create", "Count"} }
func (c *countingBackend) Reset() {
	c.mu.Lock()
	c.vpcs = 0
	c.mu.Unlock()
}
func (c *countingBackend) Invoke(req cloudapi.Request) (cloudapi.Result, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch req.Action {
	case "Create":
		c.vpcs++
		return cloudapi.Result{"n": cloudapi.Int(int64(c.vpcs))}, nil
	case "Count":
		return cloudapi.Result{"n": cloudapi.Int(int64(c.vpcs)), "made": cloudapi.Int(int64(c.madeN))}, nil
	}
	return nil, cloudapi.Errf(cloudapi.CodeUnknownAction, "no %s", req.Action)
}

func countingFactory() (cloudapi.BackendFactory, *int) {
	var made int
	var mu sync.Mutex
	return func() cloudapi.Backend {
		mu.Lock()
		made++
		n := made
		mu.Unlock()
		return &countingBackend{madeN: n}
	}, &made
}

func mustPool(t *testing.T, f cloudapi.BackendFactory, cfg Config) *Pool {
	t.Helper()
	p, err := New(f, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestSessionsAreIsolated(t *testing.T) {
	f, _ := countingFactory()
	p := mustPool(t, f, Config{})
	a, err := p.Get("alice")
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Get("bob")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := a.Invoke(cloudapi.Request{Action: "Create"}); err != nil {
			t.Fatal(err)
		}
	}
	res, err := b.Invoke(cloudapi.Request{Action: "Count"})
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Get("n").AsInt(); n != 0 {
		t.Errorf("bob sees %d resources created by alice", n)
	}
	// Same ID returns the same instance.
	a2, _ := p.Get("alice")
	if a2 != a {
		t.Error("repeated Get returned a different backend instance")
	}
}

func TestSessionScopedReset(t *testing.T) {
	f, _ := countingFactory()
	p := mustPool(t, f, Config{})
	a, _ := p.Get("alice")
	b, _ := p.Get("bob")
	_, _ = a.Invoke(cloudapi.Request{Action: "Create"})
	_, _ = b.Invoke(cloudapi.Request{Action: "Create"})
	if err := p.Reset("alice"); err != nil {
		t.Fatal(err)
	}
	ra, _ := a.Invoke(cloudapi.Request{Action: "Count"})
	rb, _ := b.Invoke(cloudapi.Request{Action: "Count"})
	if ra.Get("n").AsInt() != 0 {
		t.Error("alice not reset")
	}
	if rb.Get("n").AsInt() != 1 {
		t.Error("resetting alice reset bob too — Reset is not session-scoped")
	}
}

func TestCapacityEvictsLRU(t *testing.T) {
	f, made := countingFactory()
	// 1 shard so capacity order is fully observable.
	p := mustPool(t, f, Config{Shards: 1, Capacity: 3})
	for _, id := range []string{"s1", "s2", "s3"} {
		if _, err := p.Get(id); err != nil {
			t.Fatal(err)
		}
	}
	p.Get("s1") // touch: s2 is now least-recently-used
	p.Get("s4") // over capacity: evicts s2
	if p.Contains("s2") {
		t.Error("s2 survived capacity eviction")
	}
	for _, id := range []string{"s1", "s3", "s4"} {
		if !p.Contains(id) {
			t.Errorf("%s evicted, want resident", id)
		}
	}
	st := p.Stats()
	if st.CapacityEvictions != 1 || st.IdleEvictions != 0 {
		t.Errorf("evictions = %+v", st)
	}
	// A re-Get of the evicted session stamps a fresh backend.
	before := *made
	p.Get("s2")
	if *made != before+1 {
		t.Errorf("factory calls = %d, want %d", *made, before+1)
	}
}

func TestIdleTTLEviction(t *testing.T) {
	f, _ := countingFactory()
	clk := obsv.NewFakeClock(time.Time{})
	p := mustPool(t, f, Config{Shards: 2, Capacity: 100, IdleTTL: time.Minute, Clock: clk})
	p.Get("cold")
	clk.Advance(30 * time.Second)
	p.Get("warm")
	clk.Advance(45 * time.Second) // cold idle 75s > TTL, warm idle 45s < TTL
	if n := p.Sweep(); n != 1 {
		t.Errorf("Sweep() = %d, want 1", n)
	}
	if p.Contains("cold") {
		t.Error("cold session survived TTL")
	}
	if !p.Contains("warm") {
		t.Error("warm session evicted before its TTL")
	}
	if st := p.Stats(); st.IdleEvictions != 1 {
		t.Errorf("idle evictions = %d, want 1", st.IdleEvictions)
	}
}

func TestDefaultSessionIsPinned(t *testing.T) {
	f, _ := countingFactory()
	clk := obsv.NewFakeClock(time.Time{})
	p := mustPool(t, f, Config{Shards: 1, Capacity: 1, IdleTTL: time.Second, Clock: clk})
	d1, err := p.Get("")
	if err != nil {
		t.Fatal(err)
	}
	d2, _ := p.Get(DefaultSession)
	if d1 != d2 {
		t.Error(`Get("") and Get("default") disagree`)
	}
	// Fill far past capacity and idle far past TTL: default survives.
	for i := 0; i < 10; i++ {
		p.Get(fmt.Sprintf("s%d", i))
		clk.Advance(10 * time.Second)
	}
	p.Sweep()
	d3, _ := p.Get(DefaultSession)
	if d3 != d1 {
		t.Error("default session was evicted — headerless clients lost their account")
	}
	if p.Drop(DefaultSession) {
		t.Error("Drop removed the pinned default session")
	}
}

func TestInvalidSessionIDs(t *testing.T) {
	f, _ := countingFactory()
	p := mustPool(t, f, Config{})
	long := make([]byte, MaxSessionIDLen+1)
	for i := range long {
		long[i] = 'a'
	}
	for _, id := range []string{"has space", "semi;colon", "sla/sh", string(long), "nul\x00"} {
		_, err := p.Get(id)
		ae, ok := cloudapi.AsAPIError(err)
		if !ok || ae.Code != cloudapi.CodeInvalidSession {
			t.Errorf("Get(%q) err = %v, want %s", id, err, cloudapi.CodeInvalidSession)
		}
	}
	for _, id := range []string{"ok", "CI-run.42", "a_b-c.d", "0"} {
		if _, err := p.Get(id); err != nil {
			t.Errorf("Get(%q) rejected valid id: %v", id, err)
		}
	}
}

func TestMetricsPublished(t *testing.T) {
	f, _ := countingFactory()
	reg := obsv.NewRegistry()
	clk := obsv.NewFakeClock(time.Time{})
	p := mustPool(t, f, Config{Shards: 1, Capacity: 2, IdleTTL: time.Minute, Clock: clk, Registry: reg})
	p.Get("a")
	p.Get("a")
	p.Get("b")
	p.Get("c") // capacity-evicts a
	clk.Advance(2 * time.Minute)
	p.Sweep() // idle-evicts b and c
	if got := reg.Counter(obsv.MetricTenantHits).Value(); got != 1 {
		t.Errorf("hits = %d, want 1", got)
	}
	if got := reg.Counter(obsv.MetricTenantMisses).Value(); got != 3 {
		t.Errorf("misses = %d, want 3", got)
	}
	if got := reg.Counter(obsv.MetricTenantEvictions, "shard", "0", "reason", "capacity").Value(); got != 1 {
		t.Errorf("capacity evictions = %d, want 1", got)
	}
	if got := reg.Counter(obsv.MetricTenantEvictions, "shard", "0", "reason", "idle").Value(); got != 2 {
		t.Errorf("idle evictions = %d, want 2", got)
	}
	if got := reg.Gauge(obsv.MetricTenantSessions).Value(); got != 0 {
		t.Errorf("occupancy gauge = %d, want 0 after evicting everything", got)
	}
	st := p.Stats()
	if hr := st.HitRate(); hr != 0.25 {
		t.Errorf("hit rate = %v, want 0.25", hr)
	}
}

func TestShardsSpreadSessions(t *testing.T) {
	f, _ := countingFactory()
	p := mustPool(t, f, Config{Shards: 8, Capacity: 10_000})
	for i := 0; i < 800; i++ {
		p.Get(fmt.Sprintf("session-%d", i))
	}
	st := p.Stats()
	for i, n := range st.PerShard {
		// A grossly skewed hash would defeat the sharding; allow wide
		// slack around the 100/shard mean.
		if n < 50 || n > 200 {
			t.Errorf("shard %d holds %d of 800 sessions — hash is skewed", i, n)
		}
	}
}

// TestConcurrentGetIsRaceFree hammers one pool from many goroutines
// under -race: mixed hits, misses, evictions, resets, and stats reads.
func TestConcurrentGetIsRaceFree(t *testing.T) {
	p := mustPool(t, ec2.Factory(), Config{Shards: 4, Capacity: 16, IdleTTL: time.Minute})
	var wg sync.WaitGroup
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				id := fmt.Sprintf("s%d", (g*7+i)%24)
				b, err := p.Get(id)
				if err != nil {
					t.Errorf("Get(%s): %v", id, err)
					return
				}
				if _, err := b.Invoke(cloudapi.Request{
					Action: "CreateVpc",
					Params: cloudapi.Params{"cidrBlock": cloudapi.Str("10.0.0.0/16")},
				}); err != nil {
					t.Errorf("invoke on %s: %v", id, err)
					return
				}
				if i%10 == 0 {
					_ = p.Reset(id)
					_ = p.Stats()
				}
			}
		}(g)
	}
	wg.Wait()
}

// rendezvousBackend serializes its own calls, as a single-threaded
// emulator would, and holds each call open until every session's call
// has entered.
type rendezvousBackend struct {
	mu       sync.Mutex
	arrive   func()
	together <-chan struct{}
}

func (r *rendezvousBackend) Service() string   { return "rendezvous" }
func (r *rendezvousBackend) Actions() []string { return []string{"Meet"} }
func (r *rendezvousBackend) Reset()            {}
func (r *rendezvousBackend) Invoke(cloudapi.Request) (cloudapi.Result, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.arrive()
	select {
	case <-r.together:
		return cloudapi.Result{}, nil
	case <-time.After(10 * time.Second):
		return nil, fmt.Errorf("the other session's call never entered")
	}
}

// TestSessionsInvokeConcurrently: two sessions' calls overlap even
// though each session's backend serializes its own. Each call waits
// inside its backend for the other session's call, so if the pool
// handed both sessions one backend, or serialized them anywhere on the
// way, neither call could finish.
func TestSessionsInvokeConcurrently(t *testing.T) {
	const sessions = 2
	var arrived sync.WaitGroup
	arrived.Add(sessions)
	together := make(chan struct{})
	go func() {
		arrived.Wait()
		close(together)
	}()
	p := mustPool(t, func() cloudapi.Backend {
		return &rendezvousBackend{arrive: arrived.Done, together: together}
	}, Config{})

	errs := make(chan error, sessions)
	for i := 0; i < sessions; i++ {
		go func(id string) {
			b, err := p.Get(id)
			if err == nil {
				_, err = b.Invoke(cloudapi.Request{Action: "Meet"})
			}
			errs <- err
		}(fmt.Sprintf("tenant-%d", i))
	}
	for i := 0; i < sessions; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}
