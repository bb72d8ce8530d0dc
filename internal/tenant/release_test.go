package tenant

import (
	"context"
	"sync"
	"testing"

	"lce/internal/cloudapi"
	"lce/internal/obsv"
)

// memSpill is a SpillTier that keeps snapshots in memory, counting
// spills, so Release's spill behaviour is observable without a real
// durable store.
type memSpill struct {
	mu      sync.Mutex
	spilled map[string]bool
}

func (m *memSpill) Adopt(ctx context.Context, id string, b cloudapi.Backend) (cloudapi.Backend, bool) {
	return b, true
}
func (m *memSpill) Spill(id string, b cloudapi.Backend) (int64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.spilled == nil {
		m.spilled = make(map[string]bool)
	}
	m.spilled[id] = true
	return 1, nil
}
func (m *memSpill) Forget(id string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.spilled, id)
}
func (m *memSpill) Count() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.spilled)
}

// TestReleaseEvicts: Release removes the resident session (next Get
// recreates it) and counts under the "release" eviction reason.
func TestReleaseEvicts(t *testing.T) {
	f, made := countingFactory()
	p := mustPool(t, f, Config{})
	b, err := p.Get("alice")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Invoke(cloudapi.Request{Action: "Create"}); err != nil {
		t.Fatal(err)
	}
	found, spilled := p.Release("alice")
	if !found || spilled {
		t.Fatalf("Release = (%v, %v), want (true, false) without a spill tier", found, spilled)
	}
	if p.Contains("alice") {
		t.Fatal("released session still resident")
	}
	if p.Releases() != 1 {
		t.Fatalf("Releases = %d, want 1", p.Releases())
	}
	b2, err := p.Get("alice")
	if err != nil {
		t.Fatal(err)
	}
	res, err := b2.Invoke(cloudapi.Request{Action: "Count"})
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Get("n").AsInt(); n != 0 {
		t.Fatalf("released session kept state: count %d, want 0 (fresh backend)", n)
	}
	if *made != 2 {
		t.Fatalf("made %d backends, want 2 (fresh instance after release)", *made)
	}
}

// TestReleaseRefusals: the pinned default, malformed IDs, and unknown
// sessions are not releasable.
func TestReleaseRefusals(t *testing.T) {
	f, _ := countingFactory()
	p := mustPool(t, f, Config{})
	if found, _ := p.Release(DefaultSession); found {
		t.Fatal("released the pinned default session")
	}
	if found, _ := p.Release("no such session"); found {
		t.Fatal("released a malformed session ID")
	}
	if found, _ := p.Release("ghost"); found {
		t.Fatal("released a session that was never created")
	}
	if p.Releases() != 0 {
		t.Fatalf("Releases = %d, want 0", p.Releases())
	}
}

// TestReleaseSpills: with a spill tier mounted, a released session's
// state reaches the tier — the export path relies on this so the disk
// copy stays the fallback of record mid-migration.
func TestReleaseSpills(t *testing.T) {
	f, _ := countingFactory()
	tier := &memSpill{}
	p := mustPool(t, f, Config{Spill: tier})
	if _, err := p.Get("alice"); err != nil {
		t.Fatal(err)
	}
	found, spilled := p.Release("alice")
	if !found || !spilled {
		t.Fatalf("Release = (%v, %v), want (true, true) with a spill tier", found, spilled)
	}
	if !tier.spilled["alice"] {
		t.Fatal("spill tier never saw the released session")
	}
}

// TestEvictionSpillIsItsOwnPhase: the spill of the session a lookup
// evicts is timed as the "spill" phase of the request that caused it —
// not left inside that request's session.lookup — and a hit, which
// evicts nothing, records none.
func TestEvictionSpillIsItsOwnPhase(t *testing.T) {
	f, _ := countingFactory()
	p := mustPool(t, f, Config{Shards: 1, Capacity: 1, Spill: &memSpill{}})
	pt := &obsv.PhaseTimer{}
	pt.Reset(nil)
	ctx := &obsv.Scope{Context: context.Background(), Phases: pt}
	if _, err := p.GetCtx(ctx, "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := p.GetCtx(ctx, "a"); err != nil {
		t.Fatal(err)
	}
	if m := pt.Times().Map(); m != nil {
		t.Fatalf("phases recorded with nothing evicted: %v", m)
	}
	if _, err := p.GetCtx(ctx, "b"); err != nil { // evicts a
		t.Fatal(err)
	}
	m := pt.Times().Map()
	if _, ok := m[obsv.PhaseSpill]; !ok || len(m) != 1 {
		t.Fatalf("phases after an evicting lookup = %v, want exactly %q", m, obsv.PhaseSpill)
	}
}

// lockProbe is a backend whose Reset reports whether its session's
// shard lock is held at that moment.
type lockProbe struct {
	countingBackend
	pool   *Pool
	locked *bool
}

func (l *lockProbe) Reset() {
	mu := &l.pool.shardFor("probe").mu
	if mu.TryLock() {
		mu.Unlock()
		return
	}
	*l.locked = true
}

// TestResetRunsUnderTheEvictionLock: Reset has no error to report an
// eviction with, so the pool resets under the shard lock — no lookup,
// and therefore no eviction, can come between resolving the session
// and resetting it.
func TestResetRunsUnderTheEvictionLock(t *testing.T) {
	var p *Pool
	locked := false
	p = mustPool(t, func() cloudapi.Backend { return &lockProbe{pool: p, locked: &locked} }, Config{Shards: 1})
	if err := p.Reset("probe"); err != nil {
		t.Fatal(err)
	}
	if !locked {
		t.Fatal("the shard was enterable while the session was being reset")
	}
	if err := p.ResetCtx(context.Background(), "not a valid id"); err == nil {
		t.Error("ResetCtx accepted an invalid session id")
	}
}
