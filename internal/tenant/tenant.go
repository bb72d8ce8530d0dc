// Package tenant is the multi-tenant serving layer: a sharded session
// registry that gives every tenant an isolated cloud backend. The
// paper positions the learned emulator as a cheap many-developer
// stand-in for the cloud (§1, §5 "local testing at scale"); one shared
// account cannot deliver that — a global Reset from one client
// corrupts every other client's world. A Pool maps session IDs to
// per-session backends stamped out by a cloudapi.BackendFactory, so
// each tenant owns a whole fresh account and sessions never observe
// each other's state.
//
// Layout: sessions are partitioned across N locked shards by
// FNV-1a(sessionID), so traffic on different shards never contends on
// a lock. Each shard keeps its sessions in an LRU list; a per-shard
// capacity slice (pool capacity / shards, rounded up) bounds residency
// and an idle TTL (measured by an injectable obsv.Clock) retires cold
// sessions. The reserved "default" session is pinned — never counted
// against capacity, never expired — because it backs every request
// without a session header, and an eviction there would silently reset
// all of those clients at once.
package tenant

import (
	"container/list"
	"context"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"lce/internal/cloudapi"
	"lce/internal/obsv"
)

// DefaultSession is the reserved session ID headerless clients share.
// It is pinned: exempt from capacity and TTL eviction.
const DefaultSession = "default"

// MaxSessionIDLen bounds session IDs on the wire.
const MaxSessionIDLen = 128

// Defaults applied by New when the corresponding Config field is zero.
const (
	DefaultShards   = 8
	DefaultCapacity = 256
)

// Config tunes a Pool. The zero value is usable: 8 shards, 256
// resident sessions, no idle TTL, system clock, no metrics.
type Config struct {
	// Shards is the number of independently locked partitions.
	Shards int
	// Capacity is the maximum number of resident sessions across the
	// whole pool (the pinned default session is not counted). It is
	// enforced per shard as ceil(Capacity/Shards), so worst-case
	// residency rounds up to a multiple of the shard count.
	Capacity int
	// IdleTTL evicts a session untouched for longer than this. 0
	// keeps idle sessions forever (capacity eviction still applies).
	IdleTTL time.Duration
	// Clock supplies the idle-TTL timebase. Nil means the system
	// clock; tests inject an obsv.FakeClock to replay evictions
	// deterministically.
	Clock obsv.Clock
	// Registry, when non-nil, receives the lce_tenant_* series:
	// occupancy gauge, hit/miss counters, and eviction counters per
	// shard and reason ({shard,reason}; sum by reason for the pool's
	// totals). The registry's counters are the pool's only copy of
	// those counts, so pools that share a registry share their counts
	// (and their Stats).
	Registry *obsv.Registry
	// OnEvict, when non-nil, is called once per evicted session with
	// its id, owning shard, reason (EvictIdle | EvictCapacity),
	// outcome (OutcomeSpilled | OutcomeDropped), and — for spills —
	// the snapshot bytes written. It runs under the shard lock, so it
	// must be fast and must not call back into the pool. The
	// operations plane uses it to publish tenant.evicted events.
	OnEvict func(session string, shard int, reason, outcome string, bytes int64)
	// Spill, when non-nil, is the disk tier: sessions are adopted
	// into it on first touch (journaling + transparent rehydration of
	// persisted state) and offered to it on eviction. With a spill
	// tier, Capacity bounds *resident* worlds only — evicted sessions
	// survive on disk and total capacity is measured in journaled
	// sessions.
	Spill SpillTier
}

// SpillTier is the disk tier a pool can evict into. internal/durable
// implements it; the interface lives here so the pool stays free of
// persistence dependencies.
type SpillTier interface {
	// Adopt wraps a freshly created session backend, rehydrating any
	// state the tier already holds for the session. ok=false means
	// the backend cannot be persisted and is returned unwrapped. The
	// context is the triggering request's (context.Background() for
	// internal adoption): the tier reads the request's latency
	// attribution from it so rehydration time is charged to the
	// request that paid it.
	Adopt(ctx context.Context, session string, b cloudapi.Backend) (wrapped cloudapi.Backend, ok bool)
	// Spill persists the session's state so the resident world can be
	// released, returning the bytes written. An error means the state
	// was not persisted and the eviction is a plain drop.
	Spill(session string, b cloudapi.Backend) (int64, error)
	// Forget deletes the tier's state for a session.
	Forget(session string)
	// Count returns the number of sessions the tier holds.
	Count() int
}

// Eviction reasons passed to Config.OnEvict and used as the "reason"
// label on lce_tenant_evictions_total. EvictRelease is the targeted
// eviction Release performs — the drain step of a cluster migration.
const (
	EvictIdle     = "idle"
	EvictCapacity = "capacity"
	EvictRelease  = "release"
)

// Eviction outcomes passed to Config.OnEvict: whether the session's
// state reached the spill tier or was discarded with the world.
const (
	OutcomeSpilled = "spilled"
	OutcomeDropped = "dropped"
)

// session is one resident tenant: an isolated backend plus its LRU
// bookkeeping.
type session struct {
	id       string
	backend  cloudapi.Backend
	lastUsed time.Time
}

// shard is one lock domain: a map for O(1) lookup and an LRU list
// (front = most recently used) for eviction order.
type shard struct {
	idx      int
	mu       sync.Mutex
	sessions map[string]*list.Element // value: *session
	lru      *list.List
}

// Stats is a point-in-time snapshot of pool behaviour.
type Stats struct {
	// Sessions counts resident sessions, including the pinned
	// default once it has been touched.
	Sessions int
	// PerShard is the resident count of each shard (default session
	// excluded — it lives outside the shards).
	PerShard []int
	Hits     int64
	Misses   int64
	// IdleEvictions and CapacityEvictions partition evictions by
	// cause.
	IdleEvictions     int64
	CapacityEvictions int64
	// Spilled is the spill tier's occupancy — sessions whose state
	// lives on disk (0 without a tier); Spills counts evictions whose
	// state reached the tier.
	Spilled int
	Spills  int64
}

// HitRate returns Hits/(Hits+Misses), or 0 before any lookup.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Pool is the sharded session registry. All methods are safe for
// concurrent use.
type Pool struct {
	factory  cloudapi.BackendFactory
	shards   []*shard
	shardCap int
	idleTTL  time.Duration
	clock    obsv.Clock

	defMu sync.Mutex
	def   cloudapi.Backend

	spillsOK atomic.Int64

	onEvict func(session string, shard int, reason, outcome string, bytes int64)
	spill   SpillTier

	// The counters are Config.Registry's series, or standalone
	// counters without one, and Stats reads them: each count is kept
	// once. evictions maps a reason to its per-shard counters,
	// pre-created so the eviction path never takes the registry's
	// memoization lock. gSessions is nil (a no-op) without a registry.
	gSessions    *obsv.Gauge
	hits, misses *obsv.Counter
	evictions    map[string][]*obsv.Counter
}

// New builds a pool over factory. Every session's backend is a fresh
// factory product, so factories must produce behaviourally identical,
// mutually independent instances (the same contract the parallel
// alignment engine relies on).
func New(factory cloudapi.BackendFactory, cfg Config) (*Pool, error) {
	if factory == nil {
		return nil, cloudapi.Errf(cloudapi.CodeInternalFailure, "tenant: nil backend factory")
	}
	if cfg.Shards <= 0 {
		cfg.Shards = DefaultShards
	}
	if cfg.Capacity <= 0 {
		cfg.Capacity = DefaultCapacity
	}
	if cfg.Clock == nil {
		cfg.Clock = obsv.System()
	}
	p := &Pool{
		factory:  factory,
		shards:   make([]*shard, cfg.Shards),
		shardCap: (cfg.Capacity + cfg.Shards - 1) / cfg.Shards,
		idleTTL:  cfg.IdleTTL,
		clock:    cfg.Clock,
	}
	p.onEvict = cfg.OnEvict
	p.spill = cfg.Spill
	for i := range p.shards {
		p.shards[i] = &shard{idx: i, sessions: make(map[string]*list.Element), lru: list.New()}
	}
	reg := cfg.Registry
	p.gSessions = reg.Gauge(obsv.MetricTenantSessions)
	p.hits = reg.CounterOrNew(obsv.MetricTenantHits)
	p.misses = reg.CounterOrNew(obsv.MetricTenantMisses)
	p.evictions = make(map[string][]*obsv.Counter, 3)
	for _, reason := range []string{EvictIdle, EvictCapacity, EvictRelease} {
		cs := make([]*obsv.Counter, cfg.Shards)
		for i := range cs {
			cs[i] = reg.CounterOrNew(obsv.MetricTenantEvictions, "shard", strconv.Itoa(i), "reason", reason)
		}
		p.evictions[reason] = cs
	}
	return p, nil
}

// ValidSessionID reports whether id is usable on the wire: 1 to
// MaxSessionIDLen characters from [A-Za-z0-9._-].
func ValidSessionID(id string) bool {
	if id == "" || len(id) > MaxSessionIDLen {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// fnv1a is the shard hash: tiny, allocation-free, and uniform enough
// to spread session IDs across lock domains.
func fnv1a(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

func (p *Pool) shardFor(id string) *shard {
	return p.shards[fnv1a(id)%uint32(len(p.shards))]
}

// Get returns the backend owning session id, creating it on first
// use. An empty id means the pinned default session. Invalid IDs are
// rejected with cloudapi.CodeInvalidSession, so the HTTP layer can
// forward the error verbatim.
func (p *Pool) Get(id string) (cloudapi.Backend, error) {
	return p.GetCtx(context.Background(), id)
}

// GetCtx is Get carrying the triggering request's context, so the
// spill-tier work the lookup causes — a first-touch rehydration, and
// the spill of whichever session it evicts to make room — is
// attributed (via the context's obsv.PhaseTimer, when present) to the
// request that paid for it.
//
// The backend is handed out without a lease: a later lookup may evict
// the session while the caller still holds it. A spill tier's wrapper
// then refuses the call (durable.ErrSpilled) rather than execute it
// against a world nobody will read again, and the caller resolves the
// session again.
func (p *Pool) GetCtx(ctx context.Context, id string) (cloudapi.Backend, error) {
	if id == "" || id == DefaultSession {
		return p.defaultBackend(ctx), nil
	}
	if !ValidSessionID(id) {
		return nil, errInvalidSession()
	}
	sh := p.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return p.getLocked(ctx, sh, id), nil
}

func errInvalidSession() error {
	return cloudapi.Errf(cloudapi.CodeInvalidSession,
		"session id must be 1-%d characters from [A-Za-z0-9._-]", MaxSessionIDLen)
}

// defaultBackend returns the pinned default session's backend,
// creating it on first use.
func (p *Pool) defaultBackend(ctx context.Context) cloudapi.Backend {
	p.defMu.Lock()
	if p.def == nil {
		p.def = p.adopt(ctx, DefaultSession, p.factory())
		p.gSessions.Add(1)
	}
	b := p.def
	p.defMu.Unlock()
	p.hits.Inc()
	return b
}

// getLocked resolves a non-default session in its shard, creating it
// (and evicting to make room) on a miss. Caller holds sh.mu.
func (p *Pool) getLocked(ctx context.Context, sh *shard, id string) cloudapi.Backend {
	now := p.clock.Now()
	p.expireLocked(ctx, sh, now)
	if el, ok := sh.sessions[id]; ok {
		sess := el.Value.(*session)
		sess.lastUsed = now
		sh.lru.MoveToFront(el)
		p.hits.Inc()
		return sess.backend
	}
	// Miss: stamp out a fresh backend. The factory runs under the
	// shard lock — an expensive factory stalls only sessions hashing
	// to this shard, which is the contention boundary the sharding
	// exists to draw. The spill tier adopts the product, transparently
	// rehydrating any state it holds for this id (a spilled world, or
	// one a crashed process left behind).
	sess := &session{id: id, backend: p.adopt(ctx, id, p.factory()), lastUsed: now}
	sh.sessions[id] = sh.lru.PushFront(sess)
	p.misses.Inc()
	p.gSessions.Add(1)
	for sh.lru.Len() > p.shardCap {
		p.evictLocked(ctx, sh, sh.lru.Back(), EvictCapacity)
	}
	return sess.backend
}

// expireLocked retires every session in sh idle past the TTL. Caller
// holds sh.mu.
func (p *Pool) expireLocked(ctx context.Context, sh *shard, now time.Time) {
	if p.idleTTL <= 0 {
		return
	}
	for el := sh.lru.Back(); el != nil; {
		sess := el.Value.(*session)
		if now.Sub(sess.lastUsed) <= p.idleTTL {
			break // LRU order: everything further front is fresher
		}
		prev := el.Prev()
		p.evictLocked(ctx, sh, el, EvictIdle)
		el = prev
	}
}

// adopt hands a fresh backend to the spill tier, if one is mounted.
func (p *Pool) adopt(ctx context.Context, id string, b cloudapi.Backend) cloudapi.Backend {
	if p.spill == nil {
		return b
	}
	wb, ok := p.spill.Adopt(ctx, id, b)
	if !ok {
		return b
	}
	return wb
}

// evictLocked retires one session, offering its state to the spill
// tier. ctx is that of the request whose lookup forced the eviction
// (the background context outside a request): the spill is timed as
// the "spill" phase of its obsv.PhaseTimer, so the victim's disk write
// is named for what it is rather than inflating the requester's
// session.lookup.
func (p *Pool) evictLocked(ctx context.Context, sh *shard, el *list.Element, reason string) {
	sess := el.Value.(*session)
	sh.lru.Remove(el)
	delete(sh.sessions, sess.id)
	outcome, bytes := OutcomeDropped, int64(0)
	if p.spill != nil {
		region := obsv.PhasesFrom(ctx).Start(obsv.PhaseSpill)
		n, err := p.spill.Spill(sess.id, sess.backend)
		region.End()
		if err == nil {
			outcome, bytes = OutcomeSpilled, n
			p.spillsOK.Add(1)
		}
	}
	p.evictions[reason][sh.idx].Inc()
	p.gSessions.Add(-1)
	if p.onEvict != nil {
		p.onEvict(sess.id, sh.idx, reason, outcome, bytes)
	}
}

// Sweep runs idle-TTL eviction across every shard and returns the
// number of sessions retired. Get already sweeps the shard it
// touches; Sweep exists for operators and tests that want eviction
// without traffic.
func (p *Pool) Sweep() int {
	if p.idleTTL <= 0 {
		return 0
	}
	now := p.clock.Now()
	before := p.evictionsFor(EvictIdle)
	for _, sh := range p.shards {
		sh.mu.Lock()
		p.expireLocked(context.Background(), sh, now)
		sh.mu.Unlock()
	}
	return int(p.evictionsFor(EvictIdle) - before)
}

// Reset clears one session's account — the session-scoped Reset the
// v2 API exposes. Resetting a session that does not exist yet creates
// it (a fresh account is already reset).
func (p *Pool) Reset(id string) error {
	return p.ResetCtx(context.Background(), id)
}

// ResetCtx is Reset carrying the triggering request's context, like
// GetCtx; the lookup half is timed as the request's "session.lookup"
// phase. The reset runs under the shard lock evictions take:
// cloudapi.Backend.Reset cannot report that its wrapper was evicted
// between lookup and call the way Invoke can, so the pool rules the
// race out instead.
func (p *Pool) ResetCtx(ctx context.Context, id string) error {
	region := obsv.PhasesFrom(ctx).Start(obsv.PhaseSessionLookup)
	if id == "" || id == DefaultSession {
		b := p.defaultBackend(ctx)
		region.End()
		b.Reset()
		return nil
	}
	if !ValidSessionID(id) {
		region.End()
		return errInvalidSession()
	}
	sh := p.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	b := p.getLocked(ctx, sh, id)
	region.End()
	b.Reset()
	return nil
}

// Release retires one resident session on demand — the drain step of
// a cluster migration. The session's state is offered to the spill
// tier exactly like a capacity eviction (checkpoint written, journal
// closed), but on-disk state is kept, so the session's new owner —
// this pool later, or another node sharing the data directory — can
// rehydrate it. It reports whether the session was resident and, if
// so, whether its state reached the spill tier. The pinned default
// session cannot be released.
func (p *Pool) Release(id string) (found, spilled bool) {
	if id == "" || id == DefaultSession || !ValidSessionID(id) {
		return false, false
	}
	sh := p.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	el, ok := sh.sessions[id]
	if !ok {
		return false, false
	}
	before := p.spillsOK.Load()
	p.evictLocked(context.Background(), sh, el, EvictRelease)
	return true, p.spillsOK.Load() > before
}

// Releases counts targeted Release evictions.
func (p *Pool) Releases() int64 { return p.evictionsFor(EvictRelease) }

// evictionsFor sums reason's eviction counters over the shards.
func (p *Pool) evictionsFor(reason string) int64 {
	var n int64
	for _, c := range p.evictions[reason] {
		n += c.Value()
	}
	return n
}

// Drop removes a session entirely — resident world and any spilled
// state — reporting whether anything was removed. The pinned default
// session cannot be dropped.
func (p *Pool) Drop(id string) bool {
	if id == "" || id == DefaultSession || !ValidSessionID(id) {
		return false
	}
	if p.spill != nil {
		p.spill.Forget(id)
	}
	sh := p.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	el, ok := sh.sessions[id]
	if !ok {
		return false
	}
	sess := el.Value.(*session)
	sh.lru.Remove(el)
	delete(sh.sessions, sess.id)
	p.gSessions.Add(-1)
	return true
}

// Contains reports whether session id is currently resident, without
// touching its LRU position.
func (p *Pool) Contains(id string) bool {
	if id == "" || id == DefaultSession {
		return p.defaultLive()
	}
	if !ValidSessionID(id) {
		return false
	}
	sh := p.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	_, ok := sh.sessions[id]
	return ok
}

func (p *Pool) defaultLive() bool {
	p.defMu.Lock()
	defer p.defMu.Unlock()
	return p.def != nil
}

// Len returns the number of resident sessions, including the pinned
// default once touched.
func (p *Pool) Len() int {
	n := 0
	if p.defaultLive() {
		n = 1
	}
	for _, sh := range p.shards {
		sh.mu.Lock()
		n += sh.lru.Len()
		sh.mu.Unlock()
	}
	return n
}

// Shards returns the shard count.
func (p *Pool) Shards() int { return len(p.shards) }

// Stats snapshots occupancy and lookup/eviction counters.
func (p *Pool) Stats() Stats {
	st := Stats{
		PerShard:          make([]int, len(p.shards)),
		Hits:              p.hits.Value(),
		Misses:            p.misses.Value(),
		IdleEvictions:     p.evictionsFor(EvictIdle),
		CapacityEvictions: p.evictionsFor(EvictCapacity),
		Spills:            p.spillsOK.Load(),
	}
	if p.spill != nil {
		st.Spilled = p.spill.Count()
	}
	for i, sh := range p.shards {
		sh.mu.Lock()
		st.PerShard[i] = sh.lru.Len()
		sh.mu.Unlock()
		st.Sessions += st.PerShard[i]
	}
	if p.defaultLive() {
		st.Sessions++
	}
	return st
}
