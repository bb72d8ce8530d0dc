package durable

import (
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"lce/internal/cloudapi"
	"lce/internal/fault"
	"lce/internal/interp"
	"lce/internal/obsv"
)

// Event kinds the store reports through Config.Events; the server
// forwards them to the operations-plane bus verbatim.
const (
	EventSpilled      = "session.spilled"
	EventRehydrated   = "session.rehydrated"
	EventRecoveryScan = "recovery.start"
	EventRecoverySess = "recovery.session"
	EventRecoveryDone = "recovery.done"
	EventJournalError = "journal.error"
	EventStall        = "durable.stall"
)

// DefaultCompactEvery is what Open applies when Config.CompactEvery is
// zero.
const DefaultCompactEvery = 256

const (
	// segmentMaxBytes compacts a session's journal once a recovery
	// would have this many bytes of records to replay, and keeps a
	// spill from growing the segment past it.
	segmentMaxBytes = 1 << 20
	// stallThreshold is the journal-append duration past which the
	// store emits an EventStall ("durable.stall") and increments
	// lce_durable_stalls_total — the canary for a degrading disk or a
	// saturated fsync queue. 100ms is far above any healthy append (a
	// local fsync is single-digit milliseconds) and well below the
	// timeouts clients notice, so a firing watchdog means the disk is
	// genuinely misbehaving.
	stallThreshold = 100 * time.Millisecond
)

// Config tunes a Store.
type Config struct {
	// Dir is the data directory; Open creates Dir/sessions.
	Dir string
	// Fsync is the journal durability policy: FsyncAlways, FsyncBatch
	// (the default), or FsyncOff.
	Fsync string
	// CompactEvery compacts the journal — restarts it from a checkpoint
	// in a fresh segment — once a recovery would have this many records
	// to replay (0 = DefaultCompactEvery). Compaction bounds both
	// recovery time and disk growth.
	CompactEvery int
	// ReadOnly opens the store as a rehydration baseline only: Adopt
	// restores on-disk state but nothing is ever written — no
	// journaling, no checkpoint, no compaction. cmd/lce-replay uses it
	// to replay a partial flight dump against a recovered world.
	ReadOnly bool
	// Registry, when non-nil, receives the lce_durable_* series. Its
	// counters are the store's only copy of those counts, so stores
	// that share a registry share their counts (and their Stats).
	Registry *obsv.Registry
	// Events, when non-nil, receives the store's operational events
	// (Event* kinds). The server forwards them to the ops-plane bus.
	Events func(kind, session string, attrs map[string]string)
	// Clock times journal appends for the stall watchdog. Nil means
	// the system clock; tests inject an obsv.FakeClock (whose Now
	// never advances) to pin the watchdog off.
	Clock obsv.Clock
}

// Stats is a point-in-time snapshot of store activity.
type Stats struct {
	// Sessions is the number of sessions with on-disk state.
	Sessions int
	// Spills / SpillBytes count evictions persisted and the checkpoint
	// bytes they wrote (an unchanged session's spill writes none).
	Spills     int64
	SpillBytes int64
	// Rehydrations counts on-disk sessions restored into live
	// backends (spill rehydrates and crash recoveries look identical
	// here — recovery is just rehydration on first touch).
	Rehydrations int64
	// JournalRecords counts appended journal records.
	JournalRecords int64
}

// Store is the durable tier: it owns the data directory, adopts live
// backends into journaled session wrappers, spills evicted sessions as
// checkpoint records, and rehydrates on-disk state — whether spilled
// by this process or left behind by a crashed one. It implements
// tenant.SpillTier. All methods are safe for concurrent use.
type Store struct {
	cfg Config

	mu    sync.Mutex
	known map[string]struct{} // sessions with on-disk state

	// The counters are Config.Registry's series, or standalone
	// counters without one, and Stats reads them: each count is kept
	// once. gSessions is nil (a no-op) without a registry.
	gSessions    *obsv.Gauge
	spills       *obsv.Counter
	spillBytes   *obsv.Counter
	rehydrations *obsv.Counter
	records      *obsv.Counter
	stalls       *obsv.Counter

	clock obsv.Clock
}

// Open initializes a store over cfg.Dir, creating the directory tree
// and scanning it for sessions persisted by earlier processes.
func Open(cfg Config) (*Store, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("durable: empty data directory")
	}
	switch cfg.Fsync {
	case "":
		cfg.Fsync = FsyncBatch
	case FsyncAlways, FsyncBatch, FsyncOff:
	default:
		return nil, fmt.Errorf("durable: unknown fsync policy %q (want %s|%s|%s)",
			cfg.Fsync, FsyncAlways, FsyncBatch, FsyncOff)
	}
	if cfg.CompactEvery <= 0 {
		cfg.CompactEvery = DefaultCompactEvery
	}
	if !cfg.ReadOnly {
		if err := os.MkdirAll(filepath.Join(cfg.Dir, "sessions"), 0o755); err != nil {
			return nil, err
		}
	}
	s := &Store{cfg: cfg, known: map[string]struct{}{}, clock: cfg.Clock}
	if s.clock == nil {
		s.clock = obsv.System()
	}
	for _, id := range s.scanSessions() {
		s.known[id] = struct{}{}
	}
	reg := cfg.Registry
	s.gSessions = reg.Gauge(obsv.MetricDurableSessions)
	s.gSessions.Add(int64(len(s.known)))
	s.spills = reg.CounterOrNew(obsv.MetricDurableSpills)
	s.spillBytes = reg.CounterOrNew(obsv.MetricDurableSpillBytes)
	s.rehydrations = reg.CounterOrNew(obsv.MetricDurableRehydrations)
	s.records = reg.CounterOrNew(obsv.MetricDurableJournalRecords)
	s.stalls = reg.CounterOrNew(obsv.MetricDurableStalls)
	return s, nil
}

// Dir returns the store's data directory.
func (s *Store) Dir() string { return s.cfg.Dir }

// ReadOnly reports whether the store was opened as a baseline only.
func (s *Store) ReadOnly() bool { return s.cfg.ReadOnly }

// sessionDir maps a session ID to its directory. Wire-valid IDs
// ([A-Za-z0-9._-]) are stored readably under an "s-" prefix — except
// "." and "..", which are wire-valid but filesystem-hostile — and
// anything else under a hex "x-" prefix; the distinct prefixes keep
// the two encodings from colliding.
func (s *Store) sessionDir(id string) string {
	name := "x-" + hex.EncodeToString([]byte(id))
	if id != "." && id != ".." && safeID(id) {
		name = "s-" + id
	}
	return filepath.Join(s.cfg.Dir, "sessions", name)
}

func safeID(id string) bool {
	if id == "" {
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

// decodeDirName inverts sessionDir's naming, returning ok=false for
// foreign entries.
func decodeDirName(name string) (string, bool) {
	if id, ok := strings.CutPrefix(name, "s-"); ok {
		return id, id != ""
	}
	if h, ok := strings.CutPrefix(name, "x-"); ok {
		b, err := hex.DecodeString(h)
		return string(b), err == nil && len(b) > 0
	}
	return "", false
}

// scanSessions lists the session IDs with on-disk state.
func (s *Store) scanSessions() []string {
	ents, err := os.ReadDir(filepath.Join(s.cfg.Dir, "sessions"))
	if err != nil {
		return nil
	}
	var ids []string
	for _, ent := range ents {
		if !ent.IsDir() {
			continue
		}
		if id, ok := decodeDirName(ent.Name()); ok {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	return ids
}

// Sessions returns the IDs of every session with on-disk state, in
// sorted order.
func (s *Store) Sessions() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := make([]string, 0, len(s.known))
	for id := range s.known {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Count returns the number of sessions with on-disk state — the
// spill-tier occupancy the pool reports alongside resident counts.
func (s *Store) Count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.known)
}

// Has reports whether session id has on-disk state.
func (s *Store) Has(id string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.known[id]
	return ok
}

// onDisk reports whether a session directory for id exists right now
// — state a different process over the same data directory may have
// written after this store's boot scan.
func (s *Store) onDisk(id string) bool {
	fi, err := os.Stat(s.sessionDir(id))
	return err == nil && fi.IsDir()
}

// Stats snapshots store activity.
func (s *Store) Stats() Stats {
	return Stats{
		Sessions:       s.Count(),
		Spills:         s.spills.Value(),
		SpillBytes:     s.spillBytes.Value(),
		Rehydrations:   s.rehydrations.Value(),
		JournalRecords: s.records.Value(),
	}
}

func (s *Store) markKnown(id string) {
	s.mu.Lock()
	if _, ok := s.known[id]; !ok {
		s.known[id] = struct{}{}
		s.gSessions.Add(1)
	}
	s.mu.Unlock()
}

func (s *Store) emit(kind, session string, attrs map[string]string) {
	if s.cfg.Events != nil {
		s.cfg.Events(kind, session, attrs)
	}
}

// --- adopting live backends ---

// chaosBackend is the slice of the fault injector the store needs:
// the stream cursor for snapshots, restore for rehydration.
type chaosBackend interface {
	Cursor() fault.Cursor
	Restore(fault.Cursor)
}

type innerer interface{ Inner() cloudapi.Backend }

// capture walks a backend chain down to the learned emulator, noting
// the outermost chaos layer on the way. Only chains terminating in
// *interp.Emulator are snapshottable; oracle, manual, and d2c
// backends keep native Go state the codec cannot see, so capture
// reports them as non-durable and the pool drops them on eviction.
func capture(b cloudapi.Backend) (*interp.Emulator, chaosBackend) {
	var chaos chaosBackend
	cur := b
	for depth := 0; depth < 8 && cur != nil; depth++ {
		if emu, ok := cur.(*interp.Emulator); ok {
			return emu, chaos
		}
		if c, ok := cur.(chaosBackend); ok && chaos == nil {
			chaos = c
		}
		u, ok := cur.(innerer)
		if !ok {
			return nil, nil
		}
		cur = u.Inner()
	}
	return nil, nil
}

// ErrSpilled is what a journaled session wrapper answers once the pool
// has evicted it: the wrapper no longer owns the session — its state is
// on disk, and possibly already rehydrated into a newer wrapper — so
// it executes nothing. A caller that resolved the backend before the
// eviction resolves it again through the pool and retries. Test for it
// with errors.Is: decorators around the wrapper pass it through.
var ErrSpilled = errors.New("durable: session was spilled; resolve it through the pool again")

// compactGrowth bounds a spilled session's segment relative to its
// state: a spill whose checkpoint would leave the segment larger than
// this many such checkpoints starts a fresh segment instead. It caps
// disk per session and bytes read per rehydrate at a fixed multiple of
// one checkpoint, at the price of one compaction (file + directory
// sync) every few spills.
const compactGrowth = 8

// Adopt wraps a freshly created backend for session id, restoring any
// state the store holds for it (a spilled world, or one left by a
// crashed process) and journaling every subsequent mutating call.
// ok=false means the backend is not snapshottable and is returned
// unwrapped. Adopt is the single rehydration path: crash recovery is
// lazy — Recover only scans and reports at boot, and each session's
// state is actually rebuilt here, on its first touch. ctx is the
// triggering request's context: when it carries an obsv.PhaseTimer,
// the rehydration (checkpoint decode + journal replay) is charged to
// that request as its "rehydrate" phase — the latency a cold session's
// first caller actually pays.
func (s *Store) Adopt(ctx context.Context, id string, b cloudapi.Backend) (cloudapi.Backend, bool) {
	emu, chaos := capture(b)
	if emu == nil {
		return b, false
	}
	sb := &sessionBackend{store: s, id: id, dir: s.sessionDir(id), inner: b, emu: emu, chaos: chaos}
	region := obsv.PhasesFrom(ctx).Start(obsv.PhaseRehydrate)
	jr, restored, err := s.rehydrate(sb)
	region.End()
	if s.cfg.ReadOnly {
		if err != nil {
			s.emit(EventJournalError, id, map[string]string{"error": err.Error()})
		}
		return sb, true
	}
	if err == nil {
		err = os.MkdirAll(sb.dir, 0o755)
	}
	if err == nil {
		err = jr.open()
	}
	if err != nil {
		s.emit(EventJournalError, id, map[string]string{"error": err.Error()})
		return b, false
	}
	sb.jr = jr
	s.markKnown(id)
	if chaos != nil && !restored {
		// First sight of a chaos-wrapped session: pin its derived seed
		// so a recovered process replays the same fault stream no
		// matter what order sessions are re-created in.
		sb.mu.Lock()
		sb.appendLocked(record{typ: recChaosInit, seed: chaos.Cursor().Seed}, nil)
		sb.mu.Unlock()
	}
	return sb, true
}

// rehydrate restores on-disk state for sb's session into its live
// backend: the newest checkpoint that decodes first, then every
// journal record newer than it, replayed through the full chain (chaos
// included — faulted calls must advance the injector's PRNG exactly as
// they did live). A directory in the layout before checkpoints were
// journal records is still read: with no checkpoint in the journal its
// snapshot.bin is the base. Returns the journal positioned to continue
// — last segment, next sequence number, not yet opened — and whether
// any state was restored. An error means the disk state could not be
// brought to a point appends can safely continue from.
func (s *Store) rehydrate(sb *sessionBackend) (*journal, bool, error) {
	jr := &journal{dir: sb.dir, fsync: s.cfg.Fsync}
	// An empty journal replays to the fresh world the factory built:
	// until something restores or appends, a spill has nothing to add.
	sb.clean = true
	if !s.Has(sb.id) && !s.onDisk(sb.id) {
		// Neither the boot-time scan nor the directory knows this
		// session: it is genuinely new. The disk check matters in
		// shared-data-dir clusters, where another node may have
		// journaled the session after this process booted — failover
		// adoption must find that state, not shadow it with a fresh
		// world.
		return jr, false, nil
	}
	res, err := readJournal(sb.dir)
	if err != nil {
		return nil, false, err
	}
	jr.segIdx, jr.ckptEnd, jr.seq = res.lastSeg, res.ckptEnd, res.maxSeq
	attrs := map[string]string{"checkpoint": "false"}
	var st *SessionState
	base := len(res.records)
	for st == nil && base > 0 {
		base--
		if res.records[base].typ != recCheckpoint {
			continue
		}
		// A frame whose CRC held but whose image does not decode was
		// written by an incompatible version; an older checkpoint plus
		// the records after it reach the same state.
		if st, err = DecodeSnapshot(res.records[base].snap); err != nil {
			attrs["checkpointError"] = err.Error()
		}
	}
	if st == nil {
		base = -1
		if data, err := os.ReadFile(filepath.Join(sb.dir, legacySnapshot)); err == nil {
			if st, err = DecodeSnapshot(data); err != nil {
				attrs["checkpointError"] = err.Error()
			}
		}
	}
	if st == nil && len(res.records) == 0 {
		return jr, false, nil
	}
	var lastSeq uint64
	if st != nil {
		attrs["checkpoint"] = "true"
		lastSeq = st.LastSeq
		if err := sb.emu.RestoreState(st.World); err != nil {
			return nil, false, err
		}
		if st.Chaos != nil && sb.chaos != nil {
			sb.chaos.Restore(*st.Chaos)
		}
	}
	applied, skipped := 0, 0
	for _, rec := range res.records {
		if rec.typ == recCheckpoint {
			continue
		}
		if rec.seq <= lastSeq {
			// Folded into the checkpoint: records an earlier spill left
			// in the segment, or a pre-compaction segment a crash kept
			// from being unlinked.
			skipped++
			continue
		}
		switch rec.typ {
		case recChaosInit:
			if sb.chaos != nil {
				sb.chaos.Restore(fault.Cursor{Seed: rec.seed})
			}
		case recCall:
			sb.inner.Invoke(cloudapi.Request{Action: rec.action, Params: rec.params, Ctx: context.Background()})
		case recReset:
			sb.inner.Reset()
		}
		applied++
	}
	sb.recsSinceCkpt = applied
	sb.clean = applied == 0 && base == len(res.records)-1
	attrs["records"] = strconv.Itoa(applied)
	if skipped > 0 {
		attrs["skipped"] = strconv.Itoa(skipped)
	}
	if res.dropReason != "" {
		attrs["dropped"] = res.dropReason
		attrs["droppedBytes"] = strconv.FormatInt(res.droppedBytes, 10)
		attrs["droppedSegment"] = segName(res.lastSeg)
		if !s.cfg.ReadOnly {
			// The damaged frame and everything after it were not
			// replayed, so they must not survive into a future
			// recovery — and appends continue this segment, so they
			// must land right after its last valid frame: trim the torn
			// segment to its valid prefix and delete the segments past
			// it.
			if err := os.Truncate(filepath.Join(sb.dir, segName(res.lastSeg)), res.validPrefix); err != nil {
				return nil, false, err
			}
			dropSegmentsAfter(sb.dir, res.lastSeg)
		}
	}
	s.rehydrations.Inc()
	s.emit(EventRehydrated, sb.id, attrs)
	if lastSeq > jr.seq {
		jr.seq = lastSeq
	}
	return jr, true, nil
}

// Spill persists session id's state so the pool can release the
// resident world: a checkpoint record appended to the session's
// journal and synced per policy — one write, at most one fsync — or,
// when that would leave the segment past its size bounds, a fresh
// segment opening with the checkpoint (compaction). A session with
// nothing new since its last checkpoint (rehydrated, served only
// describes, evicted) writes and syncs nothing. Returns the bytes
// written. Errors mean the state could not be persisted (non-durable
// backend, read-only store, disk failure) and the eviction is a plain
// drop. Either way the wrapper answers ErrSpilled from here on.
func (s *Store) Spill(id string, b cloudapi.Backend) (int64, error) {
	sb, ok := b.(*sessionBackend)
	if !ok {
		return 0, fmt.Errorf("durable: session %q backend is not snapshottable", id)
	}
	if s.cfg.ReadOnly {
		return 0, fmt.Errorf("durable: store is read-only")
	}
	sb.mu.Lock()
	defer sb.mu.Unlock()
	sb.spilled = true
	var n int64
	var compacted bool
	var err error
	t0 := sb.stallStart()
	if !sb.clean {
		n, compacted, err = sb.checkpointLocked(false)
	}
	if cerr := sb.jr.closeSegment(); err == nil {
		err = cerr
	}
	sb.stallEnd(t0)
	if err != nil {
		return 0, err
	}
	s.spills.Inc()
	s.spillBytes.Add(n)
	s.emit(EventSpilled, id, map[string]string{
		"bytes":     strconv.FormatInt(n, 10),
		"compacted": strconv.FormatBool(compacted),
	})
	return n, nil
}

// Forget deletes session id's on-disk state (the durable side of
// Pool.Drop).
func (s *Store) Forget(id string) {
	if s.cfg.ReadOnly {
		return
	}
	os.RemoveAll(s.sessionDir(id))
	s.mu.Lock()
	if _, ok := s.known[id]; ok {
		delete(s.known, id)
		s.gSessions.Add(-1)
	}
	s.mu.Unlock()
}

// RecoveredSession describes one session found on disk at boot.
type RecoveredSession struct {
	ID       string
	Segments int
}

// Recover scans the data directory and reports every persisted
// session, emitting recovery.* events. It restores nothing itself:
// recovery is lazy, each session rehydrating through Adopt on its
// first touch — the same path a spilled session takes — so boot cost
// is one directory walk regardless of how much state is on disk.
func (s *Store) Recover() []RecoveredSession {
	ids := s.Sessions()
	s.emit(EventRecoveryScan, "", map[string]string{"sessions": strconv.Itoa(len(ids))})
	out := make([]RecoveredSession, 0, len(ids))
	for _, id := range ids {
		rs := RecoveredSession{ID: id}
		if segs, err := listSegments(s.sessionDir(id)); err == nil {
			rs.Segments = len(segs)
		}
		out = append(out, rs)
		s.emit(EventRecoverySess, id, map[string]string{"segments": strconv.Itoa(rs.Segments)})
	}
	s.emit(EventRecoveryDone, "", map[string]string{"sessions": strconv.Itoa(len(ids))})
	return out
}

// --- the journaled session wrapper ---

// sessionBackend wraps one session's backend chain with write-ahead
// journaling: each mutating call is framed to the journal before it
// executes, under one mutex, so journal order is execution order and a
// crash after the append replays the call recovery-side (redo
// logging). The mutex serializes calls per session — the same
// serialization the emulator's own invoke mutex already imposes.
type sessionBackend struct {
	store *Store
	id    string
	dir   string
	inner cloudapi.Backend
	emu   *interp.Emulator
	chaos chaosBackend

	mu sync.Mutex
	// jr is nil in a read-only store. Its segment is closed (not live)
	// once the wrapper is spilled or a write has failed; a failed
	// journal keeps its sequence counter, so a later checkpoint still
	// records the true coverage point.
	jr *journal
	// spilled: the pool evicted this wrapper. It refuses every call.
	spilled bool
	// clean: the journal ends in a checkpoint of the current state —
	// or is empty under a fresh world — so a spill has nothing to add.
	clean bool
	// recsSinceCkpt counts the records a recovery would replay.
	recsSinceCkpt int
}

// Service implements cloudapi.Backend.
func (sb *sessionBackend) Service() string { return sb.inner.Service() }

// Actions implements cloudapi.Backend.
func (sb *sessionBackend) Actions() []string { return sb.inner.Actions() }

// Invoke implements cloudapi.Backend: journal the call, execute it,
// compact if the journal has grown past its bounds. A describe cannot
// change the world (the interpreter rejects write() and call() in
// one), so for a session with no chaos layer — whose PRNG would
// advance on reads too — replay has nothing to reproduce and the call
// skips the journal altogether.
func (sb *sessionBackend) Invoke(req cloudapi.Request) (cloudapi.Result, error) {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	if sb.spilled {
		return nil, ErrSpilled
	}
	if sb.chaos == nil && sb.emu.ReadOnly(req.Action) {
		return sb.inner.Invoke(req)
	}
	pt := obsv.PhasesFrom(req.Ctx)
	region := pt.Start(obsv.PhaseJournalAppend)
	sb.appendLocked(record{typ: recCall, action: req.Action, params: req.Params}, pt)
	region.End()
	res, err := sb.inner.Invoke(req)
	sb.maybeCompactLocked()
	return res, err
}

// Reset implements cloudapi.Backend, journaling the reset so replay
// reproduces it (the chaos stream deliberately continues across
// Reset, matching the injector's own semantics). The interface gives
// Reset no way to answer ErrSpilled, so on a spilled wrapper it does
// nothing; tenant.Pool.ResetCtx resets under the lock evictions take
// and therefore never reaches one.
func (sb *sessionBackend) Reset() {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	if sb.spilled {
		return
	}
	sb.appendLocked(record{typ: recReset}, nil)
	sb.inner.Reset()
	sb.maybeCompactLocked()
}

// stallStart and stallEnd bracket one journal write for the stall
// watchdog, on the store clock: past the threshold stallEnd emits a
// "durable.stall" event and bumps lce_durable_stalls_total, the
// operator's early warning that the disk is the bottleneck — visible
// even when no client is watching latency.
func (sb *sessionBackend) stallStart() time.Time { return sb.store.clock.Now() }

func (sb *sessionBackend) stallEnd(t0 time.Time) {
	s := sb.store
	if d := s.clock.Now().Sub(t0); d >= stallThreshold {
		s.stalls.Inc()
		s.emit(EventStall, sb.id, map[string]string{
			"durationNs":  strconv.FormatInt(d.Nanoseconds(), 10),
			"thresholdNs": strconv.FormatInt(stallThreshold.Nanoseconds(), 10),
		})
	}
}

// appendLocked writes one journal record, counting it toward the
// compaction interval. A write failure (disk full, closed file)
// disables journaling for the session — it keeps serving from RAM,
// the failure is surfaced once, and its eviction makes one more
// attempt to persist the state, as a compaction. pt, when non-nil,
// receives the fsync portion as its own phase. The stall watchdog
// times the whole append (frame + write + sync).
func (sb *sessionBackend) appendLocked(rec record, pt *obsv.PhaseTimer) {
	sb.clean = false
	if !sb.jr.live() {
		return
	}
	t0 := sb.stallStart()
	err := sb.jr.append(rec, pt)
	sb.stallEnd(t0)
	if err != nil {
		sb.jr.closeSegment()
		sb.store.emit(EventJournalError, sb.id, map[string]string{"error": err.Error()})
		return
	}
	sb.recsSinceCkpt++
	sb.store.records.Inc()
}

// maybeCompactLocked compacts once a recovery would have CompactEvery
// records, or segmentMaxBytes of them, to replay.
func (sb *sessionBackend) maybeCompactLocked() {
	jr, cfg := sb.jr, &sb.store.cfg
	if !jr.live() || (sb.recsSinceCkpt < cfg.CompactEvery && jr.segSize-jr.ckptEnd < segmentMaxBytes) {
		return
	}
	if _, _, err := sb.checkpointLocked(true); err != nil {
		sb.store.emit(EventJournalError, sb.id, map[string]string{"error": err.Error()})
		jr.closeSegment()
	}
}

// checkpointLocked writes the session's current state as a checkpoint
// record: appended to the live segment (the caller syncs or closes
// it), or — when compact is set, the journal is not live, or the
// append would leave the segment larger than compactGrowth such
// checkpoints or segmentMaxBytes — as the synced first record of a
// fresh segment, after which everything older is unlinked. Returns
// the bytes written and whether it compacted.
func (sb *sessionBackend) checkpointLocked(compact bool) (int64, bool, error) {
	jr := sb.jr
	st := &SessionState{LastSeq: jr.seq + 1, World: sb.emu.ExportState()}
	if sb.chaos != nil {
		c := sb.chaos.Cursor()
		st.Chaos = &c
	}
	frame := checkpointFrame(st)
	n := int64(len(frame))
	grown := jr.segSize + n
	compact = compact || !jr.live() || grown > compactGrowth*n || grown > segmentMaxBytes
	var err error
	if compact {
		err = jr.compact(frame)
	} else {
		err = jr.write(frame)
	}
	if err != nil {
		return 0, compact, err
	}
	jr.seq, jr.ckptEnd = st.LastSeq, jr.segSize
	sb.recsSinceCkpt, sb.clean = 0, true
	sb.store.records.Inc()
	return n, compact, nil
}
