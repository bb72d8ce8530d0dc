package durable

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"lce/internal/cloudapi"
	"lce/internal/cloudapi/cloudapitest"
	"lce/internal/fault"
	"lce/internal/interp"
	"lce/internal/obsv"
	"lce/internal/spec"
	"lce/internal/tenant"
)

func newToyEmu(t testing.TB) *interp.Emulator {
	t.Helper()
	svc, err := spec.Parse(spec.ToySource)
	if err != nil {
		t.Fatalf("Parse(ToySource): %v", err)
	}
	if errs := spec.Check(svc, spec.Strict); len(errs) > 0 {
		t.Fatalf("Check(ToySource): %v", errs)
	}
	emu, err := interp.New(svc)
	if err != nil {
		t.Fatalf("interp.New: %v", err)
	}
	return emu
}

// toyCalls is a deterministic call script; toyCall applies step i of it
// to any backend. The script mixes creates (which advance the ID
// generator — lost or duplicated replay shifts every later ID) with a
// failing call (parameter assert), so both outcomes are covered.
func toyCall(b cloudapi.Backend, i int) (cloudapi.Result, error) {
	switch i % 4 {
	case 0:
		return b.Invoke(cloudapi.Request{Action: "CreatePublicIp", Params: cloudapi.Params{"region": cloudapi.Str("us-east")}})
	case 1:
		return b.Invoke(cloudapi.Request{Action: "CreateNic", Params: cloudapi.Params{"zone": cloudapi.Str("us-west")}})
	case 2:
		return b.Invoke(cloudapi.Request{Action: "CreatePublicIp", Params: cloudapi.Params{"region": cloudapi.Str("mars")}}) // InvalidParameterValue
	default:
		return b.Invoke(cloudapi.Request{Action: "CreatePublicIp", Params: cloudapi.Params{"region": cloudapi.Str("us-west")}})
	}
}

// controlState returns the world an unkilled backend holds after the
// first n script steps.
func controlState(t testing.TB, n int) interp.WorldState {
	t.Helper()
	emu := newToyEmu(t)
	for i := 0; i < n; i++ {
		toyCall(emu, i)
	}
	return emu.ExportState()
}

// eventSink collects store events for assertions.
type eventSink struct {
	mu     sync.Mutex
	events []sinkEvent
}

type sinkEvent struct {
	kind, session string
	attrs         map[string]string
}

func (s *eventSink) hook() func(kind, session string, attrs map[string]string) {
	return func(kind, session string, attrs map[string]string) {
		s.mu.Lock()
		s.events = append(s.events, sinkEvent{kind, session, attrs})
		s.mu.Unlock()
	}
}

func (s *eventSink) last(kind string) (sinkEvent, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := len(s.events) - 1; i >= 0; i-- {
		if s.events[i].kind == kind {
			return s.events[i], true
		}
	}
	return sinkEvent{}, false
}

func openTest(t testing.TB, dir string, mut func(*Config)) (*Store, *eventSink) {
	t.Helper()
	sink := &eventSink{}
	cfg := Config{Dir: dir, Fsync: FsyncOff, Events: sink.hook()}
	if mut != nil {
		mut(&cfg)
	}
	s, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return s, sink
}

func adoptEmu(t testing.TB, s *Store, id string) (cloudapi.Backend, *interp.Emulator) {
	t.Helper()
	emu := newToyEmu(t)
	b, ok := s.Adopt(context.Background(), id, emu)
	if !ok {
		t.Fatalf("Adopt(%s): not snapshottable", id)
	}
	return b, emu
}

func TestCrashRecoveryJournalOnly(t *testing.T) {
	dir := t.TempDir()
	s1, _ := openTest(t, dir, nil)
	b1, emu1 := adoptEmu(t, s1, "alice")
	const n = 6
	for i := 0; i < n; i++ {
		toyCall(b1, i)
	}
	// Crash: the process dies with no checkpoint ever written —
	// recovery has only the call records.
	s2, sink := openTest(t, dir, nil)
	if got := s2.Sessions(); !reflect.DeepEqual(got, []string{"alice"}) {
		t.Fatalf("recovered sessions = %v", got)
	}
	rec := s2.Recover()
	if len(rec) != 1 || rec[0].ID != "alice" || rec[0].Segments != 1 {
		t.Fatalf("Recover() = %+v", rec)
	}
	b2, emu2 := adoptEmu(t, s2, "alice")
	if got, want := emu2.ExportState(), emu1.ExportState(); !cloudapitest.DeepEqual(got, want) {
		t.Fatalf("recovered state differs:\n got %+v\nwant %+v", got, want)
	}
	ev, ok := sink.last(EventRehydrated)
	if !ok || ev.attrs["checkpoint"] != "false" || ev.attrs["records"] != fmt.Sprint(n) {
		t.Errorf("rehydrated event = %+v", ev)
	}
	// The recovered session keeps answering in sequence: the next
	// create continues the journaled ID space.
	gr, ge := toyCall(b2, n)
	cr := newToyEmu(t)
	for i := 0; i <= n; i++ {
		if i == n {
			wr, we := toyCall(cr, i)
			if !cloudapitest.DeepEqual(gr, wr) || !cloudapitest.DeepEqual(ge, we) {
				t.Errorf("post-recovery call diverged: (%v, %v) != (%v, %v)", gr, ge, wr, we)
			}
		} else {
			toyCall(cr, i)
		}
	}
}

func TestSpillRehydrateRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, sink := openTest(t, dir, nil)
	b1, emu1 := adoptEmu(t, s, "bob")
	for i := 0; i < 5; i++ {
		toyCall(b1, i)
	}
	n, err := s.Spill("bob", b1)
	if err != nil {
		t.Fatalf("Spill: %v", err)
	}
	if n <= 0 {
		t.Fatalf("Spill wrote %d bytes", n)
	}
	if !s.Has("bob") || s.Count() != 1 {
		t.Fatalf("spilled session not tracked: has=%v count=%d", s.Has("bob"), s.Count())
	}
	if ev, ok := sink.last(EventSpilled); !ok || ev.session != "bob" || ev.attrs["bytes"] != fmt.Sprint(n) || ev.attrs["compacted"] != "false" {
		t.Errorf("spilled event = %+v", ev)
	}
	// The journal is all the session has on disk: one segment, whose
	// last record is the checkpoint.
	if got := dirListing(t, s.sessionDir("bob")); len(got) != 1 || !strings.HasPrefix(got[0], segName(1)+":") {
		t.Errorf("session directory after spill: %v", got)
	}

	_, emu2 := adoptEmu(t, s, "bob")
	if got, want := emu2.ExportState(), emu1.ExportState(); !cloudapitest.DeepEqual(got, want) {
		t.Fatalf("rehydrated state differs:\n got %+v\nwant %+v", got, want)
	}
	if ev, ok := sink.last(EventRehydrated); !ok || ev.attrs["checkpoint"] != "true" || ev.attrs["records"] != "0" {
		t.Errorf("rehydrated event = %+v", ev)
	}
	st := s.Stats()
	if st.Spills != 1 || st.Rehydrations != 1 || st.SpillBytes != n || st.JournalRecords == 0 {
		t.Errorf("stats = %+v", st)
	}

	// Spilling a backend the store never adopted is an error — that
	// eviction must be a plain drop.
	if _, err := s.Spill("carol", newToyEmu(t)); err == nil {
		t.Error("Spill of unadopted backend succeeded")
	}
}

func TestTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	s1, _ := openTest(t, dir, nil)
	b1, _ := adoptEmu(t, s1, "torn")
	const n = 6
	for i := 0; i < n; i++ {
		toyCall(b1, i)
	}
	// Tear the tail: clip the last record's CRC, as a crash between
	// write and sync would.
	seg := onlySegment(t, s1.sessionDir("torn"))
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	s2, sink := openTest(t, dir, nil)
	_, emu2 := adoptEmu(t, s2, "torn")
	if got, want := emu2.ExportState(), controlState(t, n-1); !cloudapitest.DeepEqual(got, want) {
		t.Fatalf("torn-tail recovery: state is not the %d-call prefix", n-1)
	}
	ev, ok := sink.last(EventRehydrated)
	if !ok || !strings.Contains(ev.attrs["dropped"], "torn tail") || ev.attrs["droppedBytes"] == "0" {
		t.Fatalf("rehydrated event = %+v", ev)
	}

	// Recovery trimmed the damage, so a second crash-recover lands on
	// exactly the same state — the tear cannot re-surface.
	s3, sink3 := openTest(t, dir, nil)
	_, emu3 := adoptEmu(t, s3, "torn")
	if !cloudapitest.DeepEqual(emu3.ExportState(), emu2.ExportState()) {
		t.Fatal("second recovery diverged from first")
	}
	if ev, ok := sink3.last(EventRehydrated); !ok || ev.attrs["dropped"] != "" {
		t.Errorf("trim did not stick: %+v", ev)
	}
}

func TestCRCCorruptionMidSegment(t *testing.T) {
	dir := t.TempDir()
	s1, _ := openTest(t, dir, nil)
	b1, _ := adoptEmu(t, s1, "crc")
	const n = 6
	for i := 0; i < n; i++ {
		toyCall(b1, i)
	}
	// Flip one byte inside the 4th record's payload: recovery must
	// stop after the 3rd — records past a damaged frame are unordered
	// garbage even when their own CRCs check out.
	seg := onlySegment(t, s1.sessionDir("crc"))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	off := 0
	for i := 0; i < 3; i++ {
		_, consumed, reason := decodeFrame(data[off:])
		if reason != "" {
			t.Fatalf("control decode of record %d: %s", i+1, reason)
		}
		off += consumed
	}
	data[off+6] ^= 0xff
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, sink := openTest(t, dir, nil)
	_, emu2 := adoptEmu(t, s2, "crc")
	if got, want := emu2.ExportState(), controlState(t, 3); !cloudapitest.DeepEqual(got, want) {
		t.Fatal("mid-segment corruption: state is not the 3-call prefix")
	}
	ev, ok := sink.last(EventRehydrated)
	if !ok || !strings.Contains(ev.attrs["dropped"], "crc mismatch") || ev.attrs["records"] != "3" {
		t.Fatalf("rehydrated event = %+v", ev)
	}
	if fi, err := os.Stat(seg); err != nil || fi.Size() != int64(off) {
		t.Errorf("damaged segment not trimmed to valid prefix: size=%v off=%d err=%v", fi.Size(), off, err)
	}
}

func TestDuplicateReplayAfterPartialCompaction(t *testing.T) {
	dir := t.TempDir()
	s1, _ := openTest(t, dir, func(c *Config) { c.CompactEvery = 4 })
	b1, _ := adoptEmu(t, s1, "dup")
	for i := 0; i < 3; i++ {
		toyCall(b1, i)
	}
	// Save the pre-compaction segment (records 1–3), let the 4th call
	// trigger compaction (a fresh segment opening with the checkpoint,
	// seq 5; old segment deleted), then put the stale segment back — the
	// state a crash between the new segment's sync and the unlink leaves
	// behind.
	seg1 := onlySegment(t, s1.sessionDir("dup"))
	stale, err := os.ReadFile(seg1)
	if err != nil {
		t.Fatal(err)
	}
	toyCall(b1, 3)
	if seg2 := onlySegment(t, s1.sessionDir("dup")); seg2 == seg1 {
		t.Fatalf("compaction did not start a fresh segment: still %s", seg1)
	}
	if err := os.WriteFile(seg1, stale, 0o644); err != nil {
		t.Fatal(err)
	}
	toyCall(b1, 4) // seq 6, lands after the checkpoint

	s2, sink := openTest(t, dir, nil)
	b2, emu2 := adoptEmu(t, s2, "dup")
	if got, want := emu2.ExportState(), controlState(t, 5); !cloudapitest.DeepEqual(got, want) {
		t.Fatal("stale pre-compaction segment was double-applied")
	}
	ev, ok := sink.last(EventRehydrated)
	if !ok || ev.attrs["checkpoint"] != "true" || ev.attrs["skipped"] != "3" || ev.attrs["records"] != "1" {
		t.Fatalf("rehydrated event = %+v", ev)
	}
	// The recovered session appends to the newest segment, and its next
	// compaction clears the stale one away.
	if _, err := s2.Spill("dup", b2); err != nil {
		t.Fatal(err)
	}
	b3, _ := adoptEmu(t, s2, "dup")
	if err := RestoreBackend(b3, mustExport(t, b3)); err != nil { // forces a compaction
		t.Fatal(err)
	}
	if _, err := os.Stat(seg1); !os.IsNotExist(err) {
		t.Errorf("stale segment survived a compaction: %v", err)
	}
	onlySegment(t, s2.sessionDir("dup"))
}

// TestCrashBetweenSegmentSyncAndUnlink is the other half of the
// compaction crash window, produced by hand rather than by restoring a
// file: the new segment (checkpoint + later records) and the complete
// old one sit side by side, exactly as a crash after the directory
// sync and before the unlink leaves them.
func TestCrashBetweenSegmentSyncAndUnlink(t *testing.T) {
	dir := t.TempDir()
	s1, _ := openTest(t, dir, nil)
	b1, _ := adoptEmu(t, s1, "win")
	const n = 5
	for i := 0; i < n; i++ {
		toyCall(b1, i)
	}
	sdir := s1.sessionDir("win")
	old, err := os.ReadFile(onlySegment(t, sdir))
	if err != nil {
		t.Fatal(err)
	}
	if err := RestoreBackend(b1, mustExport(t, b1)); err != nil { // forces a compaction
		t.Fatal(err)
	}
	toyCall(b1, n)
	if err := os.WriteFile(filepath.Join(sdir, segName(1)), old, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, sink := openTest(t, dir, nil)
	b2, emu2 := adoptEmu(t, s2, "win")
	if !cloudapitest.DeepEqual(emu2.ExportState(), controlState(t, n+1)) {
		t.Fatal("recovery over old+new segments differs from the control")
	}
	if ev, _ := sink.last(EventRehydrated); ev.attrs["skipped"] != fmt.Sprint(n) || ev.attrs["records"] != "1" || ev.attrs["dropped"] != "" {
		t.Fatalf("rehydrated event = %+v", ev)
	}
	// Appends continue the new segment, not the stale one.
	toyCall(b2, n+1)
	if fi, err := os.Stat(filepath.Join(sdir, segName(1))); err != nil || fi.Size() != int64(len(old)) {
		t.Errorf("stale segment was appended to: %v %v", fi, err)
	}
	s3, _ := openTest(t, dir, nil)
	_, emu3 := adoptEmu(t, s3, "win")
	if !cloudapitest.DeepEqual(emu3.ExportState(), controlState(t, n+2)) {
		t.Fatal("second recovery differs from the control")
	}
}

// TestTornCheckpointTail: a crash mid-spill leaves half a checkpoint
// at the end of the segment. The frame fails its CRC, recovery lands on
// the state at the previous record — all of which are still there,
// because a spill deletes nothing — and trims the tear.
func TestTornCheckpointTail(t *testing.T) {
	dir := t.TempDir()
	s1, _ := openTest(t, dir, nil)
	b1, _ := adoptEmu(t, s1, "torn")
	const n = 6
	for i := 0; i < n; i++ {
		toyCall(b1, i)
	}
	seg := onlySegment(t, s1.sessionDir("torn"))
	before, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Spill("torn", b1); err != nil {
		t.Fatal(err)
	}
	after, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, (before.Size()+after.Size())/2); err != nil {
		t.Fatal(err)
	}

	s2, sink := openTest(t, dir, nil)
	b2, emu2 := adoptEmu(t, s2, "torn")
	if !cloudapitest.DeepEqual(emu2.ExportState(), controlState(t, n)) {
		t.Fatal("torn checkpoint: state is not the control at the previous record")
	}
	ev, _ := sink.last(EventRehydrated)
	if ev.attrs["checkpoint"] != "false" || !strings.Contains(ev.attrs["dropped"], "torn tail") || ev.attrs["records"] != fmt.Sprint(n) {
		t.Fatalf("rehydrated event = %+v", ev)
	}
	if fi, err := os.Stat(seg); err != nil || fi.Size() != before.Size() {
		t.Errorf("tear not trimmed to the valid prefix: %v %v", fi, err)
	}
	// The next record lands right after the last good one.
	toyCall(b2, n)
	s3, sink3 := openTest(t, dir, nil)
	_, emu3 := adoptEmu(t, s3, "torn")
	if !cloudapitest.DeepEqual(emu3.ExportState(), controlState(t, n+1)) {
		t.Fatal("append after a trimmed tear did not recover")
	}
	if ev, _ := sink3.last(EventRehydrated); ev.attrs["dropped"] != "" {
		t.Errorf("trim did not stick: %+v", ev)
	}
}

// TestBitFlippedCheckpointMidSegment: a checkpoint in the middle of the
// journal rots. Recovery must stop at the valid prefix before it — an
// earlier checkpoint plus the records up to the damage — and drop
// everything after, later segments included, never reading past the
// damaged frame.
func TestBitFlippedCheckpointMidSegment(t *testing.T) {
	dir := t.TempDir()
	s1, _ := openTest(t, dir, nil)
	b, _ := adoptEmu(t, s1, "rot")
	step := 0
	run := func(k int) {
		for ; k > 0; k-- {
			toyCall(b, step)
			step++
		}
	}
	respill := func() int64 {
		t.Helper()
		if _, err := s1.Spill("rot", b); err != nil {
			t.Fatal(err)
		}
		fi, err := os.Stat(onlySegment(t, s1.sessionDir("rot")))
		if err != nil {
			t.Fatal(err)
		}
		b, _ = adoptEmu(t, s1, "rot")
		return fi.Size()
	}
	run(2)
	respill() // checkpoint A
	run(2)
	endOfCalls := func() int64 {
		fi, err := os.Stat(onlySegment(t, s1.sessionDir("rot")))
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}()
	respill() // checkpoint B: the one that rots
	run(2)
	seg := onlySegment(t, s1.sessionDir("rot"))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[endOfCalls+12] ^= 0xff
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	// A later segment, as a compaction racing the rot would leave.
	later := filepath.Join(s1.sessionDir("rot"), segName(2))
	if err := os.WriteFile(later, data[:endOfCalls], 0o644); err != nil {
		t.Fatal(err)
	}

	s2, sink := openTest(t, dir, nil)
	_, emu2 := adoptEmu(t, s2, "rot")
	if !cloudapitest.DeepEqual(emu2.ExportState(), controlState(t, 4)) {
		t.Fatal("rotted checkpoint: state is not checkpoint A plus the two calls before the damage")
	}
	ev, _ := sink.last(EventRehydrated)
	if ev.attrs["checkpoint"] != "true" || ev.attrs["records"] != "2" || !strings.Contains(ev.attrs["dropped"], "crc mismatch") {
		t.Fatalf("rehydrated event = %+v", ev)
	}
	if fi, err := os.Stat(seg); err != nil || fi.Size() != endOfCalls {
		t.Errorf("damaged segment not trimmed to its valid prefix: %v %v", fi, err)
	}
	if _, err := os.Stat(later); !os.IsNotExist(err) {
		t.Errorf("segment past the damage survived: %v", err)
	}
}

// parentLayout rewrites a spilled session's directory into the layout
// before checkpoints were journal records: the state in snapshot.bin,
// and a journal segment holding only the records after it.
func parentLayout(t *testing.T, sdir string, st *SessionState, tail func(j *journal)) {
	t.Helper()
	if err := os.RemoveAll(sdir); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(sdir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(sdir, legacySnapshot), EncodeSnapshot(st), 0o644); err != nil {
		t.Fatal(err)
	}
	j := &journal{dir: sdir, fsync: FsyncOff, segIdx: 2, seq: st.LastSeq}
	if err := j.open(); err != nil {
		t.Fatal(err)
	}
	tail(j)
	if err := j.closeSegment(); err != nil {
		t.Fatal(err)
	}
}

// TestParentLayoutDirectory: a data directory written before this
// format still recovers — snapshot.bin as the base, the segment's
// records on top — and the first compaction folds it into the new
// layout, deleting the legacy file.
func TestParentLayoutDirectory(t *testing.T) {
	dir := t.TempDir()
	s1, _ := openTest(t, dir, nil)
	sdir := s1.sessionDir("old")
	parentLayout(t, sdir, &SessionState{LastSeq: 3, World: controlState(t, 3)}, func(j *journal) {
		for i := 3; i < 5; i++ {
			toyCall(journalOnly{j}, i)
		}
	})

	s2, sink := openTest(t, dir, func(c *Config) { c.CompactEvery = 4 })
	b, emu := adoptEmu(t, s2, "old")
	if !cloudapitest.DeepEqual(emu.ExportState(), controlState(t, 5)) {
		t.Fatal("parent-layout directory did not recover to the control")
	}
	if ev, _ := sink.last(EventRehydrated); ev.attrs["checkpoint"] != "true" || ev.attrs["records"] != "2" {
		t.Fatalf("rehydrated event = %+v", ev)
	}
	// A spill appends a checkpoint beside the legacy file; only a
	// compaction removes it.
	if _, err := s2.Spill("old", b); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(sdir, legacySnapshot)); err != nil {
		t.Fatalf("legacy snapshot gone before any compaction: %v", err)
	}
	b, emu = adoptEmu(t, s2, "old")
	if !cloudapitest.DeepEqual(emu.ExportState(), controlState(t, 5)) {
		t.Fatal("rehydrate from the appended checkpoint differs")
	}
	for i := 5; i < 9; i++ { // CompactEvery = 4
		toyCall(b, i)
	}
	if got := dirListing(t, sdir); len(got) != 1 || !strings.HasPrefix(got[0], segName(3)+":") {
		t.Fatalf("after the first compaction the directory holds %v, want only %s", got, segName(3))
	}
	s3, _ := openTest(t, dir, nil)
	_, emu3 := adoptEmu(t, s3, "old")
	if !cloudapitest.DeepEqual(emu3.ExportState(), controlState(t, 9)) {
		t.Fatal("recovery after folding the parent layout differs from the control")
	}
}

// journalOnly is a backend that only journals: toyCall through it
// writes the script's call records without executing them.
type journalOnly struct{ j *journal }

func (journalOnly) Service() string   { return "toy" }
func (journalOnly) Actions() []string { return nil }
func (journalOnly) Reset()            {}
func (b journalOnly) Invoke(req cloudapi.Request) (cloudapi.Result, error) {
	return nil, b.j.append(record{typ: recCall, action: req.Action, params: req.Params}, nil)
}

func TestChaosSessionRecovery(t *testing.T) {
	// A chaos-wrapped session: the injector's PRNG advances on every
	// call (faulted ones included), so recovery must land the stream
	// cursor exactly where the crash left it.
	cfg := fault.Uniform(0.4, 99)
	dir := t.TempDir()
	s1, _ := openTest(t, dir, nil)
	live := fault.New(newToyEmu(t), cfg)
	b1, ok := s1.Adopt(context.Background(), "chaos", live)
	if !ok {
		t.Fatal("chaos-wrapped emulator not snapshottable")
	}
	const n = 12
	for i := 0; i < n; i++ {
		toyCall(b1, i)
	}
	// Crash and recover into a *fresh* injector with a different seed:
	// the journaled chaos-init record must pin the original stream.
	s2, _ := openTest(t, dir, nil)
	b2, ok := s2.Adopt(context.Background(), "chaos", fault.New(newToyEmu(t), fault.Uniform(0.4, 12345)))
	if !ok {
		t.Fatal("recovered chaos backend not snapshottable")
	}
	// Control: same script, never killed.
	control := fault.New(newToyEmu(t), cfg)
	for i := 0; i < n; i++ {
		toyCall(control, i)
	}
	for i := n; i < n+8; i++ {
		gr, ge := toyCall(b2, i)
		wr, we := toyCall(control, i)
		if !cloudapitest.DeepEqual(gr, wr) || !cloudapitest.DeepEqual(ge, we) {
			t.Fatalf("call %d diverged after recovery: (%v, %v) != (%v, %v)", i, gr, ge, wr, we)
		}
	}
}

func TestReadOnlyStore(t *testing.T) {
	dir := t.TempDir()
	s1, _ := openTest(t, dir, nil)
	b1, emu1 := adoptEmu(t, s1, "ro")
	for i := 0; i < 5; i++ {
		toyCall(b1, i)
	}
	if _, err := s1.Spill("ro", b1); err != nil {
		t.Fatal(err)
	}
	before := dirListing(t, dir)

	s2, sink := openTest(t, dir, func(c *Config) { c.ReadOnly = true })
	b2, emu2 := adoptEmu(t, s2, "ro")
	if !cloudapitest.DeepEqual(emu2.ExportState(), emu1.ExportState()) {
		t.Fatal("read-only rehydration differs")
	}
	if ev, _ := sink.last(EventRehydrated); ev.attrs["checkpoint"] != "true" || ev.attrs["records"] != "0" {
		t.Errorf("read-only store did not rehydrate from the checkpoint: %+v", ev)
	}
	// Calls are served and nothing is written.
	if _, err := toyCall(b2, 5); err != nil {
		t.Errorf("call on a read-only store's session: %v", err)
	}
	if _, err := s2.Spill("ro", b1); err == nil {
		t.Error("Spill succeeded on a read-only store")
	}
	s2.Forget("ro")
	if !s2.Has("ro") {
		t.Error("Forget mutated a read-only store")
	}
	if after := dirListing(t, dir); !reflect.DeepEqual(after, before) {
		t.Errorf("read-only store touched the directory:\nbefore %v\nafter  %v", before, after)
	}
}

func TestAdoptNonSnapshottable(t *testing.T) {
	s, _ := openTest(t, t.TempDir(), nil)
	nb := opaqueBackend{}
	if b, ok := s.Adopt(context.Background(), "x", nb); ok || b != cloudapi.Backend(nb) {
		t.Fatalf("Adopt of an opaque backend: ok=%v", ok)
	}
	if s.Count() != 0 {
		t.Errorf("opaque adopt left on-disk state")
	}
}

// TestPoolSpillTransparency is the satellite acceptance check: a
// capacity-2 pool backed by the spill tier must answer exactly like an
// effectively unlimited pool, even though its sessions are constantly
// spilled and rehydrated between touches.
func TestPoolSpillTransparency(t *testing.T) {
	store, _ := openTest(t, t.TempDir(), nil)
	factory := func() cloudapi.Backend { return newToyEmu(t) }
	limited, err := tenant.New(factory, tenant.Config{Shards: 1, Capacity: 2, Spill: store})
	if err != nil {
		t.Fatal(err)
	}
	unlimited, err := tenant.New(factory, tenant.Config{Shards: 1, Capacity: 1024})
	if err != nil {
		t.Fatal(err)
	}

	const sessions, rounds = 6, 4
	for r := 0; r < rounds; r++ {
		for g := 0; g < sessions; g++ {
			id := fmt.Sprintf("s%d", g)
			lb, err := limited.Get(id)
			if err != nil {
				t.Fatal(err)
			}
			ub, err := unlimited.Get(id)
			if err != nil {
				t.Fatal(err)
			}
			step := r*2 + g // per-session script position varies by session
			for k := 0; k < 2; k++ {
				gr, ge := toyCall(lb, step+k)
				wr, we := toyCall(ub, step+k)
				if !cloudapitest.DeepEqual(gr, wr) || !cloudapitest.DeepEqual(ge, we) {
					t.Fatalf("round %d session %s call %d: limited (%v, %v) != unlimited (%v, %v)",
						r, id, k, gr, ge, wr, we)
				}
			}
		}
	}
	pst := limited.Stats()
	if pst.Spills == 0 || pst.Spilled == 0 {
		t.Fatalf("no spills happened — the test is vacuous: %+v", pst)
	}
	if st := store.Stats(); st.Rehydrations == 0 {
		t.Fatalf("no rehydrations happened: %+v", st)
	}
	if pst.Sessions > 2 {
		t.Errorf("resident sessions %d exceed capacity 2", pst.Sessions)
	}

	// Concurrent hammer under the race detector: sessions within
	// capacity (no forced evictions mid-flight), plus explicit
	// spill/rehydrate cycles from a sweeper goroutine via Drop-free
	// Get churn on extra sessions.
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			id := fmt.Sprintf("hot%d", g)
			for i := 0; i < 30; i++ {
				b, err := limited.Get(id)
				if err != nil {
					t.Error(err)
					return
				}
				toyCall(b, i)
			}
		}(g)
	}
	wg.Wait()
}

// vpcSource is a small EC2-shaped spec with what the toy spec lacks: a
// describe transition.
const vpcSource = `
service vpcs {
  sm Vpc {
    idprefix "vpc"
    notfound "InvalidVpcID.NotFound"
    states {
      cidrBlock: str
    }
    transition CreateVpc(cidrBlock: str) create {
      write(cidrBlock, cidrBlock)
      return(vpcId, id(self))
    }
    transition DescribeVpcs() describe {
      return(vpcs, describeAll("Vpc"))
    }
  }
}
`

func newVpcEmu(t testing.TB) *interp.Emulator {
	t.Helper()
	svc, err := spec.Parse(vpcSource)
	if err != nil {
		t.Fatalf("Parse(vpcSource): %v", err)
	}
	emu, err := interp.New(svc)
	if err != nil {
		t.Fatalf("interp.New: %v", err)
	}
	return emu
}

func createVpc(b cloudapi.Backend) (cloudapi.Result, error) {
	return b.Invoke(cloudapi.Request{Action: "CreateVpc", Params: cloudapi.Params{"cidrBlock": cloudapi.Str("10.0.0.0/16")}})
}

func describeVpcs(t testing.TB, b cloudapi.Backend) []cloudapi.Value {
	t.Helper()
	out, err := b.Invoke(cloudapi.Request{Action: "DescribeVpcs"})
	if err != nil {
		t.Fatalf("DescribeVpcs: %v", err)
	}
	return out.Get("vpcs").AsList()
}

// TestDescribesSkipJournalWithoutChaos: a describe cannot change the
// world, so with no fault stream to keep in step it leaves the journal
// alone — records counter and segment size both unchanged. Under a
// chaos wrapper the injector's PRNG advances on reads too, so every
// call is journaled exactly as before.
func TestDescribesSkipJournalWithoutChaos(t *testing.T) {
	for _, chaos := range []bool{false, true} {
		t.Run(fmt.Sprintf("chaos=%v", chaos), func(t *testing.T) {
			reg := obsv.NewRegistry()
			s, _ := openTest(t, t.TempDir(), func(c *Config) { c.Registry = reg })
			var inner cloudapi.Backend = newVpcEmu(t)
			if chaos {
				inner = fault.New(inner, fault.Uniform(0.3, 5))
			}
			b, ok := s.Adopt(context.Background(), "d", inner)
			if !ok {
				t.Fatal("Adopt failed")
			}
			for i := 0; i < 3; i++ {
				createVpc(b)
			}
			records := reg.Counter(obsv.MetricDurableJournalRecords)
			seg := onlySegment(t, s.sessionDir("d"))
			size := func() int64 {
				fi, err := os.Stat(seg)
				if err != nil {
					t.Fatal(err)
				}
				return fi.Size()
			}
			recs0, size0 := records.Value(), size()
			const reads = 5
			for i := 0; i < reads; i++ {
				b.Invoke(cloudapi.Request{Action: "DescribeVpcs"})
			}
			wantRecs := recs0
			if chaos {
				wantRecs += reads
			}
			if got := records.Value(); got != wantRecs {
				t.Errorf("journal records after %d describes: %d, want %d", reads, got, wantRecs)
			}
			if grew := size() > size0; grew != chaos {
				t.Errorf("segment grew=%v after describes (%d -> %d bytes), want grew=%v", grew, size0, size(), chaos)
			}
		})
	}
}

// TestEvictAfterReadsOnly: a session that is rehydrated, serves only
// describes and is evicted again has nothing new to persist — the
// spill leaves its file byte-identical, and it still recovers equal.
func TestEvictAfterReadsOnly(t *testing.T) {
	dir := t.TempDir()
	s, sink := openTest(t, dir, func(c *Config) { c.Fsync = FsyncBatch })
	b, _ := s.Adopt(context.Background(), "r", newVpcEmu(t))
	createVpc(b)
	createVpc(b)
	if n, err := s.Spill("r", b); err != nil || n == 0 {
		t.Fatalf("first spill: n=%d err=%v", n, err)
	}
	seg := onlySegment(t, s.sessionDir("r"))
	before, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	for cycle := 0; cycle < 3; cycle++ {
		b, _ = s.Adopt(context.Background(), "r", newVpcEmu(t))
		if got := describeVpcs(t, b); len(got) != 2 {
			t.Fatalf("cycle %d: rehydrated session describes %d VPCs, want 2", cycle, len(got))
		}
		n, err := s.Spill("r", b)
		if err != nil || n != 0 {
			t.Fatalf("cycle %d: unchanged spill wrote %d bytes, err=%v", cycle, n, err)
		}
		if ev, _ := sink.last(EventSpilled); ev.attrs["bytes"] != "0" || ev.attrs["compacted"] != "false" {
			t.Errorf("cycle %d: spilled event = %+v", cycle, ev)
		}
	}
	after, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Errorf("evictions after reads only changed the segment: %d -> %d bytes", len(before), len(after))
	}
	s2, _ := openTest(t, dir, nil)
	b2, _ := s2.Adopt(context.Background(), "r", newVpcEmu(t))
	if got := describeVpcs(t, b2); len(got) != 2 {
		t.Fatalf("recovered session describes %d VPCs, want 2", len(got))
	}
}

// TestStragglerAfterEviction: a caller resolves its session, another
// lookup evicts (spills) it, and only then does the caller's call
// arrive at the now-orphaned wrapper. The wrapper must refuse it: an
// acknowledged CreateVpc there would land in a world no later request
// rehydrates, and the write would be lost. The caller resolves the
// session again and the retried call sticks.
func TestStragglerAfterEviction(t *testing.T) {
	store, _ := openTest(t, t.TempDir(), nil)
	pool, err := tenant.New(func() cloudapi.Backend { return newVpcEmu(t) },
		tenant.Config{Shards: 1, Capacity: 1, Spill: store})
	if err != nil {
		t.Fatal(err)
	}
	stale, err := pool.Get("a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pool.Get("b"); err != nil { // evicts and spills a
		t.Fatal(err)
	}
	if res, err := createVpc(stale); !errors.Is(err, ErrSpilled) {
		t.Fatalf("call on an evicted session's backend = (%v, %v), want ErrSpilled", res, err)
	}
	if _, err := stale.Invoke(cloudapi.Request{Action: "DescribeVpcs"}); !errors.Is(err, ErrSpilled) {
		t.Fatalf("describe on an evicted session's backend: err = %v, want ErrSpilled", err)
	}
	if _, err := ExportBackend(stale); !errors.Is(err, ErrSpilled) {
		t.Errorf("export of an evicted session's backend: err = %v, want ErrSpilled", err)
	}
	fresh, err := pool.Get("a")
	if err != nil {
		t.Fatal(err)
	}
	if got := describeVpcs(t, fresh); len(got) != 0 {
		t.Fatalf("refused call left %d VPCs behind", len(got))
	}
	if res, err := createVpc(fresh); err != nil || res.Get("vpcId").AsString() != "vpc-00000001" {
		t.Fatalf("retried call = (%v, %v)", res, err)
	}
	if _, err := pool.Get("b"); err != nil { // evicts a again
		t.Fatal(err)
	}
	again, err := pool.Get("a")
	if err != nil {
		t.Fatal(err)
	}
	if got := describeVpcs(t, again); len(got) != 1 {
		t.Fatalf("acknowledged write lost across eviction: %d VPCs, want 1", len(got))
	}

	// The same race, live: callers resolve-and-call while the pool
	// churns. Whatever a call answers, an acknowledged create is in the
	// world the session finally rehydrates to.
	var wg sync.WaitGroup
	acked := make([]int, 2)
	for g := range acked {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			id := fmt.Sprintf("live%d", g)
			for i := 0; i < 200; i++ {
				b, err := pool.Get(id)
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := createVpc(b); err == nil {
					acked[g]++
				} else if !errors.Is(err, ErrSpilled) {
					t.Errorf("%s call %d: %v", id, i, err)
				}
			}
		}(g)
	}
	wg.Wait()
	for g, want := range acked {
		b, err := pool.Get(fmt.Sprintf("live%d", g))
		if err != nil {
			t.Fatal(err)
		}
		if got := describeVpcs(t, b); len(got) != want {
			t.Errorf("live%d: %d creates acknowledged, %d in the rehydrated world", g, want, len(got))
		}
	}
}

// TestDiskBoundedOverSpillCycles: every spill appends a checkpoint, so
// without compaction a session evicted and rehydrated for a day would
// grow without bound. Over 10 000 evict/rehydrate cycles of one
// session its directory stays within a fixed multiple of one
// checkpoint.
func TestDiskBoundedOverSpillCycles(t *testing.T) {
	compactions := 0
	s, _ := openTest(t, t.TempDir(), func(c *Config) {
		c.Events = func(kind, _ string, attrs map[string]string) {
			if kind == EventSpilled && attrs["compacted"] == "true" {
				compactions++
			}
		}
	})
	b, emu := adoptEmu(t, s, "cyc")
	for i := 0; i < 8; i++ {
		toyCall(b, i)
	}
	sdir := s.sessionDir("cyc")
	var peak, ckpt int64
	const cycles = 10000
	for i := 0; i < cycles; i++ {
		// One journaled call per residency that does not grow the world
		// (the script's failing create), so every spill has something
		// to write and the checkpoint size stays put.
		toyCall(b, 2)
		n, err := s.Spill("cyc", b)
		if err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
		ckpt = n
		peak = max(peak, dirBytes(t, sdir))
		b, emu = adoptEmu(t, s, "cyc")
	}
	if !cloudapitest.DeepEqual(emu.ExportState(), controlState(t, 8)) {
		t.Fatal("state drifted across spill cycles")
	}
	snap := int64(len(EncodeSnapshot(&SessionState{World: emu.ExportState()})))
	t.Logf("snapshot %d B, checkpoint frame %d B, peak disk %d B (%.1fx), %d compactions in %d spills",
		snap, ckpt, peak, float64(peak)/float64(snap), compactions, cycles)
	if limit := (compactGrowth + 2) * snap; peak > limit {
		t.Errorf("session directory peaked at %d bytes, over %d (%dx one %d-byte snapshot)", peak, limit, compactGrowth+2, snap)
	}
	if compactions == 0 || compactions > cycles/4 {
		t.Errorf("%d compactions in %d spills: want some, and far fewer than spills", compactions, cycles)
	}
}

var benchSink cloudapi.Backend

// BenchmarkJournalAppend is the journal write path alone (fsync off):
// one journaled call = frame into the journal's reused buffer + one
// write. The budget is one allocation per call, and that one is the
// interpreter's result map, not the journal's.
func BenchmarkJournalAppend(b *testing.B) {
	s, _ := openTest(b, b.TempDir(), func(c *Config) { c.CompactEvery = 1 << 30 })
	sb, _ := s.Adopt(context.Background(), "bench", newVpcEmu(b))
	req := cloudapi.Request{Action: "CreateVpc", Params: cloudapi.Params{"cidrBlock": cloudapi.Str("10.0.0.0/16")}}
	bad := cloudapi.Request{Action: "CreateVpc"} // journaled, fails binding, grows nothing
	sb.Invoke(req)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sb.Invoke(bad)
	}
	b.StopTimer()
	if allocs := testing.AllocsPerRun(100, func() { sb.Invoke(bad) }); allocs > 1 {
		b.Fatalf("journaled call allocates %.0f times, budget 1", allocs)
	}
}

// BenchmarkSpillRehydrateCycle is one eviction round trip under the
// default policy (fsync=batch): a journaled call, the spill
// (checkpoint append + one fsync, a compaction every few cycles), and
// the rehydrate on the next touch.
func BenchmarkSpillRehydrateCycle(b *testing.B) {
	s, _ := openTest(b, b.TempDir(), func(c *Config) { c.Fsync = FsyncBatch })
	base := newToyEmu(b)
	sb, _ := s.Adopt(context.Background(), "bench", base.Fork())
	for i := 0; i < 8; i++ {
		toyCall(sb, i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		toyCall(sb, 2)
		if _, err := s.Spill("bench", sb); err != nil {
			b.Fatal(err)
		}
		sb, _ = s.Adopt(context.Background(), "bench", base.Fork())
	}
	benchSink = sb
}

// --- helpers ---

type opaqueBackend struct{}

func (opaqueBackend) Service() string   { return "opaque" }
func (opaqueBackend) Actions() []string { return nil }
func (opaqueBackend) Reset()            {}
func (opaqueBackend) Invoke(cloudapi.Request) (cloudapi.Result, error) {
	return cloudapi.Result{}, nil
}

func mustExport(t testing.TB, b cloudapi.Backend) []byte {
	t.Helper()
	data, err := ExportBackend(b)
	if err != nil {
		t.Fatalf("ExportBackend: %v", err)
	}
	return data
}

func onlySegment(t testing.TB, dir string) string {
	t.Helper()
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 {
		t.Fatalf("want exactly one segment in %s, have %v", dir, segs)
	}
	return filepath.Join(dir, segs[0])
}

// dirBytes sums the sizes of the files directly in dir.
func dirBytes(t testing.TB, dir string) int64 {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, ent := range ents {
		fi, err := ent.Info()
		if err != nil {
			t.Fatal(err)
		}
		total += fi.Size()
	}
	return total
}

// dirListing walks dir and returns relative path + size for every
// file, for before/after comparisons.
func dirListing(t testing.TB, dir string) []string {
	t.Helper()
	var out []string
	err := filepath.Walk(dir, func(path string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if !fi.IsDir() {
			rel, _ := filepath.Rel(dir, path)
			out = append(out, fmt.Sprintf("%s:%d", rel, fi.Size()))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// FuzzReadJournal hammers the recovery reader with arbitrary segment
// bytes: it must never panic, and everything it accepts must lie
// within the file.
func FuzzReadJournal(f *testing.F) {
	// Seed with a real segment.
	dir := f.TempDir()
	s, _ := openTest(f, dir, nil)
	b, _ := adoptEmu(f, s, "seed")
	for i := 0; i < 4; i++ {
		toyCall(b, i)
	}
	data, err := os.ReadFile(onlySegment(f, s.sessionDir("seed")))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Add(data[:len(data)-3])
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3})
	// The same segment after a spill (it now ends in a checkpoint frame),
	// that checkpoint torn, a record after it, and a bare checkpoint as
	// a compaction writes it.
	if _, err := s.Spill("seed", b); err != nil {
		f.Fatal(err)
	}
	spilled, err := os.ReadFile(onlySegment(f, s.sessionDir("seed")))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(spilled)
	f.Add(spilled[:(len(data)+len(spilled))/2])
	b, _ = adoptEmu(f, s, "seed")
	toyCall(b, 4)
	after, err := os.ReadFile(onlySegment(f, s.sessionDir("seed")))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(after)
	f.Add(checkpointFrame(&SessionState{LastSeq: 9, World: controlState(f, 3)}))
	f.Fuzz(func(t *testing.T, seg []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName(1)), seg, 0o644); err != nil {
			t.Fatal(err)
		}
		res, err := readJournal(dir)
		if err != nil {
			t.Fatalf("readJournal must tolerate damage, got error: %v", err)
		}
		if res.validPrefix < 0 || res.validPrefix > int64(len(seg)) {
			t.Fatalf("validPrefix %d outside file of %d bytes", res.validPrefix, len(seg))
		}
		if res.dropReason != "" && res.droppedBytes <= 0 {
			t.Fatalf("damage reported (%s) but droppedBytes=%d", res.dropReason, res.droppedBytes)
		}
	})
}

// FuzzDecodeSnapshot: arbitrary bytes must decode cleanly or error,
// never panic.
func FuzzDecodeSnapshot(f *testing.F) {
	f.Add(EncodeSnapshot(fixtureState()))
	f.Add([]byte("LCES"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := DecodeSnapshot(data)
		if err == nil && st == nil {
			t.Fatal("nil state with nil error")
		}
	})
}
