package durable

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"

	"lce/internal/cloudapi"
	"lce/internal/obsv"
)

// Fsync policies for journal appends. "always" syncs every record —
// nothing acknowledged is ever lost, at one fsync per journaled call.
// "batch" syncs every batchSyncEvery records and at every spill and
// compaction — a crash loses at most the last unsynced batch, which
// recovery detects and reports as a torn tail. "off" never syncs —
// fastest, and exactly as durable as the page cache.
const (
	FsyncAlways = "always"
	FsyncBatch  = "batch"
	FsyncOff    = "off"

	batchSyncEvery = 64
)

// Journal record types. Every record body begins with the record's
// uvarint sequence number; the remainder is type-specific.
const (
	// recChaosInit carries the session's derived chaos seed (varint).
	// It is written once, when a chaos-wrapped session is first
	// adopted: factory-derived seeds depend on instance creation
	// order, so a recovered process would otherwise re-derive the
	// wrong stream for sessions that were never snapshotted.
	recChaosInit = byte(1)
	// recCall is one applied API call: action string, then a sorted
	// (key, value) parameter list. Failing calls are journaled like
	// successful ones. Describes are journaled only for a chaos-wrapped
	// session: the injector's PRNG advances on every call, reads
	// included, and replay must advance it identically; without a
	// fault stream a describe leaves nothing to replay.
	recCall = byte(2)
	// recReset marks a session-scoped Reset.
	recReset = byte(3)
	// recCheckpoint is the session's whole state: after the sequence
	// number, the body is an EncodeSnapshot image whose LastSeq is the
	// record's own sequence number. Recovery restores the newest one
	// and replays only what follows it. A spill appends one; compaction
	// starts a fresh segment with one.
	recCheckpoint = byte(4)
)

// Record framing on disk:
//
//	uint32 LE  length of (type byte + body)
//	byte       record type
//	body       …
//	uint32 LE  CRC-32 (IEEE) over (type byte + body)
//
// A reader stops at the first frame that doesn't check out — short
// header, short body, or CRC mismatch — and reports what it dropped.
// maxRecordLen bounds a single frame: a length field past it is
// damage, not a record. The bound is generous because a checkpoint
// frame carries a session's whole world; the writer refuses a frame
// the reader would not take back.
const maxRecordLen = 1 << 30

// segPrefix/segSuffix name journal segments: journal-00000001.wal,
// journal-00000002.wal, … Numbering is monotonic across the session's
// lifetime; compaction starts the next one and deletes every older
// one, and recovery reads the survivors in numeric order. A session
// normally has exactly one.
const (
	segPrefix = "journal-"
	segSuffix = ".wal"
)

// legacySnapshot is the snapshot file of the layout before checkpoints
// were journal records. It is still read as a base state when the
// journal holds no checkpoint, never written, and removed at the
// session's first compaction.
const legacySnapshot = "snapshot.bin"

func segName(idx int) string { return fmt.Sprintf("%s%08d%s", segPrefix, idx, segSuffix) }

// segIndex parses a segment filename, returning -1 for non-segments.
func segIndex(name string) int {
	s, ok := strings.CutPrefix(name, segPrefix)
	if !ok {
		return -1
	}
	s, ok = strings.CutSuffix(s, segSuffix)
	if !ok || len(s) != 8 {
		return -1
	}
	idx := 0
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return -1
		}
		idx = idx*10 + int(s[i]-'0')
	}
	return idx
}

// listSegments returns the session directory's segment filenames in
// numeric order.
func listSegments(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var segs []string
	for _, ent := range ents {
		if segIndex(ent.Name()) >= 0 {
			segs = append(segs, ent.Name())
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segIndex(segs[i]) < segIndex(segs[j]) })
	return segs, nil
}

// journal is one session's append side: the live segment file plus
// the sequence counter. Not safe for concurrent use — the session
// wrapper serializes appends with its own mutex, which also pins
// journal order to execution order. f is nil once the segment has been
// closed, by a spill or by a write failure.
type journal struct {
	dir     string
	fsync   string
	f       *os.File
	segIdx  int
	segSize int64
	// ckptEnd is the offset just past the live segment's newest
	// checkpoint (0 when it holds none): everything after it is what a
	// recovery replays.
	ckptEnd int64
	seq     uint64
	// unsynced counts records written to f since its last sync, under
	// every policy: it paces batch syncs and lets close skip the sync
	// of a segment nothing was written to.
	unsynced int
	// enc and keys are the frame buffer and the sorted-parameter
	// scratch of the record being appended, reused across appends.
	enc  encoder
	keys []string
}

// open opens the session's last segment (segIdx, as the recovery scan
// found it; 0 means none yet) for appending, creating
// journal-00000001.wal for a new session. Continuing a segment is safe
// because rehydrate has already trimmed a torn tail to its valid
// prefix, so the next frame lands right after the last good one.
func (j *journal) open() error {
	j.segIdx = max(j.segIdx, 1)
	f, err := os.OpenFile(filepath.Join(j.dir, segName(j.segIdx)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return err
	}
	j.f, j.segSize = f, fi.Size()
	return nil
}

// live reports whether the journal can take an append.
func (j *journal) live() bool { return j != nil && j.f != nil }

// append frames and writes one call, reset or chaos-init record,
// assigning it the next sequence number and applying the fsync policy.
// pt — the triggering request's phase timer, nil when un-instrumented —
// gets the file-sync time as its own "fsync" phase, nested inside the
// caller's "journal.append" region so self-time accounting separates
// encode+write cost from sync cost.
func (j *journal) append(rec record, pt *obsv.PhaseTimer) error {
	j.seq++
	e := &j.enc
	e.buf = append(e.buf[:0], 0, 0, 0, 0) // length, patched by seal
	e.byte(rec.typ)
	e.uvarint(j.seq)
	switch rec.typ {
	case recChaosInit:
		e.varint(rec.seed)
	case recCall:
		e.string(rec.action)
		keys := j.keys[:0]
		for k := range rec.params {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		j.keys = keys
		e.uvarint(uint64(len(keys)))
		for _, k := range keys {
			e.string(k)
			e.value(rec.params[k])
		}
	}
	if err := j.write(e.seal()); err != nil {
		return err
	}
	if j.fsync == FsyncAlways || j.fsync == FsyncBatch && j.unsynced >= batchSyncEvery {
		return j.sync(pt)
	}
	return nil
}

// seal closes the frame begun with a four-byte length placeholder:
// patches the length in and appends the CRC.
func (e *encoder) seal() []byte {
	payload := e.buf[4:]
	binary.LittleEndian.PutUint32(e.buf[:4], uint32(len(payload)))
	e.buf = binary.LittleEndian.AppendUint32(e.buf, crc32.ChecksumIEEE(payload))
	return e.buf
}

// checkpointFrame renders st as a sealed recCheckpoint frame with
// sequence number st.LastSeq. It uses a buffer of its own: a world can
// be large, and the journal's reused one lives as long as the session
// is resident.
func checkpointFrame(st *SessionState) []byte {
	e := &encoder{buf: make([]byte, 4, 512)}
	e.byte(recCheckpoint)
	e.uvarint(st.LastSeq)
	e.snapshot(st)
	return e.seal()
}

func (j *journal) write(frame []byte) error {
	if err := checkFrameLen(frame); err != nil {
		return err
	}
	if _, err := j.f.Write(frame); err != nil {
		return err
	}
	j.segSize += int64(len(frame))
	j.unsynced++
	return nil
}

// checkFrameLen refuses a sealed frame whose payload recovery would
// reject as over-long.
func checkFrameLen(frame []byte) error {
	if n := len(frame) - 8; n > maxRecordLen {
		return fmt.Errorf("durable: record of %d bytes exceeds the %d-byte frame limit", n, maxRecordLen)
	}
	return nil
}

func (j *journal) sync(pt *obsv.PhaseTimer) error {
	region := pt.Start(obsv.PhaseFsync)
	err := j.f.Sync()
	region.End()
	if err == nil {
		j.unsynced = 0
	}
	return err
}

// compact starts segment segIdx+1 with frame — a checkpoint, which
// supersedes every record before it — and makes it the live segment.
// The new file and its directory entry are synced (unless fsync is
// off) before anything older is unlinked, so at every instant the
// directory recovers to the checkpointed state or a later one. The
// old segment is closed unsynced: whatever it had not yet synced is in
// the checkpoint. A crash before the unlinks leaves the old files
// beside the new segment, where replay skips their records by sequence
// number and the next compaction removes them.
func (j *journal) compact(frame []byte) error {
	if err := checkFrameLen(frame); err != nil {
		return err
	}
	path := filepath.Join(j.dir, segName(j.segIdx+1))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(frame)
	if err == nil && j.fsync != FsyncOff {
		err = f.Sync()
	}
	if err != nil {
		f.Close()
		os.Remove(path)
		return err
	}
	if j.fsync != FsyncOff {
		syncDir(j.dir)
	}
	if j.f != nil {
		j.f.Close()
	}
	j.f, j.segIdx, j.segSize, j.unsynced = f, j.segIdx+1, int64(len(frame)), 0
	dropSuperseded(j.dir, j.segIdx)
	return nil
}

// closeSegment closes the live segment, syncing it first when it holds
// records not yet synced (and fsync is not off).
func (j *journal) closeSegment() error {
	if j.f == nil {
		return nil
	}
	var err error
	if j.fsync != FsyncOff && j.unsynced > 0 {
		err = j.sync(nil)
	}
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	j.f = nil
	return err
}

// dropSuperseded deletes what a checkpoint opening segment idx has
// made redundant: every lower-numbered segment, and the snapshot file
// (with its temp sibling) of the layout before checkpoints were
// journal records. Best-effort: a file that will not go is skipped by
// replay and retried by the next compaction.
func dropSuperseded(dir string, idx int) {
	ents, _ := os.ReadDir(dir)
	for _, ent := range ents {
		name := ent.Name()
		si := segIndex(name)
		if (si >= 0 && si < idx) || name == legacySnapshot || name == legacySnapshot+".tmp" {
			os.Remove(filepath.Join(dir, name))
		}
	}
}

// dropSegmentsAfter deletes every segment numbered above idx. After a
// recovery that hit a damaged frame, the segments past the damage were
// never replayed, so leaving them would let a *future* recovery apply
// records the rehydrated world never saw.
func dropSegmentsAfter(dir string, idx int) {
	segs, _ := listSegments(dir)
	for _, name := range segs {
		if segIndex(name) > idx {
			os.Remove(filepath.Join(dir, name))
		}
	}
}

// record is one decoded journal record.
type record struct {
	typ    byte
	seq    uint64
	action string          // recCall
	params cloudapi.Params // recCall
	seed   int64           // recChaosInit
	snap   []byte          // recCheckpoint: the EncodeSnapshot image, aliasing the segment's bytes
}

// readResult is what scanning a session's journal yields: the valid
// records in order, plus an account of anything dropped. Recovery
// stops at the first damaged frame — records past a tear are
// unordered garbage even if their own CRCs check out, and later
// segments cannot be trusted either (they were written after the
// damage point in wall time only if the tear is a clean tail).
type readResult struct {
	records      []record
	maxSeq       uint64
	lastSeg      int   // number of the last segment read (0 = none): where appends continue, and where damage was found
	ckptEnd      int64 // offset in lastSeg just past its newest checkpoint (0 = it holds none)
	droppedBytes int64
	dropReason   string
	validPrefix  int64 // bytes of valid records in lastSeg before the damage
}

// readJournal scans every segment in order, stopping (not failing) at
// the first invalid frame. droppedBytes counts everything after the
// last valid record, across segment boundaries.
func readJournal(dir string) (readResult, error) {
	var res readResult
	segs, err := listSegments(dir)
	if err != nil {
		return res, err
	}
	for si, name := range segs {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return res, err
		}
		res.lastSeg, res.ckptEnd = segIndex(name), 0
		off := 0
		for off < len(data) {
			rec, n, reason := decodeFrame(data[off:])
			if reason != "" {
				res.dropReason = reason
				res.validPrefix = int64(off)
				res.droppedBytes = int64(len(data) - off)
				for _, later := range segs[si+1:] {
					if fi, err := os.Stat(filepath.Join(dir, later)); err == nil {
						res.droppedBytes += fi.Size()
					}
				}
				return res, nil
			}
			res.records = append(res.records, rec)
			if rec.seq > res.maxSeq {
				res.maxSeq = rec.seq
			}
			off += n
			if rec.typ == recCheckpoint {
				res.ckptEnd = int64(off)
			}
		}
	}
	return res, nil
}

// decodeFrame parses one framed record from the front of data,
// returning the consumed length, or a non-empty reason why the frame
// is invalid ("torn tail" for truncation, "crc mismatch", …).
func decodeFrame(data []byte) (record, int, string) {
	var rec record
	if len(data) < 4 {
		return rec, 0, "torn tail (short length header)"
	}
	plen := int(binary.LittleEndian.Uint32(data[:4]))
	if plen < 1 || plen > maxRecordLen {
		return rec, 0, fmt.Sprintf("bad record length %d", plen)
	}
	if len(data) < 4+plen+4 {
		return rec, 0, "torn tail (truncated record)"
	}
	payload := data[4 : 4+plen]
	got := binary.LittleEndian.Uint32(data[4+plen : 4+plen+4])
	if want := crc32.ChecksumIEEE(payload); got != want {
		return rec, 0, fmt.Sprintf("crc mismatch (got %08x want %08x)", got, want)
	}
	d := &decoder{data: payload}
	rec.typ = d.byte()
	rec.seq = d.uvarint()
	switch rec.typ {
	case recChaosInit:
		rec.seed = d.varint()
	case recCall:
		rec.action = d.string()
		n := d.uvarint()
		if n > 0 && d.err == nil {
			rec.params = make(cloudapi.Params, n)
			for i := uint64(0); i < n && d.err == nil; i++ {
				k := d.string()
				rec.params[k] = d.value()
			}
		}
	case recReset:
	case recCheckpoint:
		rec.snap = d.take(len(d.data) - d.off)
	default:
		return rec, 0, fmt.Sprintf("unknown record type %d", rec.typ)
	}
	if d.err != nil {
		return rec, 0, "malformed record body"
	}
	return rec, 4 + plen + 4, ""
}

// syncDir fsyncs a directory so a just-created entry survives power
// loss; best-effort (some filesystems refuse directory fsync).
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}
