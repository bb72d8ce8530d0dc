// Package durable is the persistence layer for emulator sessions: a
// versioned, deterministic binary snapshot codec for interp world
// state (plus the chaos injector's stream cursor, so replays stay
// exact through the fault layer), and an append-only CRC-framed
// write-ahead journal that is everything a session has on disk —
// calls, resets and checkpoints (snapshot images) are all records of
// it. Together they make a session's world survive eviction and
// process death: the tenant pool spills cold sessions by appending a
// checkpoint and rehydrates them transparently on the next touch, and
// a server restarted over the same data directory recovers every
// session from its newest checkpoint plus the records after it.
//
// Everything in the on-disk format is explicit — varints, sorted map
// keys, little-endian CRC trailers — so the same state encodes to
// the same bytes on every run and every Go version. That determinism
// is load-bearing: the golden-bytes test pins the format, and the
// kill-and-recover oracle compares wire responses byte-for-byte.
package durable

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sort"

	"lce/internal/cloudapi"
	"lce/internal/fault"
	"lce/internal/interp"
)

// snapMagic opens every snapshot image; snapVersion is bumped on any
// incompatible layout change (decoders reject versions they don't
// know rather than guessing).
const (
	snapMagic   = "LCES"
	snapVersion = 1
)

// SessionState is everything a durable session must carry across a
// spill or a crash: the emulator's world, the chaos injector's
// position in its fault stream (nil when the session has no chaos
// layer), and the journal sequence number the snapshot covers —
// replay applies only records newer than LastSeq, which is what makes
// a re-encountered pre-compaction segment harmless.
type SessionState struct {
	LastSeq uint64
	Chaos   *fault.Cursor
	World   interp.WorldState
}

// EncodeSnapshot renders st as a self-verifying binary snapshot:
// magic, version, payload, CRC-32 (IEEE, little-endian) over all
// preceding bytes. Encoding is deterministic — equal states yield
// equal bytes.
func EncodeSnapshot(st *SessionState) []byte {
	e := &encoder{buf: make([]byte, 0, 256)}
	e.snapshot(st)
	return e.buf
}

// snapshot appends st's snapshot image — EncodeSnapshot's bytes — to
// the buffer, so a checkpoint record is framed around it in place.
func (e *encoder) snapshot(st *SessionState) {
	start := len(e.buf)
	e.bytes([]byte(snapMagic))
	e.uvarint(snapVersion)
	e.uvarint(st.LastSeq)
	if st.Chaos != nil {
		e.byte(1)
		e.varint(st.Chaos.Seed)
		e.uvarint(uint64(st.Chaos.Calls))
	} else {
		e.byte(0)
	}
	e.uvarint(uint64(st.World.Seq))
	prefixes := make([]string, 0, len(st.World.IDs))
	for p := range st.World.IDs {
		prefixes = append(prefixes, p)
	}
	sort.Strings(prefixes)
	e.uvarint(uint64(len(prefixes)))
	for _, p := range prefixes {
		e.string(p)
		e.uvarint(uint64(st.World.IDs[p]))
	}
	e.uvarint(uint64(len(st.World.Instances)))
	for i := range st.World.Instances {
		inst := &st.World.Instances[i]
		e.string(inst.Type)
		e.string(inst.ID)
		e.string(inst.Parent.Type)
		e.string(inst.Parent.ID)
		if inst.Alive {
			e.byte(1)
		} else {
			e.byte(0)
		}
		e.uvarint(uint64(inst.Seq))
		e.uvarint(uint64(len(inst.Attrs)))
		for _, a := range inst.Attrs {
			e.string(a.Name)
			e.value(a.Value)
		}
	}
	e.buf = binary.LittleEndian.AppendUint32(e.buf, crc32.ChecksumIEEE(e.buf[start:]))
}

// DecodeSnapshot parses and verifies a snapshot produced by
// EncodeSnapshot. Any framing damage — short file, bad magic, unknown
// version, CRC mismatch, trailing garbage — is an error; a snapshot
// is either exactly right or rejected whole.
func DecodeSnapshot(data []byte) (*SessionState, error) {
	if len(data) < len(snapMagic)+4 {
		return nil, fmt.Errorf("durable: snapshot truncated (%d bytes)", len(data))
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if got, want := binary.LittleEndian.Uint32(tail), crc32.ChecksumIEEE(body); got != want {
		return nil, fmt.Errorf("durable: snapshot CRC mismatch (got %08x want %08x)", got, want)
	}
	d := &decoder{data: body}
	if string(d.take(len(snapMagic))) != snapMagic {
		return nil, fmt.Errorf("durable: bad snapshot magic")
	}
	if v := d.uvarint(); v != snapVersion {
		return nil, fmt.Errorf("durable: unsupported snapshot version %d", v)
	}
	st := &SessionState{LastSeq: d.uvarint()}
	if d.byte() == 1 {
		st.Chaos = &fault.Cursor{Seed: d.varint(), Calls: int(d.uvarint())}
	}
	st.World.Seq = int(d.uvarint())
	if n := d.uvarint(); n > 0 {
		st.World.IDs = make(map[string]int, n)
		for i := uint64(0); i < n && d.err == nil; i++ {
			p := d.string()
			st.World.IDs[p] = int(d.uvarint())
		}
	} else {
		st.World.IDs = map[string]int{}
	}
	ninst := d.uvarint()
	for i := uint64(0); i < ninst && d.err == nil; i++ {
		inst := interp.InstanceState{
			Type: d.string(),
			ID:   d.string(),
		}
		inst.Parent.Type = d.string()
		inst.Parent.ID = d.string()
		inst.Alive = d.byte() == 1
		inst.Seq = int(d.uvarint())
		nattr := d.uvarint()
		for j := uint64(0); j < nattr && d.err == nil; j++ {
			inst.Attrs = append(inst.Attrs, interp.AttrState{Name: d.string(), Value: d.value()})
		}
		st.World.Instances = append(st.World.Instances, inst)
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(d.data) {
		return nil, fmt.Errorf("durable: snapshot has %d trailing bytes", len(d.data)-d.off)
	}
	return st, nil
}

// --- primitive encoder ---

type encoder struct{ buf []byte }

func (e *encoder) byte(b byte)      { e.buf = append(e.buf, b) }
func (e *encoder) bytes(b []byte)   { e.buf = append(e.buf, b...) }
func (e *encoder) uvarint(u uint64) { e.buf = binary.AppendUvarint(e.buf, u) }
func (e *encoder) varint(i int64)   { e.buf = binary.AppendVarint(e.buf, i) }
func (e *encoder) string(s string) {
	e.uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// value encodes one dynamic value: a kind byte, then the payload.
// Maps encode their keys sorted, so equal values encode identically.
func (e *encoder) value(v cloudapi.Value) {
	e.byte(byte(v.Kind()))
	switch v.Kind() {
	case cloudapi.KindNil:
	case cloudapi.KindString:
		e.string(v.AsString())
	case cloudapi.KindInt:
		e.varint(v.AsInt())
	case cloudapi.KindBool:
		if v.AsBool() {
			e.byte(1)
		} else {
			e.byte(0)
		}
	case cloudapi.KindRef:
		r := v.AsRef()
		e.string(r.Type)
		e.string(r.ID)
	case cloudapi.KindList:
		l := v.AsList()
		e.uvarint(uint64(len(l)))
		for _, el := range l {
			e.value(el)
		}
	case cloudapi.KindMap:
		m := v.AsMap()
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		e.uvarint(uint64(len(keys)))
		for _, k := range keys {
			e.string(k)
			e.value(m[k])
		}
	}
}

// --- primitive decoder (sticky error) ---

type decoder struct {
	data []byte
	off  int
	err  error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("durable: "+format, args...)
	}
}

func (d *decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if d.off+n > len(d.data) {
		d.fail("truncated at offset %d (want %d bytes, have %d)", d.off, n, len(d.data)-d.off)
		return nil
	}
	b := d.data[d.off : d.off+n]
	d.off += n
	return b
}

func (d *decoder) byte() byte {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	u, n := binary.Uvarint(d.data[d.off:])
	if n <= 0 {
		d.fail("bad uvarint at offset %d", d.off)
		return 0
	}
	d.off += n
	return u
}

func (d *decoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	i, n := binary.Varint(d.data[d.off:])
	if n <= 0 {
		d.fail("bad varint at offset %d", d.off)
		return 0
	}
	d.off += n
	return i
}

func (d *decoder) string() string {
	n := d.uvarint()
	if d.err == nil && n > uint64(len(d.data)-d.off) {
		d.fail("string length %d exceeds remaining %d bytes", n, len(d.data)-d.off)
		return ""
	}
	return string(d.take(int(n)))
}

func (d *decoder) value() cloudapi.Value {
	switch k := cloudapi.Kind(d.byte()); k {
	case cloudapi.KindNil:
		return cloudapi.Nil
	case cloudapi.KindString:
		return cloudapi.Str(d.string())
	case cloudapi.KindInt:
		return cloudapi.Int(d.varint())
	case cloudapi.KindBool:
		return cloudapi.Bool(d.byte() == 1)
	case cloudapi.KindRef:
		typ := d.string()
		return cloudapi.RefVal(typ, d.string())
	case cloudapi.KindList:
		n := d.uvarint()
		if d.err != nil {
			return cloudapi.Nil
		}
		vs := make([]cloudapi.Value, 0, min(int(n), 64))
		for i := uint64(0); i < n && d.err == nil; i++ {
			vs = append(vs, d.value())
		}
		return cloudapi.List(vs...)
	case cloudapi.KindMap:
		n := d.uvarint()
		if d.err != nil {
			return cloudapi.Nil
		}
		m := make(map[string]cloudapi.Value, min(int(n), 64))
		for i := uint64(0); i < n && d.err == nil; i++ {
			k := d.string()
			m[k] = d.value()
		}
		return cloudapi.Map(m)
	default:
		d.fail("unknown value kind %d", k)
		return cloudapi.Nil
	}
}
