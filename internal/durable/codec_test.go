package durable

import (
	"encoding/binary"
	"encoding/hex"
	"hash/crc32"
	"reflect"
	"strings"
	"testing"

	"lce/internal/cloudapi"
	"lce/internal/cloudapi/cloudapitest"
	"lce/internal/fault"
	"lce/internal/interp"
)

// fixtureState exercises every value kind the codec can carry: nil,
// string, int, bool, ref, list, and a map (whose keys must encode
// sorted regardless of insertion order).
func fixtureState() *SessionState {
	return &SessionState{
		LastSeq: 42,
		Chaos:   &fault.Cursor{Seed: -7, Calls: 19},
		World: interp.WorldState{
			Seq: 3,
			IDs: map[string]int{"eipalloc": 2, "eni": 1},
			Instances: []interp.InstanceState{
				{
					Type: "NetworkInterface", ID: "eni-00000001",
					Alive: true, Seq: 1,
					Attrs: []interp.AttrState{
						{Name: "publicIp", Value: cloudapi.RefVal("PublicIp", "eipalloc-00000001")},
						{Name: "zone", Value: cloudapi.Str("us-east")},
					},
				},
				{
					Type: "PublicIp", ID: "eipalloc-00000001",
					Parent: cloudapi.Ref{Type: "NetworkInterface", ID: "eni-00000001"},
					Alive:  false, Seq: 2,
					Attrs: []interp.AttrState{
						{Name: "count", Value: cloudapi.Int(-12)},
						{Name: "labels", Value: cloudapi.Map(map[string]cloudapi.Value{
							"b": cloudapi.Bool(true),
							"a": cloudapi.List(cloudapi.Str("x"), cloudapi.Nil, cloudapi.Int(7)),
						})},
						{Name: "status", Value: cloudapi.Str("idle")},
					},
				},
			},
		},
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	st := fixtureState()
	got, err := DecodeSnapshot(EncodeSnapshot(st))
	if err != nil {
		t.Fatalf("DecodeSnapshot: %v", err)
	}
	if !cloudapitest.DeepEqual(got, st) {
		t.Fatalf("round trip differs:\n got %+v\nwant %+v", got, st)
	}

	// No chaos layer: the cursor must round-trip as absent, not zero.
	st.Chaos = nil
	got, err = DecodeSnapshot(EncodeSnapshot(st))
	if err != nil {
		t.Fatalf("DecodeSnapshot (no chaos): %v", err)
	}
	if got.Chaos != nil {
		t.Errorf("nil chaos cursor decoded as %+v", got.Chaos)
	}
}

func TestSnapshotEncodingDeterministic(t *testing.T) {
	a, b := EncodeSnapshot(fixtureState()), EncodeSnapshot(fixtureState())
	if !reflect.DeepEqual(a, b) {
		t.Fatal("equal states encoded to different bytes")
	}
}

// TestSnapshotGoldenBytes pins the on-disk format: if this test fails,
// the layout changed and snapVersion must be bumped (old snapshots on
// operators' disks would otherwise be misread, not rejected).
func TestSnapshotGoldenBytes(t *testing.T) {
	const want = "4c434553012a010d13030208656970616c6c6f630203656e690102104e6574776f726b496e746572666163650c656e692d30303030303030310000010102087075626c6963497004085075626c6963497011656970616c6c6f632d3030303030303031047a6f6e65010775732d65617374085075626c6963497011656970616c6c6f632d3030303030303031104e6574776f726b496e746572666163650c656e692d303030303030303100020305636f756e740217066c6162656c7306020161050301017800020e0162030106737461747573010469646c65791e68ce"
	got := hex.EncodeToString(EncodeSnapshot(fixtureState()))
	if got != want {
		t.Fatalf("snapshot bytes changed — bump snapVersion if intentional\n got %s\nwant %s", got, want)
	}
}

func TestSnapshotRejectsDamage(t *testing.T) {
	good := EncodeSnapshot(fixtureState())
	if _, err := DecodeSnapshot(good); err != nil {
		t.Fatalf("control decode failed: %v", err)
	}
	// Every single-byte flip must be caught (by the CRC if nothing
	// earlier objects).
	for i := range good {
		bad := append([]byte(nil), good...)
		bad[i] ^= 0x40
		if _, err := DecodeSnapshot(bad); err == nil {
			t.Fatalf("flip at byte %d decoded cleanly", i)
		}
	}
	// Truncation at every length must be caught.
	for n := 0; n < len(good); n++ {
		if _, err := DecodeSnapshot(good[:n]); err == nil {
			t.Fatalf("truncation to %d bytes decoded cleanly", n)
		}
	}
	// Trailing garbage shifts the CRC trailer and must be caught.
	if _, err := DecodeSnapshot(append(append([]byte(nil), good...), 0)); err == nil {
		t.Fatal("trailing byte decoded cleanly")
	}
}

func TestSnapshotRejectsUnknownVersion(t *testing.T) {
	// Rebuild the snapshot with a bumped version byte and a valid CRC:
	// the decoder must reject on version, not CRC.
	good := EncodeSnapshot(fixtureState())
	body := append([]byte(nil), good[:len(good)-4]...)
	if body[4] != snapVersion {
		t.Fatalf("fixture layout drifted: byte 4 = %d, want version %d", body[4], snapVersion)
	}
	body[4] = snapVersion + 1
	bad := binary.LittleEndian.AppendUint32(body, crc32.ChecksumIEEE(body))
	_, err := DecodeSnapshot(bad)
	if err == nil || !strings.Contains(err.Error(), "unsupported snapshot version") {
		t.Fatalf("want unsupported-version error, got %v", err)
	}
}
